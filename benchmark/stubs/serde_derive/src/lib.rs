//! Derives for the value-tree `serde` stand-in, written against
//! `proc_macro` alone (no `syn`/`quote` offline). Supported input: structs
//! with named fields and enums of unit variants, without generics; the
//! attributes `rename`, `rename_all = "lowercase"`, `default` and
//! `default = "path"`. Anything else is a compile error naming the cause.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum DefaultKind {
    Trait,
    Path(String),
}

/// What the `#[serde(...)]` attributes of one item said.
#[derive(Default)]
struct Attrs {
    rename: Option<String>,
    lowercase_all: bool,
    default: Option<DefaultKind>,
}

struct Member {
    name: String,
    key: String,
    default: Option<DefaultKind>,
}

enum Body {
    Struct(Vec<Member>),
    Enum(Vec<Member>),
}

struct Input {
    name: String,
    body: Body,
}

fn unquote(lit: &str) -> Result<String, String> {
    lit.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .filter(|s| !s.contains('\\'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a plain string literal, found {lit}"))
}

/// Folds one `#[...]` attribute's contents into `attrs`; attributes other
/// than `serde` are someone else's.
fn parse_attr(stream: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let mut it = stream.into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(()),
    }
    let Some(TokenTree::Group(args)) = it.next() else {
        return Err("expected #[serde(...)]".into());
    };
    let toks: Vec<TokenTree> = args.stream().into_iter().collect();
    for item in toks.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        let value = match item {
            [] => continue,
            [TokenTree::Ident(_)] => None,
            [TokenTree::Ident(_), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if eq.as_char() == '=' =>
            {
                Some(unquote(&lit.to_string())?)
            }
            _ => return Err("unsupported #[serde(...)] syntax".into()),
        };
        let key = item[0].to_string();
        match (key.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) if v == "lowercase" => attrs.lowercase_all = true,
            ("default", None) => attrs.default = Some(DefaultKind::Trait),
            ("default", Some(path)) => attrs.default = Some(DefaultKind::Path(path)),
            _ => return Err(format!("unsupported serde attribute `{key}`")),
        }
    }
    Ok(())
}

/// Splits a brace body into its comma-separated members. A struct member is
/// `attrs vis name: type`, an enum member `attrs Name`; commas inside `<...>`
/// belong to a type, and commas inside any bracket are hidden in a group.
fn parse_members(
    body: TokenStream,
    is_struct: bool,
    lowercase_all: bool,
) -> Result<Vec<Member>, String> {
    let mut members = Vec::new();
    let mut it = body.into_iter().peekable();
    while it.peek().is_some() {
        let mut attrs = Attrs::default();
        let mut name = None;
        let mut angle_depth = 0i32;
        for tok in it.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Group(g) if name.is_none() => match g.delimiter() {
                    Delimiter::Bracket => parse_attr(g.stream(), &mut attrs)?,
                    // The `(crate)` of a visibility.
                    Delimiter::Parenthesis if is_struct => {}
                    _ => return Err("enum variants with data are not supported".into()),
                },
                TokenTree::Group(_) if !is_struct => {
                    return Err("enum variants with data are not supported".into())
                }
                TokenTree::Ident(id) if name.is_none() && id.to_string() != "pub" => {
                    name = Some(id.to_string());
                }
                _ => {}
            }
        }
        let name = name.ok_or("expected a field or variant name")?;
        let key = match attrs.rename {
            Some(k) => k,
            None if lowercase_all => name.to_lowercase(),
            None => name.clone(),
        };
        members.push(Member {
            name,
            key,
            default: attrs.default,
        });
    }
    Ok(members)
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut attrs = Attrs::default();
    let mut it = input.into_iter();
    let is_struct = loop {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                parse_attr(g.stream(), &mut attrs)?;
            }
            Some(TokenTree::Ident(id)) => match id.to_string().as_str() {
                "struct" => break true,
                "enum" => break false,
                _ => {}
            },
            Some(_) => {}
            None => return Err("expected a struct or an enum".into()),
        }
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        return Err("expected a type name".into());
    };
    let members = match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            parse_members(g.stream(), is_struct, attrs.lowercase_all)?
        }
        _ => return Err("only non-generic structs with named fields and enums derive".into()),
    };
    Ok(Input {
        name: name.to_string(),
        body: if is_struct {
            Body::Struct(members)
        } else {
            Body::Enum(members)
        },
    })
}

fn expand(input: TokenStream, generate: fn(&Input) -> String) -> TokenStream {
    let code = match parse_input(input) {
        Ok(parsed) => generate(&parsed),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated code parses")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |Input { name, body }| {
        let inner = match body {
            Body::Struct(fields) => {
                let entries: String = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "({:?}.to_string(), ::serde::Serialize::serialize_value(&self.{})),",
                            f.key, f.name
                        )
                    })
                    .collect();
                format!("::serde::Value::Map(vec![{entries}])")
            }
            Body::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        format!(
                            "{name}::{} => ::serde::Value::Str({:?}.to_string()),",
                            v.name, v.key
                        )
                    })
                    .collect();
                format!("match self {{ {arms} }}")
            }
        };
        format!(
            "impl ::serde::Serialize for {name} {{
                fn serialize_value(&self) -> ::serde::Value {{ {inner} }}
            }}"
        )
    })
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |Input { name, body }| {
        let inner = match body {
            Body::Struct(fields) => {
                let inits: String = fields
                    .iter()
                    .map(|f| {
                        let missing = match &f.default {
                            Some(DefaultKind::Trait) => {
                                "::core::default::Default::default()".into()
                            }
                            Some(DefaultKind::Path(p)) => format!("{p}()"),
                            None => {
                                format!("::serde::Deserialize::deserialize_missing({:?})?", f.key)
                            }
                        };
                        format!(
                            "{field}: match v.get({key:?}) {{
                                Some(x) => ::serde::Deserialize::deserialize_value(x)
                                    .map_err(|e| format!(\"{{}}: {{}}\", {key:?}, e))?,
                                None => {missing},
                            }},",
                            field = f.name,
                            key = f.key,
                        )
                    })
                    .collect();
                format!(
                    "if !matches!(v, ::serde::Value::Map(_)) {{
                        return Err(v.mismatch(\"an object\"));
                    }}
                    Ok({name} {{ {inits} }})"
                )
            }
            Body::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| format!("{:?} => Ok({name}::{}),", v.key, v.name))
                    .collect();
                let known: Vec<&str> = variants.iter().map(|v| v.key.as_str()).collect();
                format!(
                    "let ::serde::Value::Str(s) = v else {{
                        return Err(v.mismatch(\"a string\"));
                    }};
                    match s.as_str() {{
                        {arms}
                        other => Err(format!(\"unknown variant `{{}}`, expected one of {}\", other)),
                    }}",
                    known.join(", ")
                )
            }
        };
        format!(
            "impl ::serde::Deserialize for {name} {{
                fn deserialize_value(v: &::serde::Value) -> Result<Self, String> {{ {inner} }}
            }}"
        )
    })
}
