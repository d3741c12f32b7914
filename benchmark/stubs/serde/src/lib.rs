//! Offline stand-in for `serde`, and the interface `colossalai-core` is
//! written against: types convert to and from a [`Value`] tree
//! (`serialize_value` / `deserialize_value`) instead of driving a visitor.
//! The derives cover what the repo declares: structs with named fields,
//! unit-only enums, and the `rename`, `rename_all = "lowercase"`, `default`
//! and `default = "path"` attributes. Unknown map keys are ignored.

pub use serde_derive::{Deserialize, Serialize};

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Key order is the order written or parsed.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` when `self` is a map that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) | Value::Int(_) => "an integer",
            Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Seq(_) => "an array",
            Value::Map(_) => "an object",
        }
    }

    /// The error for a value of the wrong kind.
    pub fn mismatch(&self, expected: &str) -> String {
        format!("expected {expected}, found {}", self.kind())
    }
}

pub trait Serialize {
    fn serialize_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn deserialize_value(v: &Value) -> Result<Self, String>;

    /// What a struct field of this type becomes when its key is absent and
    /// the field has no `default` attribute.
    fn deserialize_missing(field: &str) -> Result<Self, String> {
        Err(format!("missing field `{field}`"))
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(other.mismatch("a boolean")),
        }
    }
}

/// Integers serialize to `$variant` and deserialize from either integer
/// variant, range-checked.
macro_rules! integer {
    ($variant:ident, $wide:ty, $expected:literal: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::$variant(*self as $wide)
            }
        }

        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, String> {
                let out_of_range = || format!("integer out of range for {}", stringify!($t));
                match v {
                    Value::UInt(n) => <$t>::try_from(*n).map_err(|_| out_of_range()),
                    Value::Int(n) => <$t>::try_from(*n).map_err(|_| out_of_range()),
                    other => Err(other.mismatch($expected)),
                }
            }
        }
    )*};
}
integer!(UInt, u64, "an unsigned integer": u8, u16, u32, u64, usize);
integer!(Int, i64, "an integer": i8, i16, i32, i64, isize);

macro_rules! float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Float(f64::from(*self))
            }
        }

        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, String> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    other => Err(other.mismatch("a number")),
                }
            }
        }
    )*};
}
float!(f32, f64);

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(other.mismatch("a string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::serialize_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }

    fn deserialize_missing(_field: &str) -> Result<Self, String> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(T::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Seq(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(other.mismatch("an array")),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_value(&self) -> Value {
        Value::Seq(vec![self.0.serialize_value(), self.1.serialize_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Seq(items) if items.len() == 2 => Ok((
                A::deserialize_value(&items[0])?,
                B::deserialize_value(&items[1])?,
            )),
            other => Err(other.mismatch("an array of two")),
        }
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }
}
