//! The knob surface cannot grow back: runtime behaviour changes through
//! `Config → initialize()` and the one setter each key lands on, never
//! through the process environment, and every default is pinned here. So
//! are the things the retired intra-op pool and fast numeric mode took with
//! them: threads spawned outside the world executor, a second arithmetic
//! beside each kernel, and 14 of the 17 `unsafe` sites. Nor can a switch
//! that turns the overlapped gradient reduce off. The API surface cannot
//! grow back either: every public function has a caller.

use colossalai::comm::compress::Compression;
use colossalai::comm::{World, WorldBackend};
use colossalai::core::{initialize, Config, OptimizerSpec};
use colossalai::tensor::{init, pool};
use colossalai::topology::systems::system_i;
use colossalai_autograd::Linear;
use std::collections::BTreeSet;
use std::path::Path;

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the repo root, text)` of every `.rs` file under
/// `src/` and `crates/*/src`.
fn library_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "the scan found the workspace: {files:?}");
    files
        .into_iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (rel, std::fs::read_to_string(&file).unwrap())
        })
        .collect()
}

/// A library file up to its unit-test module.
fn before_unit_tests(text: &str) -> &str {
    text.split("#[cfg(test)]\nmod ").next().unwrap()
}

#[test]
fn library_sources_never_read_the_environment() {
    for (file, text) in library_sources() {
        for banned in ["env::var", "COLOSSAL_"] {
            assert!(
                !text.contains(banned),
                "{file} contains {banned:?}: knobs are config keys and setters only"
            );
        }
    }
}

/// The rank executor is the only owner of host cores: outside its own file
/// no library code (a file up to its unit-test module) starts a thread.
#[test]
fn only_the_world_executor_starts_threads() {
    for (file, text) in library_sources() {
        if file == "crates/comm/src/world.rs" {
            continue;
        }
        let library = before_unit_tests(&text);
        for banned in ["thread::spawn", "thread::Builder", "thread::scope"] {
            assert!(
                !library.contains(banned),
                "{file} contains {banned:?}: parallel work is a task of the world executor"
            );
        }
    }
}

/// Every kernel has one arithmetic (DESIGN.md §13): no library code fuses a
/// multiply-add, compiles a function for the `fma` target feature or reads
/// a numeric mode. The names are assembled from pieces so that this file
/// passes the same scan.
#[test]
fn library_kernels_have_one_arithmetic() {
    let banned = [
        ["mul", "_add"].concat(),
        ["\"avx2,", "fma\""].concat(),
        ["fast", "_mode"].concat(),
    ];
    for (file, text) in library_sources() {
        let library = before_unit_tests(&text);
        for b in &banned {
            assert!(
                !library.contains(b.as_str()),
                "{file} contains {b:?}: a kernel has one arithmetic, not a mode beside it"
            );
        }
    }
}

/// Overlap is a rule, not an option: the engine overlaps the gradient
/// reduce with the backward whenever it has a data-parallel group and no
/// accumulation, and no library type offers a switch beside that rule. The
/// name is assembled from pieces so that a search of the sources for it
/// comes back empty.
#[test]
fn no_library_type_switches_overlap() {
    let banned = ["with", "_overlap"].concat();
    for (file, text) in library_sources() {
        assert!(
            !before_unit_tests(&text).contains(banned.as_str()),
            "{file} contains {banned:?}: the backward overlaps the reduce whenever there is \
             a data-parallel group and no accumulation (a blocking reduce is a plain \
             backward followed by `GradReducer::reduce`)"
        );
    }
}

/// `crates/memory` re-exports nothing the rest of the repository does not
/// use: every name on its `pub use` lines is an identifier of some `.rs`
/// file outside the crate that also names the crate. A second parameter
/// store grew there once with no caller but its own bench.
#[test]
fn memory_exports_are_all_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lib = std::fs::read_to_string(root.join("crates/memory/src/lib.rs")).unwrap();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let exports: Vec<&str> = lib
        .split(';')
        .filter_map(|stmt| stmt.trim().strip_prefix("pub use "))
        .flat_map(|path| path.rsplit("::").next().unwrap().split(','))
        .map(|name| name.trim_matches(|c| !is_ident(c)))
        .collect();
    assert!(exports.contains(&"OffloadPlan"), "parsed {exports:?}");

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let users: Vec<String> = files
        .iter()
        .filter(|file| !file.starts_with(root.join("crates/memory")))
        .map(|file| std::fs::read_to_string(file).unwrap())
        .filter(|text| text.contains("colossalai_memory") || text.contains("colossalai::memory"))
        .collect();
    for name in exports {
        let names_it = |text: &String| text.split(|c| !is_ident(c)).any(|word| word == name);
        assert!(
            users.iter().any(names_it),
            "colossalai_memory::{name} has no user outside crates/memory"
        );
    }
}

/// The lines of `text` a caller can be on: no comment and no `pub use`
/// statement (a re-export names a function without calling it).
fn code_lines(text: &str) -> Vec<&str> {
    let mut in_reexport = false;
    text.lines()
        .filter(|line| {
            let line = line.trim_start();
            if line.starts_with("pub use ") {
                in_reexport = true;
            }
            let keep = !in_reexport && !line.starts_with("//");
            if in_reexport && line.contains(';') {
                in_reexport = false;
            }
            keep
        })
        .collect()
}

/// Every `pub fn` of a library file (up to its unit-test module) has a
/// caller: its name is a word of a code line in another `.rs` file of the
/// workspace, its benches and tests, the examples or `benchmark/src`, or of
/// a second code line of its own library part. A function that only its own
/// unit tests call is dead API, and goes with the tests that held it.
#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut files);
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        for dir in ["src", "benches", "tests"] {
            if krate.join(dir).is_dir() {
                rust_sources(&krate.join(dir), &mut files);
            }
        }
    }
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let words = |line: &str| -> BTreeSet<String> {
        line.split(|c| !is_ident(c))
            .filter(|w| !w.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let texts: Vec<(std::path::PathBuf, String)> = files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file).unwrap();
            (file, text)
        })
        .collect();
    // per file: the words of all its code lines, once
    let file_words: Vec<BTreeSet<String>> = texts
        .iter()
        .map(|(_, text)| code_lines(text).into_iter().flat_map(words).collect())
        .collect();

    let mut dead = Vec::new();
    let mut checked = 0;
    for (i, (file, text)) in texts.iter().enumerate() {
        let rel = file.strip_prefix(root).unwrap().to_string_lossy();
        if !(rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))) {
            continue;
        }
        let lines = code_lines(before_unit_tests(text));
        let own: Vec<BTreeSet<String>> = lines.iter().map(|line| words(line)).collect();
        for line in &lines {
            let line = line.trim_start();
            let Some(rest) = line
                .strip_prefix("pub fn ")
                .or_else(|| line.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            checked += 1;
            let in_own = own.iter().filter(|words| words.contains(&name)).count() > 1;
            let elsewhere = file_words
                .iter()
                .enumerate()
                .any(|(j, words)| j != i && words.contains(&name));
            if !in_own && !elsewhere {
                dead.push(format!("{rel}: {name}"));
            }
        }
    }
    assert!(
        checked > 300,
        "the scan found the public functions: {checked}"
    );
    assert!(
        dead.is_empty(),
        "{} public functions have no caller outside their unit tests:\n{}",
        dead.len(),
        dead.join("\n")
    );
}

/// Lines naming `unsafe`, per file: the list a Miri leg has to cover
/// (ROADMAP item 4). A new site changes this table in the same PR.
#[test]
fn unsafe_census_is_pinned_per_file() {
    const CENSUS: [(&str, usize); 2] = [
        ("crates/tensor/src/kernel.rs", 2),
        ("crates/comm/src/world.rs", 1),
    ];
    for (file, text) in library_sources() {
        let want = CENSUS.iter().find(|(f, _)| *f == file).map_or(0, |c| c.1);
        let got = text.lines().filter(|l| l.contains("unsafe")).count();
        assert_eq!(got, want, "{file}: lines naming `unsafe`");
    }
}

/// One test, so nothing else in this process has touched a setter before
/// the defaults are read.
#[test]
fn defaults_hold_and_a_default_initialize_moves_no_setter() {
    assert_eq!(Config::default().compression(), Compression::None);
    assert_eq!(Config::from_json("{}").unwrap(), Config::default());
    // the thread budget and the fast numeric mode are gone, not ignored
    let err = Config::from_json(r#"{"compute":{"threads":2}}"#).unwrap_err();
    assert!(err.contains("compute.threads"), "{err}");
    let err = Config::from_json(r#"{"compute":{"fast":true}}"#).unwrap_err();
    let key = ["compute", "fast"].join(".");
    assert_eq!(err, format!("unknown key {key:?}"));
    // the backward always overlaps the data-parallel reduce, so its switch
    // is gone too
    let err = Config::from_json(r#"{"comm":{"overlap":false}}"#).unwrap_err();
    let key = ["comm", "overlap"].join(".");
    assert_eq!(err, format!("unknown key {key:?}"));
    // the storage pool is on: a recycled buffer comes straight back
    let hits = pool::stats().hits;
    pool::recycle(pool::take_buffer(100_003));
    pool::recycle(pool::take_buffer(100_003));
    assert!(pool::stats().hits > hits);
    // an unpinned world runs one slot per host core
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let world = World::new(system_i());
    assert_eq!(world.backend(), WorldBackend::Stackless { pool: cores });

    world.run_on(1, |ctx| {
        let model = Linear::from_rng("l", 4, 3, true, &mut init::rng(7));
        let opt = OptimizerSpec::Sgd {
            lr: 0.1,
            momentum: 0.9,
        };
        let _engine = initialize(ctx, &Config::default(), 1, Box::new(model), opt);
    });
    assert_eq!(world.backend(), WorldBackend::Stackless { pool: cores });
}
