//! The knob surface cannot grow back: runtime behaviour changes through
//! `Config → initialize()` and the one setter each key lands on, never
//! through the process environment, and every default is pinned here. So
//! are the things the retired intra-op pool and fast numeric mode took with
//! them: threads spawned outside the world executor, a second arithmetic
//! beside each kernel, and 14 of the 17 `unsafe` sites. Nor can a switch
//! that turns the overlapped gradient reduce off, a whole-model activation
//! checkpoint, or a per-call wire width. The API surface cannot grow back
//! either: every public function has a caller.

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

/// Every kernel has one arithmetic (DESIGN.md §13): no library code reads
/// a numeric mode, and a fused multiply-add is *the* arithmetic of the one
/// file whose kernels are defined by it, the ports of glibc's FMA builds of
/// `logf` / `cosf` (`libm.rs`), on every lane arm. Only the lane entry
/// (`kernel.rs`) compiles a function for the `fma` target feature. The
/// names are assembled from pieces so that this file passes the same scan.
#[test]
fn library_kernels_have_one_arithmetic() {
    let banned = [
        (["mul", "_add"].concat(), "crates/tensor/src/libm.rs"),
        (["\"avx2,", "fma\""].concat(), "crates/tensor/src/kernel.rs"),
        (["fast", "_mode"].concat(), ""),
    ];
    for (file, text) in library_sources() {
        let library = before_unit_tests(&text);
        for (b, only_in) in &banned {
            assert!(
                file == *only_in || !library.contains(b.as_str()),
                "{file} contains {b:?}: a kernel has one arithmetic, not a mode beside it"
            );
        }
    }
}

/// One gradient front end: no library file names the per-layer gradient
/// sync the reducer replaced, the replica groups a caller once fetched for
/// it or the p-aligned planner ZeRO once had beside the one that reads the
/// mark, `Param::replicas` is set only by the two modes that
/// replicate parameters across rows (sequence and mesh parallelism, when
/// they build a layer, naming the groups that sum them), and only the
/// bucketed reducer reads it — ZeRO reaches it only through the planner.
/// The retired names are assembled from pieces so that a search of the
/// sources for them comes back empty.
#[test]
fn one_gradient_front_end_reads_the_replica_mark() {
    let retired = [
        ["Grad", "Sync"].concat(),
        ["grad", "_sync"].concat(),
        ["replica", "_groups"].concat(),
        ["element", "_ranges"].concat(),
    ];
    let setters = [
        "crates/parallel/src/sequence.rs",
        "crates/parallel/src/mesh.rs",
    ];
    let mut users = BTreeSet::new();
    for (file, text) in library_sources() {
        for name in &retired {
            assert!(!text.contains(name.as_str()), "{file} names {name:?}");
        }
        if file == "crates/autograd/src/param.rs" {
            continue;
        }
        for line in code_lines(before_unit_tests(&text)) {
            if line.contains(".replicas = ") {
                assert!(
                    setters.contains(&file.as_str()),
                    "{file} marks a parameter: {line}"
                );
            } else if line.contains(".replicas") {
                assert_eq!(
                    file, "crates/parallel/src/bucket.rs",
                    "reads the mark: {line}"
                );
            } else {
                continue;
            }
            users.insert(file.clone());
        }
    }
    assert_eq!(
        users.len(),
        3,
        "each of the three files uses the mark: {users:?}"
    );
}

/// One ZeRO-3 protocol: a stage-3 step ends by releasing the parameters
/// inside `ZeroOptimizer`, and everything else only gathers them
/// (`materialize_params`, which the engine calls before the next read). No
/// library file but `zero.rs` may release, so no second protocol with its
/// own release point can grow in the engine. The name is assembled from
/// pieces so that a search of the sources for it finds only its owner.
#[test]
fn only_zero_releases_parameters() {
    let release = ["release", "_params("].concat();
    let mut owners = Vec::new();
    for (file, text) in library_sources() {
        if text.contains(release.as_str()) {
            owners.push(file);
        }
    }
    assert_eq!(owners, ["crates/parallel/src/zero.rs"]);
}

/// One AdamW: ZeRO steps its master shards with the dense optimizer's
/// `AdamW::step_tensors`, so no library file but `optim.rs` runs an
/// optimizer's element-wise update itself, with state and hyperparameters
/// of its own beside `AdamW`'s. The names are assembled from pieces so that
/// a search of the sources for them finds only their owner.
#[test]
fn only_the_optimizers_run_their_updates() {
    let kernels = [
        ["adamw", "_update("].concat(),
        ["sgd_momentum", "_update("].concat(),
    ];
    for (file, text) in library_sources() {
        for kernel in &kernels {
            assert!(
                file == "crates/autograd/src/optim.rs" || !text.contains(kernel.as_str()),
                "{file} calls {kernel:?}: step the tensors through `AdamW` / `Sgd`"
            );
        }
    }
}

/// Overlap is a rule, not an option: the engine overlaps the gradient
/// reduce with the backward whenever it has a gradient reducer and no
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
             a gradient reducer and no accumulation (a blocking reduce is a plain \
             backward followed by `GradReducer::reduce`)"
        );
    }
}

/// No whole-model activation checkpoint: no library code line (up to its
/// unit-test module, `pub use` re-exports aside) outside `checkpoint.rs`
/// names `Checkpoint`. A checkpoint around the whole model recomputes every
/// activation at the start of backward and lowers no peak; the wrapper comes
/// back into library code only around each block.
#[test]
fn only_checkpoint_rs_names_the_checkpoint_wrapper() {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    for (file, text) in library_sources() {
        if file == "crates/autograd/src/checkpoint.rs" {
            continue;
        }
        for line in code_lines(before_unit_tests(&text)) {
            assert!(
                !line.split(|c| !is_ident(c)).any(|w| w == "Checkpoint"),
                "{file} names `Checkpoint`: {line:?}"
            );
        }
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
/// caller outside that file: its name is a word of a code line in another
/// `.rs` file of the workspace, its benches and tests, the examples or
/// `benchmark/src`. A function that only its own unit tests call is dead
/// API, and goes with the tests that held it; one that only its own file
/// calls is private.
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
        for line in code_lines(before_unit_tests(text)) {
            let line = line.trim_start();
            let Some(rest) = line
                .strip_prefix("pub fn ")
                .or_else(|| line.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            checked += 1;
            let elsewhere = file_words
                .iter()
                .enumerate()
                .any(|(j, words)| j != i && words.contains(&name));
            if !elsewhere {
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
        "{} public functions have no caller outside their own file:\n{}",
        dead.len(),
        dead.join("\n")
    );
}

/// Whether `line` spells `Op::<variant>` as a path of its own (as
/// `Step::Op(Op::AllGather { dim })` does; not the tail of a longer type
/// name such as `CollectiveOp::`, not a longer variant name).
fn names_op(line: &str, variant: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let path = format!("Op::{variant}");
    line.match_indices(&path).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + path.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Every collective `Op` can name is one the models, the engine, a bench or
/// a benchmark workload issues: each variant is spelled `Op::<variant>`, or
/// its `Group` wrapper is called, on a code line of a non-test file outside
/// `group.rs` — a library file up to its unit-test module, a bench, an
/// example or `benchmark/src`. A wrapper whose name some other library
/// function also has (`FlatLayout`'s `scatter`) cannot be told apart by a
/// word scan, so only the `Op::` spelling counts for it.
#[test]
fn every_collective_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let ident = |s: &str| -> String { s.chars().take_while(|&c| is_ident(c)).collect() };
    let group_text = std::fs::read_to_string(root.join("crates/comm/src/group.rs")).unwrap();
    let group = before_unit_tests(&group_text);

    let enum_body = group.split("pub enum Op {").nth(1).unwrap();
    let enum_body = enum_body.split("\n}").next().unwrap();
    let variants: Vec<String> = code_lines(enum_body)
        .into_iter()
        .map(str::trim_start)
        .filter(|line| line.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(ident)
        .collect();
    assert!(
        variants.iter().any(|v| v == "AllReduce"),
        "parsed {variants:?}"
    );

    // (variant, wrapper): each `pub fn` whose body hands `Op::<variant>` to
    // `self.collective` or `self.start`
    let mut wrappers = Vec::new();
    let mut current = String::new();
    for line in code_lines(group) {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("pub fn ") {
            current = ident(rest);
        }
        if line.contains("self.collective(") || line.contains("self.start(") {
            for v in variants.iter().filter(|v| names_op(line, v)) {
                wrappers.push((v.clone(), current.clone()));
            }
        }
    }
    assert!(
        wrappers.iter().any(|(_, w)| w == "all_gather_cat"),
        "parsed {wrappers:?}"
    );

    let mut files = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut files);
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        for dir in ["src", "benches"] {
            if krate.join(dir).is_dir() {
                rust_sources(&krate.join(dir), &mut files);
            }
        }
    }
    let texts: Vec<(String, String)> = files
        .into_iter()
        .filter(|file| !file.ends_with("crates/comm/src/group.rs"))
        .map(|file| {
            let rel = file.strip_prefix(root).unwrap().to_string_lossy();
            let text = std::fs::read_to_string(&file).unwrap();
            let is_library = rel.starts_with("src/") || rel.contains("/src/");
            let text = if is_library && !rel.starts_with("benchmark/") {
                before_unit_tests(&text).to_owned()
            } else {
                text
            };
            (rel.into_owned(), text)
        })
        .collect();
    let defined_elsewhere = |name: &str| {
        let def = format!("fn {name}(");
        texts.iter().any(|(rel, text)| {
            !rel.starts_with("benchmark/") && code_lines(text).iter().any(|l| l.contains(&def))
        })
    };
    let lines: Vec<&str> = texts
        .iter()
        .flat_map(|(_, text)| code_lines(text))
        .collect();

    let mut uncalled = Vec::new();
    for v in &variants {
        let calls: Vec<String> = wrappers
            .iter()
            .filter(|(of, w)| of == v && !defined_elsewhere(w))
            .map(|(_, w)| format!(".{w}("))
            .collect();
        let issued = lines
            .iter()
            .any(|line| names_op(line, v) || calls.iter().any(|c| line.contains(c.as_str())));
        if !issued {
            uncalled.push(format!("Op::{v}"));
        }
    }
    assert!(
        uncalled.is_empty(),
        "collectives no model, engine, bench or benchmark workload issues \
         (delete them with their tests): {}",
        uncalled.join(", ")
    );
}

/// Compute reaches a rank's clock one way: the kernels meter their FLOPs
/// and the clock prices them (DESIGN.md §7). No library code wraps a layer
/// in hand-picked seconds or charges FLOPs beside the meter, and outside
/// the world itself only the offload plan advances a clock — by PCIe legs
/// and host CPU Adam, which are not GPU compute. The retired names are
/// assembled from pieces so that a search of the sources comes back empty.
#[test]
fn compute_reaches_the_clock_only_through_the_meter() {
    let retired = [["Timed", "Layer"].concat(), ["charge", "_flops"].concat()];
    let mut advancers = Vec::new();
    for (file, text) in library_sources() {
        let library = before_unit_tests(&text);
        for name in &retired {
            assert!(
                !library.contains(name.as_str()),
                "{file} names {name:?}: compute is what the kernels meter"
            );
        }
        if file != "crates/comm/src/world.rs" && library.contains(".advance(") {
            advancers.push(file);
        }
    }
    assert_eq!(advancers, ["crates/memory/src/offload.rs"]);
}

/// Every payload is f32 and bills 4 bytes per element: a collective is
/// `{ op, stream }` and a send has one width. No library code names the
/// retired per-call width type or the send that took one. The retired
/// names are assembled from pieces so that a search of the sources comes
/// back empty.
#[test]
fn one_wire_width_bills_every_payload() {
    let retired = [["Wi", "re"].concat(), ["send", "_wire"].concat()];
    for (file, text) in library_sources() {
        let library = before_unit_tests(&text);
        let mut words = library.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        if let Some(name) = words.find(|w| retired.iter().any(|r| r == w)) {
            panic!("{file} names {name:?}: every payload bills 4 bytes per element");
        }
    }
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
    // gradients always cross the wire exact: the lossy channels and their
    // key are gone
    let err = Config::from_json(r#"{"comm":{"compress":"int8"}}"#).unwrap_err();
    let key = ["comm", "compress"].join(".");
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
