//! The knob surface cannot grow back: runtime behaviour changes through
//! `Config → initialize()` and the one setter each key lands on, never
//! through the process environment, and every default is pinned here.

use colossalai::comm::compress::Compression;
use colossalai::comm::{World, WorldBackend};
use colossalai::core::{initialize, Config, OptimizerSpec};
use colossalai::tensor::{
    fast_mode, init, kernel_threads, par, pool, set_fast_mode, set_kernel_threads,
};
use colossalai::topology::systems::system_i;
use colossalai_autograd::Linear;
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

#[test]
fn library_sources_never_read_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "the scan found the workspace: {files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for banned in ["env::var", "COLOSSAL_"] {
            assert!(
                !text.contains(banned),
                "{} contains {banned:?}: knobs are config keys and setters only",
                file.display()
            );
        }
    }
}

/// One test, so nothing else in this process has touched a setter before
/// the defaults are read.
#[test]
fn defaults_hold_and_a_default_initialize_moves_no_setter() {
    assert_eq!(kernel_threads(), 1);
    assert!(!fast_mode());
    assert_eq!(par::par_cutoff(), 32 * 1024);
    assert_eq!(colossalai::tensor::kernel::PAR_FLOP_CUTOFF, 64 * 64 * 64);
    assert_eq!(Config::default().compression(), Compression::None);
    assert_eq!(Config::from_json("{}").unwrap(), Config::default());
    // the storage pool is on: a recycled buffer comes straight back
    let hits = pool::stats().hits;
    pool::recycle(pool::take_buffer(100_003));
    pool::recycle(pool::take_buffer(100_003));
    assert!(pool::stats().hits > hits);
    // an unpinned world runs one slot per host core
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let world = World::new(system_i());
    assert_eq!(world.backend(), WorldBackend::Stackless { pool: cores });

    for (threads, fast) in [(3, true), (1, false)] {
        set_kernel_threads(threads);
        set_fast_mode(fast);
        world.run_on(1, |ctx| {
            let model = Linear::from_rng("l", 4, 3, true, &mut init::rng(7));
            let opt = OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.9,
            };
            let _engine = initialize(ctx, &Config::default(), 1, Box::new(model), opt);
        });
        assert_eq!((kernel_threads(), fast_mode()), (threads, fast));
    }
}
