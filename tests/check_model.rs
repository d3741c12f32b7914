//! `check_model` accepts exactly what runs. Under 2D (4 devices), 2.5D (8,
//! depth 2) and 3D (8), `heads`, `hidden`, `vocab` and the per-rank batch are
//! swept across the divisibility edges of each mode's cuts; at every point
//! `check_model` returns `Ok` exactly when `build_gpt` plus one forward and
//! backward runs on a `World` without a panic. A plan fuzzer over the mesh
//! modes relies on this: whatever the check lets through must run, and
//! whatever it rejects must not.

use colossalai::comm::World;
use colossalai::core::{build_gpt, check_model, Config, ZooModel};
use colossalai::models::TransformerConfig;
use colossalai::tensor::Tensor;
use colossalai::topology::systems::system_i;
use std::panic::{self, AssertUnwindSafe};

const BASE: TransformerConfig = TransformerConfig {
    layers: 1,
    hidden: 12,
    heads: 2,
    mlp_ratio: 2,
    vocab: 8,
    max_seq: 2,
};
const BATCH: usize = 8;

fn config(mode: &str, size: usize) -> Config {
    Config::from_json(&format!(
        r#"{{ "parallel": {{ "tensor": {{ "size": {size}, "mode": "{mode}", "depth": 2 }} }} }}"#
    ))
    .unwrap()
}

/// Whether `build_gpt` plus one forward and backward of a `batch`-row token
/// tensor completes on every rank.
fn runs(config: &Config, size: usize, cfg: &TransformerConfig, batch: usize) -> bool {
    let world = World::new(system_i());
    let tokens = Tensor::from_vec(
        [batch, cfg.max_seq],
        (0..batch * cfg.max_seq)
            .map(|t| (t % cfg.vocab) as f32)
            .collect(),
    );
    panic::catch_unwind(AssertUnwindSafe(|| {
        world.run_on(size, |ctx| {
            let mut net = build_gpt(ctx, config, size, cfg, 3);
            let y = net.forward(&tokens);
            let _ = net.backward(&y);
        })
    }))
    .is_ok()
}

#[test]
fn check_model_accepts_exactly_the_gpts_that_run() {
    let mut points = Vec::new();
    for heads in [1, 2, 3, 4, 6, 12] {
        points.push((TransformerConfig { heads, ..BASE }, BATCH));
    }
    for hidden in [2, 4, 6, 8, 10] {
        points.push((TransformerConfig { hidden, ..BASE }, BATCH));
    }
    for vocab in [3, 4, 5, 6] {
        points.push((TransformerConfig { vocab, ..BASE }, BATCH));
    }
    for batch in [1, 2, 3, 4, 6] {
        points.push((BASE, batch));
    }

    // the rejected points panic on purpose: keep their messages out of the
    // test output, and restore the hook before asserting
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut mismatches = Vec::new();
    let (mut accepted, mut rejected) = (0, 0);
    for (mode, size) in [("2d", 4), ("2.5d", 8), ("3d", 8)] {
        let config = config(mode, size);
        for (cfg, batch) in &points {
            let checked = check_model(&config, ZooModel::Gpt, cfg, *batch);
            if checked.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
            if checked.is_ok() != runs(&config, size, cfg, *batch) {
                mismatches.push(format!("{mode} {cfg:?} batch {batch}: {checked:?}"));
            }
        }
    }
    panic::set_hook(hook);
    assert!(
        mismatches.is_empty(),
        "check_model disagrees with the run:\n{}",
        mismatches.join("\n")
    );
    // both sides of every edge were reached
    assert!(
        accepted >= 30 && rejected >= 15,
        "{accepted} ok, {rejected} rejected"
    );
}
