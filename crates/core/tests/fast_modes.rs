//! Engine/config wiring for the fast numeric mode: `compute.fast` in the
//! JSON config must flip the process-wide [`colossalai_tensor::fast_mode`]
//! knob at `initialize` time, a missing field must leave the setter's value
//! alone, and the AMP matmul helpers must be the f32 GEMM of whichever mode
//! is on.
//!
//! The knob is process-global, so every test serializes on one mutex and
//! restores the deterministic default before releasing it.

use std::sync::Mutex;

use colossalai_autograd::{Layer, Linear};
use colossalai_comm::World;
use colossalai_core::amp::{amp_matmul, amp_matmul_nd};
use colossalai_core::{initialize, Config, OptimizerSpec};
use colossalai_tensor::{fast_mode, init, matmul, matmul_nd, set_fast_mode};
use colossalai_topology::systems::system_i;

static FAST_LOCK: Mutex<()> = Mutex::new(());

fn make_model(seed: u64) -> Box<dyn Layer> {
    let mut rng = init::rng(seed);
    Box::new(Linear::from_rng("l", 4, 3, true, &mut rng))
}

fn init_with(cfg_json: &str) {
    let world = World::new(system_i());
    world.run_on(1, |ctx| {
        let cfg = Config::from_json(cfg_json).unwrap();
        let _engine = initialize(
            ctx,
            &cfg,
            1,
            make_model(7),
            OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.9,
            },
        );
    });
}

#[test]
fn compute_fast_flips_the_global_knob() {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_fast_mode(false);
    init_with(r#"{ "compute": { "fast": true } }"#);
    assert!(fast_mode(), "compute.fast=true must enable fast mode");
    init_with(r#"{ "compute": { "fast": false } }"#);
    assert!(!fast_mode(), "compute.fast=false must disable fast mode");
    // missing field: the setter's value (whatever it is) survives initialize
    set_fast_mode(true);
    init_with("{}");
    assert!(
        fast_mode(),
        "missing compute.fast must keep the setter's value"
    );
    set_fast_mode(false);
    init_with("{}");
    assert!(
        !fast_mode(),
        "missing compute.fast must keep the setter's value"
    );
}

#[test]
fn amp_matmul_is_the_f32_gemm_in_both_modes() {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = init::rng(21);
    let (m, k, n) = (6, 18, 5);
    let a = init::uniform([m, k], -1.0, 1.0, &mut rng);
    let b = init::uniform([k, n], -1.0, 1.0, &mut rng);
    let a3 = init::uniform([2, 3, k], -1.0, 1.0, &mut rng);
    for fast in [false, true] {
        set_fast_mode(fast);
        assert_eq!(amp_matmul(&a, &b).data(), matmul(&a, &b).data());
        assert_eq!(amp_matmul_nd(&a3, &b).data(), matmul_nd(&a3, &b).data());
    }
    set_fast_mode(false);
}
