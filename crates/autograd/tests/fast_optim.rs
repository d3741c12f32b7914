//! Fast-mode properties of the fused optimizer sweeps: the FMA
//! instantiations must stay within a small per-element ULP budget of the
//! deterministic forms, and within fast mode the same sweep twice must give
//! the same bits.
//!
//! `set_fast_mode` is process-global; every test serializes on one mutex
//! and restores the deterministic default before releasing it.

use std::sync::Mutex;

use colossalai_autograd::optim::{adamw_update, sgd_momentum_update};
use colossalai_tensor::{init, set_fast_mode};

static FAST_LOCK: Mutex<()> = Mutex::new(());

fn vecs(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = init::rng(seed);
    let p = init::uniform([n], -1.0, 1.0, &mut rng).data().to_vec();
    let s = init::uniform([n], -0.5, 0.5, &mut rng).data().to_vec();
    let g = init::uniform([n], -0.1, 0.1, &mut rng).data().to_vec();
    (p, s, g)
}

fn ulp_at(x: f32) -> f32 {
    let mag = x.abs().max(1e-6);
    2.0f32.powi(mag.log2().floor() as i32 - 23)
}

#[test]
fn sgd_fast_within_budget_and_deterministic() {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4097; // odd length exercises the scalar tail
    let (p0, v0, g) = vecs(n, 11);
    let steps = 5;
    let run = || {
        let (mut p, mut v) = (p0.clone(), v0.clone());
        for _ in 0..steps {
            sgd_momentum_update(&mut p, &mut v, &g, 0.01, 0.9);
        }
        (p, v)
    };
    set_fast_mode(false);
    let (dp, _) = run();
    set_fast_mode(true);
    let (fp, _) = run();
    // Each fused step replaces two roundings with one, so after `steps`
    // iterations the drift is a handful of ULPs at the *trajectory* scale
    // (the initial parameter magnitude — the final value may sit near zero).
    for ((d, f), p) in dp.iter().zip(&fp).zip(&p0) {
        let allowed = 8.0 * steps as f32 * ulp_at(d.abs().max(p.abs()).max(0.01));
        assert!((d - f).abs() <= allowed, "|{d} - {f}| > {allowed}");
    }
    // determinism within fast mode: the same sweep again, the same bits
    let (again, _) = run();
    set_fast_mode(false);
    assert_eq!(fp, again);
}

#[test]
fn adamw_fast_within_budget_and_deterministic() {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 4097;
    let (p0, g, _) = vecs(n, 23);
    let run = || {
        let mut p = p0.clone();
        let mut m = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        for t in 1..=5u64 {
            adamw_update(&mut p, &g, &mut m, &mut v, t, 1e-3, 0.9, 0.999, 1e-8, 0.01);
        }
        p
    };
    set_fast_mode(false);
    let dp = run();
    set_fast_mode(true);
    let fp = run();
    for ((d, f), p) in dp.iter().zip(&fp).zip(&p0) {
        // five steps, each fusing four roundings into the moment blends,
        // the decay term and the final update
        let allowed = 64.0 * ulp_at(d.abs().max(p.abs()).max(1e-3));
        assert!((d - f).abs() <= allowed, "|{d} - {f}| > {allowed}");
    }
    let again = run();
    set_fast_mode(false);
    assert_eq!(fp, again);
}
