//! Fast-mode numeric properties: the opt-in FMA kernels must stay
//! within *explicit ULP budgets* of the deterministic defaults, and the
//! determinism guarantees (run to run, fused == composed) must hold *within*
//! each mode.
//!
//! Budget derivation (DESIGN.md §13):
//! * FMA GEMM vs deterministic GEMM: both accumulate `k` products left to
//!   right; each rounding step contributes at most one half-ULP of the
//!   running magnitude, which is bounded by `absdot = Σ|a_i||b_i|`. The two
//!   modes differ by at most the sum of both accumulation error bounds,
//!   `(2k + 4)` ULPs measured at `absdot` (the `+4` covers the final
//!   store/writeback roundings on both sides).
//!
//! Toggling `set_fast_mode` is process-global, so every test here holds one
//! mutex and restores the deterministic default before releasing it. Tests
//! in other binaries run in separate processes and are unaffected.

use std::sync::Mutex;

use colossalai_tensor::ops::{
    add_bias_gelu, gelu, gelu_backward, gelu_backward_cached, gelu_grad, gelu_with_tanh, layernorm,
    layernorm_fused,
};
use colossalai_tensor::{fast_mode, init, matmul, matmul_at, matmul_at_acc, set_fast_mode, Tensor};
use rand::Rng;

static FAST_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once in deterministic mode and once in fast mode, restoring the
/// deterministic default, all under the toggle lock.
fn with_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_fast_mode(false);
    let det = f();
    set_fast_mode(true);
    let fast = f();
    set_fast_mode(false);
    (det, fast)
}

/// Runs `f` with fast mode pinned on, restoring the deterministic default.
fn in_fast<T>(f: impl FnOnce() -> T) -> T {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_fast_mode(true);
    let out = f();
    set_fast_mode(false);
    out
}

/// Spacing between adjacent floats with `mant_bits` stored mantissa bits at
/// magnitude `|x|` (23 → f32 ULP).
fn ulp_at(x: f32, mant_bits: i32) -> f32 {
    let mag = x.abs().max(f32::MIN_POSITIVE);
    let e = mag.log2().floor() as i32;
    2.0f32.powi(e - mant_bits)
}

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = init::rng(seed);
    init::uniform([rows, cols], -2.0, 2.0, &mut rng)
}

fn row(cols: usize, seed: u64) -> Tensor {
    let mut rng = init::rng(seed);
    init::uniform([cols], -1.0, 1.0, &mut rng)
}

/// Per-element absolute-dot bounds `Σ|a_ik||b_kj|` for `a[m,k] · b[k,n]`.
fn absdot(a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Vec<f32> {
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p].abs();
            for j in 0..n {
                out[i * n + j] += av * bd[p * n + j].abs();
            }
        }
    }
    out
}

#[test]
fn knob_roundtrip() {
    let _g = FAST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_fast_mode(true);
    assert!(fast_mode());
    set_fast_mode(false);
    assert!(!fast_mode());
}

#[test]
fn fast_gemm_within_ulp_budget_of_deterministic() {
    // Shapes straddle the small-GEMM cutoff and the KC=512 k-blocking so
    // both dispatch arms (gemm_small and the packed macrokernel) and the
    // multi-k-block reduction are exercised.
    for &(m, k, n) in &[
        (3usize, 5usize, 4usize),
        (17, 40, 9),
        (33, 130, 65),
        (8, 530, 24),
    ] {
        let a = tensor(m, k, 100 + k as u64);
        let b = tensor(k, n, 200 + k as u64);
        let (det, fast) = with_modes(|| matmul(&a, &b));
        let bound = absdot(&a, &b, m, k, n);
        let budget = (2 * k + 4) as f32;
        for ((d, f), ab) in det.data().iter().zip(fast.data()).zip(&bound) {
            let allowed = budget * ulp_at(*ab, 23);
            assert!(
                (d - f).abs() <= allowed,
                "({m},{k},{n}): |{d} - {f}| > {allowed} (absdot {ab})"
            );
        }
    }
}

#[test]
fn fast_mode_is_deterministic_run_to_run() {
    // Within fast mode the same GEMM twice must stay bitwise identical —
    // the mode trades *cross-mode* parity, never determinism.
    let (m, k, n) = (37, 65, 29);
    let a = tensor(m, k, 500);
    let b = tensor(k, n, 501);
    let (first, second) = in_fast(|| (matmul(&a, &b), matmul(&a, &b)));
    assert_eq!(first.data(), second.data());
}

#[test]
fn fused_kernels_stay_composed_identical_within_fast_mode() {
    // The bitwise fused==composed contract of fused_props.rs must survive
    // fast mode: both sides swap to the FMA forms together.
    in_fast(|| {
        for &(rows, cols) in &[(1usize, 1usize), (5, 19), (8, 33)] {
            let x = tensor(rows, cols, 600 + cols as u64);
            let bias = row(cols, 601);
            let composed_h = x.add_bias(&bias);
            let composed_y = gelu(&composed_h);
            let (h, y, t) = add_bias_gelu(x.clone(), &bias);
            assert_eq!(h.data(), composed_h.data());
            assert_eq!(y.data(), composed_y.data());
            let (layer_y, layer_t) = gelu_with_tanh(&composed_h);
            assert_eq!(layer_y.data(), composed_y.data());
            assert_eq!(layer_t.data(), t.data());
            let dy = tensor(rows, cols, 602);
            let cached_dh = gelu_backward_cached(&h, &t, &dy);
            let composed_dh = gelu_grad(&composed_h).zip(&dy, |g, d| g * d);
            assert_eq!(cached_dh.data(), gelu_backward(&h, &dy).data());
            assert_eq!(cached_dh.data(), composed_dh.data());

            let gamma = row(cols, 603);
            let beta = row(cols, 604);
            let (y0, m0, s0) = layernorm(&x, &gamma, &beta, 1e-5);
            let (y1, m1, s1) = layernorm_fused(&x, &gamma, &beta, 1e-5);
            assert_eq!(y1.data(), y0.data());
            assert_eq!(m1, m0);
            assert_eq!(s1, s0);

            let k = rows.max(2);
            let a = tensor(k, 7, 605);
            let b = tensor(k, 9, 606);
            let g0 = tensor(7, 9, 607);
            let mut composed = g0.clone();
            composed.axpy(1.0, &matmul_at(&a, &b));
            let mut fused = g0;
            matmul_at_acc(&a, &b, &mut fused);
            assert_eq!(fused.data(), composed.data());
        }
    });
}

#[test]
fn fast_gemm_budget_holds_on_random_shapes() {
    for case in 0..48 {
        let mut draw = init::rng(case);
        let m = draw.gen_range(1usize..20);
        let k = draw.gen_range(1usize..60);
        let n = draw.gen_range(1usize..20);
        let seed = draw.gen_range(0u64..1000);
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        let (det, fast) = with_modes(|| matmul(&a, &b));
        let bound = absdot(&a, &b, m, k, n);
        let budget = (2 * k + 4) as f32;
        for ((d, f), ab) in det.data().iter().zip(fast.data()).zip(&bound) {
            let allowed = budget * ulp_at(*ab, 23);
            assert!((d - f).abs() <= allowed, "|{} - {}| > {}", d, f, allowed);
        }
    }
}

#[test]
fn fast_gelu_within_budget() {
    for case in 0..48 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..6);
        let cols = draw.gen_range(1usize..24);
        let seed = draw.gen_range(0u64..1000);
        // The FMA regrouping perturbs the tanh argument by a few ULPs; tanh
        // is 1-Lipschitz and the output magnitude is bounded by |x|, so a
        // small per-element budget at max(|y|, |x|) covers it.
        let x = tensor(rows, cols, seed);
        let bias = row(cols, seed + 1);
        let (det, fast) = with_modes(|| add_bias_gelu(x.clone(), &bias));
        for ((d, f), xv) in det.1.data().iter().zip(fast.1.data()).zip(x.data()) {
            let allowed = 16.0 * ulp_at(d.abs().max(xv.abs()).max(1e-6), 23);
            assert!((d - f).abs() <= allowed, "|{} - {}| > {}", d, f, allowed);
        }
        let dy = tensor(rows, cols, seed + 2);
        let (dd, df) = with_modes(|| {
            let (h, _, t) = add_bias_gelu(x.clone(), &bias);
            gelu_backward_cached(&h, &t, &dy)
        });
        for ((d, f), dyv) in dd.data().iter().zip(df.data()).zip(dy.data()) {
            let allowed = 32.0 * ulp_at(d.abs().max(dyv.abs()).max(1e-6), 23);
            assert!((d - f).abs() <= allowed, "|{} - {}| > {}", d, f, allowed);
        }
    }
}

#[test]
fn fast_layernorm_within_budget() {
    for case in 0..48 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..6);
        let cols = draw.gen_range(2usize..32);
        let seed = draw.gen_range(0u64..1000);
        // Mean is identical (the sum is not FMA-regrouped); the variance
        // fold differs by ≤ cols fused roundings, so inv_std carries a
        // relative error of O(cols)·2⁻²⁴ into every normalized element.
        let x = tensor(rows, cols, seed);
        let gamma = row(cols, seed + 1);
        let beta = row(cols, seed + 2);
        let (det, fast) = with_modes(|| layernorm_fused(&x, &gamma, &beta, 1e-5));
        assert_eq!(&det.1, &fast.1, "means must be identical across modes");
        let scale = gamma
            .data()
            .iter()
            .chain(beta.data())
            .fold(1.0f32, |m, v| m.max(v.abs()));
        for (d, f) in det.0.data().iter().zip(fast.0.data()) {
            let allowed = (cols as f32 + 16.0) * ulp_at(d.abs().max(3.0 * scale), 23);
            assert!((d - f).abs() <= allowed, "|{} - {}| > {}", d, f, allowed);
        }
    }
}
