//! Bitwise-equivalence properties for the fused/in-place kernels: every
//! fused path must produce *exactly* the bits of its composed counterpart
//! (same per-element arithmetic in the same order), on random shapes
//! including ragged rows that exercise the vectorized kernels' scalar
//! tails.

use colossalai_tensor::ops::{
    add_bias_gelu, add_bias_gelu_backward, gelu, gelu_grad, layernorm, layernorm_fused, softmax,
    softmax_backward, sum_axis, sum_axis0_acc,
};
use colossalai_tensor::{axpy_slices, init, matmul_at, matmul_at_acc, scale_slice, Tensor};
use rand::Rng;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = init::rng(seed);
    init::uniform([rows, cols], -2.0, 2.0, &mut rng)
}

fn row(cols: usize, seed: u64) -> Tensor {
    let mut rng = init::rng(seed);
    init::uniform([cols], -1.0, 1.0, &mut rng)
}

#[test]
fn matmul_at_acc_deep_k_falls_back_bitwise() {
    // k > KC (512): a single k-block no longer covers the reduction, so the
    // fused path must take the composed fallback — still bitwise-identical.
    let (k, m, n) = (600, 3, 5);
    let a = tensor(k, m, 42);
    let b = tensor(k, n, 43);
    let g0 = tensor(m, n, 44);
    let mut composed = g0.clone();
    composed.axpy(1.0, &matmul_at(&a, &b));
    let mut fused = g0;
    matmul_at_acc(&a, &b, &mut fused);
    assert_eq!(fused.data(), composed.data());
}

#[test]
fn add_bias_gelu_matches_composed() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..8);
        let cols = draw.gen_range(1usize..20);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, cols, seed);
        let bias = row(cols, seed + 1);
        let composed_h = x.add_bias(&bias);
        let composed_y = gelu(&composed_h);
        let (h, y) = add_bias_gelu(x.clone(), &bias);
        assert_eq!(h.data(), composed_h.data());
        assert_eq!(y.data(), composed_y.data());
        // backward identity: dh = gelu'(h) * dy
        let dy = tensor(rows, cols, seed + 2);
        let fused_dh = add_bias_gelu_backward(&h, &dy);
        let composed_dh = gelu_grad(&composed_h).zip(&dy, |g, d| g * d);
        assert_eq!(fused_dh.data(), composed_dh.data());
    }
}

#[test]
fn layernorm_fused_matches_composed() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..8);
        let cols = draw.gen_range(1usize..20);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, cols, seed);
        let gamma = row(cols, seed + 1);
        let beta = row(cols, seed + 2);
        let (y0, m0, s0) = layernorm(&x, &gamma, &beta, 1e-5);
        let (y1, m1, s1) = layernorm_fused(&x, &gamma, &beta, 1e-5);
        assert_eq!(y1.data(), y0.data());
        assert_eq!(m1, m0);
        assert_eq!(s1, s0);
    }
}

#[test]
fn softmax_inplace_matches_reference() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..6);
        let cols = draw.gen_range(1usize..16);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, cols, seed);
        // independent composed reference (max, exp, sum, divide)
        let mut want = x.data().to_vec();
        for r in want.chunks_mut(cols) {
            let m = r.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in r.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in r.iter_mut() {
                *v *= inv;
            }
        }
        let y = softmax(&x);
        assert_eq!(y.data(), &want[..]);
        // in-place backward == composed reference
        let dy = tensor(rows, cols, seed + 3);
        let dx = softmax_backward(&y, &dy);
        let mut want_dx = dy.data().to_vec();
        for (d_row, y_row) in want_dx.chunks_mut(cols).zip(y.data().chunks(cols)) {
            let s: f32 = d_row.iter().zip(y_row.iter()).map(|(&d, &v)| d * v).sum();
            for (d, &v) in d_row.iter_mut().zip(y_row.iter()) {
                *d = v * (*d - s);
            }
        }
        assert_eq!(dx.data(), &want_dx[..]);
    }
}

#[test]
fn matmul_at_acc_matches_composed() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let k = draw.gen_range(1usize..40);
        let m = draw.gen_range(1usize..24);
        let n = draw.gen_range(1usize..24);
        let seed = draw.gen_range(0u64..1000);
        // a: [k, m], b: [k, n], grad: [m, n] with live (nonzero) contents —
        // the fused in-place accumulation must reproduce the composed
        // temp-then-axpy path bit for bit. The ranges cross the kernel's
        // small-GEMM cutoff so both dispatch arms are exercised.
        let a = tensor(k, m, seed);
        let b = tensor(k, n, seed + 1);
        let g0 = tensor(m, n, seed + 2);
        let mut composed = g0.clone();
        composed.axpy(1.0, &matmul_at(&a, &b));
        let mut fused = g0;
        matmul_at_acc(&a, &b, &mut fused);
        assert_eq!(fused.data(), composed.data());
    }
}

#[test]
fn sum_axis0_acc_matches_composed() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..20);
        let n = draw.gen_range(1usize..24);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, n, seed);
        let g0 = row(n, seed + 1);
        let mut composed = g0.clone();
        composed.axpy(1.0, &sum_axis(&x, 0));
        let mut fused = g0;
        sum_axis0_acc(&x, &mut fused);
        assert_eq!(fused.data(), composed.data());
    }
}

#[test]
fn chunked_axpy_and_scale_match_scalar_loops() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let n = draw.gen_range(1usize..300);
        let alpha = draw.gen_range(-2.0f32..2.0);
        let s = draw.gen_range(-2.0f32..2.0);
        let seed = draw.gen_range(0u64..1000);
        let mut rng = init::rng(seed);
        let src = init::uniform([n], -1.0, 1.0, &mut rng);
        let dst0 = init::uniform([n], -1.0, 1.0, &mut rng);
        let mut want = dst0.data().to_vec();
        for (a, &b) in want.iter_mut().zip(src.data().iter()) {
            *a += alpha * b;
        }
        let mut got = dst0.data().to_vec();
        axpy_slices(&mut got, alpha, src.data());
        assert_eq!(&got[..], &want[..]);
        let mut want2 = got.clone();
        for v in want2.iter_mut() {
            *v *= s;
        }
        scale_slice(&mut got, s);
        assert_eq!(&got[..], &want2[..]);
    }
}
