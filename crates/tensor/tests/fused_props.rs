//! Bitwise-equivalence properties for the fused/in-place kernels: every
//! fused path must produce *exactly* the bits of its composed counterpart
//! (same per-element arithmetic in the same order), on random shapes
//! including ragged rows that exercise the vectorized kernels' scalar
//! tails.

use colossalai_tensor::ops::{
    add_bias_gelu, gelu, gelu_backward, gelu_backward_cached, gelu_grad, gelu_with_tanh, layernorm,
    layernorm_backward, layernorm_fused, softmax, softmax_backward, sum_axis0_acc,
};
use colossalai_tensor::{
    axpy_slices, init, matmul_at, matmul_at_acc, matmul_at_store, scale_slice, Tensor,
};
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
        let (h, y, t) = add_bias_gelu(x.clone(), &bias);
        assert_eq!(h.data(), composed_h.data());
        assert_eq!(y.data(), composed_y.data());
        // the unfused layer's forward keeps the same tanh
        let (layer_y, layer_t) = gelu_with_tanh(&composed_h);
        assert_eq!(layer_y.data(), composed_y.data());
        assert_eq!(layer_t.data(), t.data());
        // backward identity: dh = gelu'(h) * dy, whether tanh is the
        // forward's or evaluated again
        let dy = tensor(rows, cols, seed + 2);
        let cached_dh = gelu_backward_cached(&h, &t, &dy);
        let composed_dh = gelu_grad(&composed_h).zip(&dy, |g, d| g * d);
        assert_eq!(cached_dh.data(), gelu_backward(&h, &dy).data());
        assert_eq!(cached_dh.data(), composed_dh.data());
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
fn matmul_at_store_equals_accumulating_into_zeros() {
    // a cleared gradient's stale buffer, overwritten: the bits of the
    // fused accumulation into a zeroed one, shallow and deeper than KC
    for case in 0..32 {
        let mut draw = init::rng(100 + case);
        let k = if case == 0 {
            600
        } else {
            draw.gen_range(1usize..40)
        };
        let m = draw.gen_range(1usize..24);
        let n = draw.gen_range(1usize..24);
        let seed = draw.gen_range(0u64..1000);
        let a = tensor(k, m, seed);
        let b = tensor(k, n, seed + 1);
        let mut acc = Tensor::zeros([m, n]);
        matmul_at_acc(&a, &b, &mut acc);
        let mut stored = Tensor::full([m, n], f32::NAN);
        matmul_at_store(&a, &b, &mut stored);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stored), bits(&acc), "k {k}, m {m}, n {n}");
    }
}

#[test]
fn sum_axis0_acc_matches_the_column_walk() {
    // the loop `sum_axis0_acc` replaced: one column at a time, reduced in a
    // register, added to the live gradient once
    fn column_walk(x: &Tensor, out: &mut Tensor) {
        let (rows, n) = (x.dims()[0], x.dims()[1]);
        let src = x.data();
        for (j, o) in out.data_mut().iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for r in 0..rows {
                acc += src[r * n + j];
            }
            *o += acc;
        }
    }
    for case in 0..64 {
        let mut draw = init::rng(case);
        // past 64 columns the accumulator row is a pooled buffer
        let rows = draw.gen_range(0usize..40);
        let n = draw.gen_range(1usize..150);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, n, seed);
        let g0 = row(n, seed + 1);
        let mut want = g0.clone();
        column_walk(&x, &mut want);
        let mut got = g0;
        sum_axis0_acc(&x, &mut got);
        assert_eq!(got.data(), want.data());
    }
}

#[test]
fn layernorm_backward_matches_the_per_element_loop() {
    // the loop `layernorm_backward` replaced, writing through `data_mut()`
    // element by element
    fn per_element(
        x: &Tensor,
        dy: &Tensor,
        gamma: &Tensor,
        means: &[f32],
        inv_stds: &[f32],
    ) -> (Tensor, Tensor, Tensor) {
        let n = *x.dims().last().unwrap();
        let rows = x.numel() / n;
        let mut dx = Tensor::zeros(x.shape().clone());
        let mut dgamma = Tensor::zeros([n]);
        let mut dbeta = Tensor::zeros([n]);
        for r in 0..rows {
            let x_row = &x.data()[r * n..(r + 1) * n];
            let dy_row = &dy.data()[r * n..(r + 1) * n];
            let mean = means[r];
            let inv_std = inv_stds[r];
            let mut sum_dy_g = 0.0f32;
            let mut sum_dy_g_xhat = 0.0f32;
            for i in 0..n {
                let xhat = (x_row[i] - mean) * inv_std;
                let dyg = dy_row[i] * gamma.data()[i];
                sum_dy_g += dyg;
                sum_dy_g_xhat += dyg * xhat;
                dgamma.data_mut()[i] += dy_row[i] * xhat;
                dbeta.data_mut()[i] += dy_row[i];
            }
            let dx_row = &mut dx.data_mut()[r * n..(r + 1) * n];
            for i in 0..n {
                let xhat = (x_row[i] - mean) * inv_std;
                let dyg = dy_row[i] * gamma.data()[i];
                dx_row[i] = inv_std * (dyg - sum_dy_g / n as f32 - xhat * sum_dy_g_xhat / n as f32);
            }
        }
        (dx, dgamma, dbeta)
    }
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..12);
        let cols = draw.gen_range(1usize..70);
        let seed = draw.gen_range(0u64..1000);
        let x = tensor(rows, cols, seed);
        let dy = tensor(rows, cols, seed + 1);
        let gamma = row(cols, seed + 2);
        let (_, means, inv_stds) = layernorm_fused(&x, &gamma, &row(cols, seed + 3), 1e-5);
        // a [b, s, d] input takes the same rows
        for shape in [vec![rows, cols], vec![1, rows, cols]] {
            let (x, dy) = (x.reshape(shape.clone()), dy.reshape(shape));
            let want = per_element(&x, &dy, &gamma, &means, &inv_stds);
            let got = layernorm_backward(&x, &dy, &gamma, &means, &inv_stds);
            assert_eq!(got.0.data(), want.0.data(), "dx");
            assert_eq!(got.0.shape(), x.shape());
            assert_eq!(got.1.data(), want.1.data(), "dgamma");
            assert_eq!(got.2.data(), want.2.data(), "dbeta");
        }
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
