//! Neural-network math kernels: activations, normalization, reductions.
//!
//! Hot paths come in two forms: the original *composed* ops (allocate a
//! fresh output per step) and *fused / in-place* variants that reuse the
//! caller's uniquely-owned buffer or draw one pooled buffer for an entire
//! 2–4-op chain. The fused variants are bitwise-identical to the composed
//! ones — same per-element arithmetic in the same order — so swapping them
//! in never perturbs the serial-equivalence contract; `tests/fused_props.rs`
//! property-tests that identity.

use crate::pool;
use crate::tensor::Tensor;

/// Numerically stable softmax over the last dimension.
pub fn softmax(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_inplace(&mut out);
    out
}

/// In-place softmax over the last dimension. On a uniquely-owned tensor
/// (e.g. attention scores just produced by `bmm_bt`) this allocates
/// nothing; [`softmax`] is exactly this after a copy-on-write clone, so the
/// two are bitwise-identical.
pub fn softmax_inplace(x: &mut Tensor) {
    assert!(x.rank() >= 1, "softmax requires rank >= 1");
    let n = *x.dims().last().unwrap();
    for row in x.data_mut().chunks_mut(n) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Backward of softmax: given `y = softmax(x)` and upstream `dy`, returns
/// `dx = y * (dy - sum(dy * y))` row-wise.
pub fn softmax_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    let mut out = dy.clone();
    softmax_backward_inplace(y, &mut out);
    out
}

/// In-place backward of softmax: overwrites `dy` with `dx`. Allocation-free
/// when `dy` is uniquely owned; bitwise-identical to [`softmax_backward`].
pub fn softmax_backward_inplace(y: &Tensor, dy: &mut Tensor) {
    assert_eq!(y.shape(), dy.shape(), "softmax_backward shape mismatch");
    let n = *y.dims().last().unwrap();
    for (dy_row, y_row) in dy.data_mut().chunks_mut(n).zip(y.data().chunks(n)) {
        let s: f32 = dy_row.iter().zip(y_row.iter()).map(|(&d, &v)| d * v).sum();
        for (d, &v) in dy_row.iter_mut().zip(y_row.iter()) {
            *d = v * (*d - s);
        }
    }
}

/// The tanh-approximated GELU used by BERT/GPT/ViT.
///
/// Fast-mode gating note (applies to every fused/composed pair in this
/// module): the composed form dispatches on the *same*
/// [`crate::kernel::fast_mode`] flag as its fused counterpart, so the
/// "fused is bitwise-identical to composed" contract of
/// `tests/fused_props.rs` holds within each mode — only *across* modes do
/// results differ (by the documented ULP budgets, DESIGN.md §13).
pub fn gelu(x: &Tensor) -> Tensor {
    if crate::kernel::fast_mode() {
        x.map(|v| gelu_from_tanh::<true>(v, gelu_tanh::<true>(v)))
    } else {
        x.map(|v| gelu_from_tanh::<false>(v, gelu_tanh::<false>(v)))
    }
}

/// `tanh` of the GELU's inner cubic: the one libm call per element. Forward
/// and backward need the same value, so the layers evaluate it once in the
/// forward pass and hand it to the backward ([`gelu_with_tanh`],
/// [`add_bias_gelu`], [`gelu_backward_cached`]).
///
/// The fast (`FMA`) form fuses the cubic's multiply-add. `f32::mul_add` is
/// correctly rounded whether it lowers to a `vfmadd` (inside the
/// `target_feature` row sweeps) or to libm `fmaf` (composed `map` path), so
/// every fast-mode call site produces identical bits.
#[inline(always)]
fn gelu_tanh<const FMA: bool>(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let inner = if FMA {
        C * 0.044_715f32.mul_add(x * x * x, x)
    } else {
        C * (x + 0.044_715 * x * x * x)
    };
    inner.tanh()
}

/// GELU of `x` given `t = gelu_tanh(x)`; the fast form fuses the blend.
#[inline(always)]
fn gelu_from_tanh<const FMA: bool>(x: f32, t: f32) -> f32 {
    if FMA {
        let half_x = 0.5 * x;
        half_x.mul_add(t, half_x) // 0.5x*(1+t) = 0.5x*t + 0.5x
    } else {
        0.5 * x * (1.0 + t)
    }
}

/// GELU derivative at `x` given `t = gelu_tanh(x)`, same fusion points.
#[inline(always)]
fn gelu_grad_from_tanh<const FMA: bool>(x: f32, t: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    if FMA {
        let dinner = C * (3.0 * 0.044_715f32).mul_add(x * x, 1.0);
        (0.5 * x * (1.0 - t * t)).mul_add(dinner, 0.5 * (1.0 + t))
    } else {
        let dinner = C * (1.0 + 3.0 * 0.044_715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    }
}

#[inline]
fn gelu_grad_dispatch(fast: bool, x: f32, t: f32) -> f32 {
    if fast {
        gelu_grad_from_tanh::<true>(x, t)
    } else {
        gelu_grad_from_tanh::<false>(x, t)
    }
}

#[inline]
fn gelu_tanh_dispatch(fast: bool, x: f32) -> f32 {
    if fast {
        gelu_tanh::<true>(x)
    } else {
        gelu_tanh::<false>(x)
    }
}

/// Derivative of the tanh-approximated GELU.
pub fn gelu_grad(x: &Tensor) -> Tensor {
    let fast = crate::kernel::fast_mode();
    x.map(move |v| gelu_grad_dispatch(fast, v, gelu_tanh_dispatch(fast, v)))
}

/// GELU backward from the input alone: `dx = gelu'(x) * dy`, evaluating
/// `tanh` again. The layers use [`gelu_backward_cached`]; this is the
/// reference it is tested against, and the composed
/// `gelu_grad(x).zip(dy, ..)` computes the same per-element expression with
/// the same mode dispatch, so all three are bitwise-identical.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    let fast = crate::kernel::fast_mode();
    x.zip(dy, move |x, d| {
        gelu_grad_dispatch(fast, x, gelu_tanh_dispatch(fast, x)) * d
    })
}

/// GELU that also returns what its backward needs: `(y, t)` with
/// `y = gelu(x)` and `t` the `tanh` factor inside it. `y` is bitwise
/// [`gelu`]`(x)`.
pub fn gelu_with_tanh(x: &Tensor) -> (Tensor, Tensor) {
    let fast = crate::kernel::fast_mode();
    let t = x.map(move |v| gelu_tanh_dispatch(fast, v));
    let y = if fast {
        x.zip(&t, gelu_from_tanh::<true>)
    } else {
        x.zip(&t, gelu_from_tanh::<false>)
    };
    (y, t)
}

/// GELU backward from the `tanh` the forward pass kept: `dx = gelu'(x) * dy`
/// with `t` from [`gelu_with_tanh`]`(x)` or [`add_bias_gelu`] (where `x` is
/// the pre-activation `h`; the bias gradient is `sum_axis(dh, 0)` as usual).
/// The expression is [`gelu_backward`]'s with the libm call replaced by the
/// value it returned in the forward pass, so the bits are the same in both
/// numeric modes — `t` must come from a forward in the *current* mode.
pub fn gelu_backward_cached(x: &Tensor, t: &Tensor, dy: &Tensor) -> Tensor {
    let fast = crate::kernel::fast_mode();
    let grad = x.zip(t, move |x, t| gelu_grad_dispatch(fast, x, t));
    grad.zip(dy, |g, d| g * d)
}

/// Fused bias-add + GELU: returns `(h, y, t)` where `h = x + bias`
/// (row-wise), `y = gelu(h)` and `t` is the `tanh` factor inside `y` — the
/// forward of a `Linear`+`Gelu` pair, which keeps `h` and `t` for
/// [`gelu_backward_cached`]. Consumes `x` so a uniquely-owned GEMM output is
/// updated in place; pooled buffers for `y` and `t` replace the composed
/// chain's fresh allocations (`add_bias` clone + `gelu` map).
pub fn add_bias_gelu(mut x: Tensor, bias: &Tensor) -> (Tensor, Tensor, Tensor) {
    assert_eq!(bias.rank(), 1, "bias must be rank 1");
    let n = bias.numel();
    assert_eq!(
        *x.dims().last().expect("add_bias_gelu on scalar"),
        n,
        "bias length mismatch"
    );
    let numel = x.numel();
    let fast = crate::kernel::fast_mode();
    let b = bias.data();
    let mut y = pool::take_zeroed(numel);
    let mut t = pool::take_zeroed(numel);
    run_add_bias_gelu_rows(fast, x.data_mut(), &mut y, &mut t, b, n);
    let y = Tensor::from_vec(x.shape().clone(), y);
    let t = Tensor::from_vec(x.shape().clone(), t);
    (x, y, t)
}

#[inline(always)]
fn add_bias_gelu_rows<const FMA: bool>(
    x: &mut [f32],
    y: &mut [f32],
    t: &mut [f32],
    b: &[f32],
    n: usize,
) {
    for ((row, y_row), t_row) in x.chunks_mut(n).zip(y.chunks_mut(n)).zip(t.chunks_mut(n)) {
        for (((h, yv), tv), &bv) in row
            .iter_mut()
            .zip(y_row.iter_mut())
            .zip(t_row.iter_mut())
            .zip(b.iter())
        {
            *h += bv;
            *tv = gelu_tanh::<FMA>(*h);
            *yv = gelu_from_tanh::<FMA>(*h, *tv);
        }
    }
}

/// Recompiles the fast row sweep with hardware FMA so `mul_add` is a single
/// instruction rather than a libm call (`tanh` still dominates, but the
/// polynomial around it fuses for free).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn add_bias_gelu_rows_fma(x: &mut [f32], y: &mut [f32], t: &mut [f32], b: &[f32], n: usize) {
    add_bias_gelu_rows::<true>(x, y, t, b, n);
}

fn run_add_bias_gelu_rows(
    fast: bool,
    x: &mut [f32],
    y: &mut [f32],
    t: &mut [f32],
    b: &[f32],
    n: usize,
) {
    if fast {
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe { add_bias_gelu_rows_fma(x, y, t, b, n) };
        }
        return add_bias_gelu_rows::<true>(x, y, t, b, n);
    }
    add_bias_gelu_rows::<false>(x, y, t, b, n);
}

/// Rectified linear unit.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU gradient mask (1 where the input was positive).
pub fn relu_grad(x: &Tensor) -> Tensor {
    x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Layer normalization over the last dimension with affine parameters.
///
/// Returns `(y, mean, inv_std)`; the statistics are cached for the backward
/// pass.
pub fn layernorm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let n = *x.dims().last().expect("layernorm on scalar");
    assert_eq!(gamma.numel(), n, "gamma length mismatch");
    assert_eq!(beta.numel(), n, "beta length mismatch");
    let rows = x.numel() / n;
    let fast = crate::kernel::fast_mode();
    let mut out = x.clone();
    let mut means = Vec::with_capacity(rows);
    let mut inv_stds = Vec::with_capacity(rows);
    for row in out.data_mut().chunks_mut(n) {
        let (mean, inv_std) = if fast {
            ln_stats::<true>(row, eps, n)
        } else {
            ln_stats::<false>(row, eps, n)
        };
        for (v, (&g, &b)) in row
            .iter_mut()
            .zip(gamma.data().iter().zip(beta.data().iter()))
        {
            *v = if fast {
                ln_elem::<true>(*v, mean, inv_std, g, b)
            } else {
                ln_elem::<false>(*v, mean, inv_std, g, b)
            };
        }
        means.push(mean);
        inv_stds.push(inv_std);
    }
    (out, means, inv_stds)
}

/// Per-row layernorm statistics: two-pass mean/variance (a one-pass
/// sum-of-squares would change rounding), returning `(mean, inv_std)`. The
/// fast instantiation fuses each squared-deviation accumulation; every
/// layernorm entry point routes through this so the composed/fused pair
/// stays bitwise-identical within a mode.
#[inline(always)]
fn ln_stats<const FMA: bool>(row: &[f32], eps: f32, n: usize) -> (f32, f32) {
    let mean = row.iter().sum::<f32>() / n as f32;
    let var = if FMA {
        row.iter()
            .fold(0.0f32, |acc, &v| (v - mean).mul_add(v - mean, acc))
            / n as f32
    } else {
        row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32
    };
    (mean, 1.0 / (var + eps).sqrt())
}

/// One normalized element; the fast form fuses the affine step.
#[inline(always)]
fn ln_elem<const FMA: bool>(v: f32, mean: f32, inv_std: f32, g: f32, b: f32) -> f32 {
    if FMA {
        ((v - mean) * inv_std).mul_add(g, b)
    } else {
        (v - mean) * inv_std * g + b
    }
}

/// Fused layer normalization: identical statistics and normalization
/// arithmetic to [`layernorm`] (two-pass mean/variance per row — a one-pass
/// sum-of-squares would change rounding and break bitwise equivalence), but
/// the output is written into one pooled buffer instead of copy-on-write
/// cloning `x` only to overwrite every element.
pub fn layernorm_fused(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let n = *x.dims().last().expect("layernorm on scalar");
    assert_eq!(gamma.numel(), n, "gamma length mismatch");
    assert_eq!(beta.numel(), n, "beta length mismatch");
    let rows = x.numel() / n;
    let fast = crate::kernel::fast_mode();
    let mut out = pool::take_zeroed(x.numel());
    let mut means = vec![0.0f32; rows];
    let mut inv_stds = vec![0.0f32; rows];
    run_layernorm_rows(
        fast,
        x.data(),
        &mut out,
        &mut means,
        &mut inv_stds,
        gamma.data(),
        beta.data(),
        eps,
        n,
    );
    (Tensor::from_vec(x.shape().clone(), out), means, inv_stds)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal lockstep row sweep
fn layernorm_rows<const FMA: bool>(
    x: &[f32],
    out: &mut [f32],
    means: &mut [f32],
    inv_stds: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    n: usize,
) {
    for (((row, o_row), m_slot), i_slot) in x
        .chunks(n)
        .zip(out.chunks_mut(n))
        .zip(means.iter_mut())
        .zip(inv_stds.iter_mut())
    {
        let (mean, inv_std) = ln_stats::<FMA>(row, eps, n);
        for ((&v, o), (&g, &b)) in row
            .iter()
            .zip(o_row.iter_mut())
            .zip(gamma.iter().zip(beta.iter()))
        {
            *o = ln_elem::<FMA>(v, mean, inv_std, g, b);
        }
        *m_slot = mean;
        *i_slot = inv_std;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn layernorm_rows_fma(
    x: &[f32],
    out: &mut [f32],
    means: &mut [f32],
    inv_stds: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    n: usize,
) {
    layernorm_rows::<true>(x, out, means, inv_stds, gamma, beta, eps, n);
}

#[allow(clippy::too_many_arguments)]
fn run_layernorm_rows(
    fast: bool,
    x: &[f32],
    out: &mut [f32],
    means: &mut [f32],
    inv_stds: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    n: usize,
) {
    if fast {
        #[cfg(target_arch = "x86_64")]
        if crate::kernel::fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe { layernorm_rows_fma(x, out, means, inv_stds, gamma, beta, eps, n) };
        }
        return layernorm_rows::<true>(x, out, means, inv_stds, gamma, beta, eps, n);
    }
    layernorm_rows::<false>(x, out, means, inv_stds, gamma, beta, eps, n);
}

/// Backward of [`layernorm`]. Returns `(dx, dgamma, dbeta)`.
pub fn layernorm_backward(
    x: &Tensor,
    dy: &Tensor,
    gamma: &Tensor,
    means: &[f32],
    inv_stds: &[f32],
) -> (Tensor, Tensor, Tensor) {
    let n = *x.dims().last().unwrap();
    let rows = x.numel() / n;
    assert_eq!(means.len(), rows);
    assert_eq!(inv_stds.len(), rows);
    assert_eq!(dy.numel(), x.numel(), "layernorm_backward dy size");
    assert_eq!(gamma.numel(), n, "gamma length mismatch");
    let mut dx = Tensor::zeros(x.shape().clone());
    let mut dgamma = Tensor::zeros([n]);
    let mut dbeta = Tensor::zeros([n]);
    // the slices are taken once: `data_mut()` is the copy-on-write check,
    // far too dear to run per element
    let (xs, dys, g) = (x.data(), dy.data(), gamma.data());
    let (dxs, dgamma_s, dbeta_s) = (dx.data_mut(), dgamma.data_mut(), dbeta.data_mut());
    let nf = n as f32;
    for r in 0..rows {
        let row = r * n..(r + 1) * n;
        let (x_row, dy_row, dx_row) = (&xs[row.clone()], &dys[row.clone()], &mut dxs[row]);
        let mean = means[r];
        let inv_std = inv_stds[r];
        // xhat_i = (x_i - mean) * inv_std
        let mut sum_dy_g = 0.0f32;
        let mut sum_dy_g_xhat = 0.0f32;
        for i in 0..n {
            let xhat = (x_row[i] - mean) * inv_std;
            let dyg = dy_row[i] * g[i];
            sum_dy_g += dyg;
            sum_dy_g_xhat += dyg * xhat;
            dgamma_s[i] += dy_row[i] * xhat;
            dbeta_s[i] += dy_row[i];
        }
        for i in 0..n {
            let xhat = (x_row[i] - mean) * inv_std;
            let dyg = dy_row[i] * g[i];
            dx_row[i] = inv_std * (dyg - sum_dy_g / nf - xhat * sum_dy_g_xhat / nf);
        }
    }
    (dx, dgamma, dbeta)
}

/// Sum along an axis, removing it: `[.., d, ..] -> [.., ..]` as rank-1 less.
pub fn sum_axis(x: &Tensor, axis: usize) -> Tensor {
    assert!(axis < x.rank(), "sum_axis out of range");
    let extent = x.dims()[axis];
    let outer: usize = x.dims()[..axis].iter().product();
    let inner: usize = x.dims()[axis + 1..].iter().product();
    let mut out = pool::take_zeroed(outer * inner);
    for o in 0..outer {
        for e in 0..extent {
            let base = o * extent * inner + e * inner;
            let dst = &mut out[o * inner..(o + 1) * inner];
            for (d, &s) in dst.iter_mut().zip(&x.data()[base..base + inner]) {
                *d += s;
            }
        }
    }
    let dims: Vec<usize> = x
        .dims()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != axis)
        .map(|(_, &d)| d)
        .collect();
    Tensor::from_vec(dims, out)
}

/// Bias-gradient accumulation: `out += column sums of x` for a `[rows, n]`
/// matrix. The rows are swept in memory order into one pooled accumulator
/// row ([`sum_axis`] over axis 0), which is then added to `out`: every
/// column still sums its rows ascending from 0 and meets the live gradient
/// exactly once, so the bits are those of the column-at-a-time walk, without
/// its `n`-element stride per load.
pub fn sum_axis0_acc(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.rank(), 2, "sum_axis0_acc expects a matrix");
    assert_eq!(
        out.dims(),
        &x.dims()[1..],
        "sum_axis0_acc output shape mismatch"
    );
    // alpha = 1: `o += 1.0 * s` is `o += s` exactly
    out.axpy(1.0, &sum_axis(x, 0));
}

/// Mean along an axis, removing it.
pub fn mean_axis(x: &Tensor, axis: usize) -> Tensor {
    let extent = x.dims()[axis];
    let mut out = sum_axis(x, axis);
    out.scale(1.0 / extent.max(1) as f32);
    out
}

/// Maximum along an axis, removing it.
pub fn max_axis(x: &Tensor, axis: usize) -> Tensor {
    assert!(axis < x.rank(), "max_axis out of range");
    let extent = x.dims()[axis];
    assert!(extent > 0, "max_axis over empty extent");
    let outer: usize = x.dims()[..axis].iter().product();
    let inner: usize = x.dims()[axis + 1..].iter().product();
    let mut out = pool::take_buffer(outer * inner);
    out.resize(outer * inner, f32::NEG_INFINITY);
    for o in 0..outer {
        for e in 0..extent {
            let base = o * extent * inner + e * inner;
            let dst = &mut out[o * inner..(o + 1) * inner];
            for (d, &s) in dst.iter_mut().zip(&x.data()[base..base + inner]) {
                *d = d.max(s);
            }
        }
    }
    let dims: Vec<usize> = x
        .dims()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != axis)
        .map(|(_, &d)| d)
        .collect();
    Tensor::from_vec(dims, out)
}

/// Population variance along an axis, removing it.
pub fn var_axis(x: &Tensor, axis: usize) -> Tensor {
    let extent = x.dims()[axis] as f32;
    let mean = mean_axis(x, axis);
    let sq = sum_axis(&x.map(|v| v * v), axis);
    sq.zip(&mean, move |s, m| s / extent - m * m)
}

/// Index of the maximum element in each row of the last dimension.
pub fn argmax_rows(x: &Tensor) -> Vec<usize> {
    let n = *x.dims().last().expect("argmax on scalar");
    x.data()
        .chunks(n)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        })
        .collect()
}

/// Mean softmax cross-entropy between logits `[rows, classes]` and integer
/// targets. Returns `(loss, dlogits)` where `dlogits` is already the mean
/// gradient (`(softmax - onehot) / rows`).
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let classes = *logits.dims().last().expect("cross_entropy on scalar");
    let rows = logits.numel() / classes;
    assert_eq!(targets.len(), rows, "target count mismatch");
    let probs = softmax(logits);
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < classes, "target {t} out of range");
        let p = probs.data()[r * classes + t].max(1e-12);
        loss -= (p as f64).ln();
        grad.data_mut()[r * classes + t] -= 1.0;
    }
    grad.scale(1.0 / rows as f32);
    ((loss / rows as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let y = softmax(&x);
        for row in y.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // stable under huge inputs
        assert!((y.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_fd() {
        let x = Tensor::from_vec([1, 4], vec![0.3, -0.7, 1.2, 0.05]);
        let y = softmax(&x);
        let dy = Tensor::from_vec([1, 4], vec![0.1, 0.4, -0.2, 0.9]);
        let dx = softmax_backward(&y, &dy);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = softmax(&xp)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let fm: f32 = softmax(&xm)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.data()[i] - fd).abs() < 1e-3,
                "i={i}: {} vs {}",
                dx.data()[i],
                fd
            );
        }
    }

    #[test]
    fn gelu_reference_points() {
        // values from the tanh approximation used by BERT
        let x = Tensor::from_vec([3], vec![0.0, 1.0, -1.0]);
        let y = gelu(&x);
        assert!((y.data()[0]).abs() < 1e-6);
        assert!((y.data()[1] - 0.841192).abs() < 1e-4);
        assert!((y.data()[2] + 0.158808).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_fd() {
        let x = Tensor::from_vec([5], vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        let g = gelu_grad(&x);
        let eps = 1e-3;
        for i in 0..5 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (gelu(&xp).data()[i] - gelu(&xm).data()[i]) / (2.0 * eps);
            assert!((g.data()[i] - fd).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let (y, _, _) = layernorm(&x, &gamma, &beta, 1e-5);
        for row in y.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_backward_matches_fd() {
        let x = Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 0.1, 0.2, -0.4]);
        let gamma = Tensor::from_vec([3], vec![1.2, 0.8, 1.0]);
        let beta = Tensor::from_vec([3], vec![0.1, -0.2, 0.0]);
        let dy = Tensor::from_vec([2, 3], vec![1.0, -0.5, 0.25, 0.7, 0.3, -0.9]);
        let (y0, means, inv_stds) = layernorm(&x, &gamma, &beta, 1e-5);
        let _ = y0;
        let (dx, dgamma, dbeta) = layernorm_backward(&x, &dy, &gamma, &means, &inv_stds);
        let eps = 1e-3;
        let f = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let (y, _, _) = layernorm(x, g, b, 1e-5);
            y.data().iter().zip(dy.data()).map(|(a, d)| a * d).sum()
        };
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (f(&xp, &gamma, &beta) - f(&xm, &gamma, &beta)) / (2.0 * eps);
            assert!(
                (dx.data()[i] - fd).abs() < 2e-2,
                "dx[{i}] {} vs fd {}",
                dx.data()[i],
                fd
            );
        }
        for i in 0..3 {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let fd = (f(&x, &gp, &beta) - f(&x, &gm, &beta)) / (2.0 * eps);
            assert!((dgamma.data()[i] - fd).abs() < 1e-2);
            let mut bp = beta.clone();
            bp.data_mut()[i] += eps;
            let mut bm = beta.clone();
            bm.data_mut()[i] -= eps;
            let fd = (f(&x, &gamma, &bp) - f(&x, &gamma, &bm)) / (2.0 * eps);
            assert!((dbeta.data()[i] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn sum_axis_all_axes() {
        let x = Tensor::arange(24).reshaped([2, 3, 4]);
        let s0 = sum_axis(&x, 0);
        assert_eq!(s0.dims(), &[3, 4]);
        assert_eq!(s0.at(&[0, 0]), x.at(&[0, 0, 0]) + x.at(&[1, 0, 0]));
        let s1 = sum_axis(&x, 1);
        assert_eq!(s1.dims(), &[2, 4]);
        assert_eq!(
            s1.at(&[1, 3]),
            x.at(&[1, 0, 3]) + x.at(&[1, 1, 3]) + x.at(&[1, 2, 3])
        );
        let s2 = sum_axis(&x, 2);
        assert_eq!(s2.dims(), &[2, 3]);
        assert_eq!(s2.at(&[0, 1]), (4..8).map(|i| i as f32).sum::<f32>());
    }

    #[test]
    fn mean_max_var_axis() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(mean_axis(&x, 1).data(), &[2.0, 5.0]);
        assert_eq!(mean_axis(&x, 0).data(), &[2.5, 3.5, 4.5]);
        assert_eq!(max_axis(&x, 1).data(), &[3.0, 6.0]);
        assert_eq!(max_axis(&x, 0).data(), &[4.0, 5.0, 6.0]);
        let v = var_axis(&x, 1);
        // var of [1,2,3] = 2/3
        assert!((v.data()[0] - 2.0 / 3.0).abs() < 1e-5);
        assert!((v.data()[1] - 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn axis_ops_consistent_with_layernorm_stats() {
        let x = Tensor::from_vec([1, 4], vec![2.0, 4.0, 4.0, 6.0]);
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let (_, means, inv_stds) = layernorm(&x, &gamma, &beta, 0.0);
        assert!((means[0] - mean_axis(&x, 1).data()[0]).abs() < 1e-6);
        let var = var_axis(&x, 1).data()[0];
        assert!((inv_stds[0] - 1.0 / var.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        let logits = Tensor::from_vec([2, 3], vec![100., 0., 0., 0., 0., 100.]);
        let (loss, grad) = cross_entropy(&logits, &[0, 2]);
        assert!(loss < 1e-5);
        assert!(grad.data().iter().all(|&g| g.abs() < 1e-5));
    }

    #[test]
    fn cross_entropy_uniform() {
        let logits = Tensor::zeros([1, 4]);
        let (loss, grad) = cross_entropy(&logits, &[1]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // gradient: (0.25 - onehot)/1
        assert!((grad.data()[1] + 0.75).abs() < 1e-5);
        assert!((grad.data()[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn argmax_picks_max() {
        let x = Tensor::from_vec([2, 3], vec![0., 5., 1., 9., 2., 3.]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn relu_and_grad() {
        let x = Tensor::from_vec([4], vec![-1., 0., 0.5, 2.]);
        assert_eq!(relu(&x).data(), &[0., 0., 0.5, 2.]);
        assert_eq!(relu_grad(&x).data(), &[0., 0., 1., 1.]);
    }
}
