//! Neural-network math kernels: activations, normalization, reductions.
//!
//! Hot paths come in two forms: the original *composed* ops (allocate a
//! fresh output per step) and *fused / in-place* variants that reuse the
//! caller's uniquely-owned buffer or draw one pooled buffer for an entire
//! 2–4-op chain. The fused variants are bitwise-identical to the composed
//! ones — same per-element arithmetic in the same order — so swapping them
//! in never perturbs the serial-equivalence contract; `tests/fused_props.rs`
//! property-tests that identity.

use crate::kernel::{self, LaneWork};
use crate::libm::tanh;
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
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(|v| gelu_from_tanh(v, gelu_tanh(v)))
}

/// `tanh` of the GELU's inner cubic. Forward and backward need the same
/// value, so the layers evaluate it once in the forward pass and hand it to
/// the backward ([`gelu_with_tanh`], [`add_bias_gelu`],
/// [`gelu_backward_cached`]).
#[inline(always)]
fn gelu_tanh(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    tanh(C * (x + 0.044_715 * x * x * x))
}

/// GELU of `x` given `t = gelu_tanh(x)`.
#[inline(always)]
fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU derivative at `x` given `t = gelu_tanh(x)`.
#[inline(always)]
fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let dinner = C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// Derivative of the tanh-approximated GELU.
pub fn gelu_grad(x: &Tensor) -> Tensor {
    x.map(|v| gelu_grad_from_tanh(v, gelu_tanh(v)))
}

/// GELU backward from the input alone: `dx = gelu'(x) * dy`, evaluating
/// `tanh` again. The layers use [`gelu_backward_cached`]; this is the
/// reference it is tested against, and the composed
/// `gelu_grad(x).zip(dy, ..)` computes the same per-element expression, so
/// all three are bitwise-identical.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip(dy, |x, d| gelu_grad_from_tanh(x, gelu_tanh(x)) * d)
}

/// GELU that also returns what its backward needs: `(y, t)` with
/// `y = gelu(x)` and `t` the `tanh` factor inside it. `y` is bitwise
/// [`gelu`]`(x)`.
pub fn gelu_with_tanh(x: &Tensor) -> (Tensor, Tensor) {
    let numel = x.numel();
    let mut y = pool::take_zeroed(numel);
    let mut t = pool::take_zeroed(numel);
    let work = Gelu {
        x: x.data(),
        y: &mut y,
        t: &mut t,
    };
    kernel::on_lanes(kernel::lanes(), work);
    let y = Tensor::from_vec(x.shape().clone(), y);
    let t = Tensor::from_vec(x.shape().clone(), t);
    (y, t)
}

/// GELU backward from the `tanh` the forward pass kept: `dx = gelu'(x) * dy`
/// with `t` from [`gelu_with_tanh`]`(x)` or [`add_bias_gelu`] (where `x` is
/// the pre-activation `h`; the bias gradient is `sum_axis(dh, 0)` as usual).
/// The expression is [`gelu_backward`]'s with the `tanh` replaced by the
/// value it returned in the forward pass, so the bits are the same.
pub fn gelu_backward_cached(x: &Tensor, t: &Tensor, dy: &Tensor) -> Tensor {
    let grad = x.zip(t, gelu_grad_from_tanh);
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
    let mut y = pool::take_zeroed(numel);
    let mut t = pool::take_zeroed(numel);
    let work = BiasGelu {
        h: x.data_mut(),
        bias: bias.data(),
        y: &mut y,
        t: &mut t,
    };
    kernel::on_lanes(kernel::lanes(), work);
    let y = Tensor::from_vec(x.shape().clone(), y);
    let t = Tensor::from_vec(x.shape().clone(), t);
    (x, y, t)
}

/// `y = gelu(x)` and its `tanh` factor `t`, elementwise: the loop both
/// [`LaneWork`]s below vectorize.
#[inline(always)]
fn gelu_into(x: &[f32], y: &mut [f32], t: &mut [f32]) {
    for ((&xv, yv), tv) in x.iter().zip(y.iter_mut()).zip(t.iter_mut()) {
        *tv = gelu_tanh(xv);
        *yv = gelu_from_tanh(xv, *tv);
    }
}

/// [`gelu_with_tanh`]'s loop on vector lanes.
struct Gelu<'a> {
    x: &'a [f32],
    y: &'a mut [f32],
    t: &'a mut [f32],
}

impl LaneWork for Gelu<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const NR: usize>(self) {
        gelu_into(self.x, self.y, self.t);
    }
}

/// [`add_bias_gelu`]'s rows on vector lanes: each row gains the bias in
/// place, then its GELU while the row is still in L1.
struct BiasGelu<'a> {
    h: &'a mut [f32],
    bias: &'a [f32],
    y: &'a mut [f32],
    t: &'a mut [f32],
}

impl LaneWork for BiasGelu<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const NR: usize>(self) {
        let n = self.bias.len();
        for ((h, y), t) in self
            .h
            .chunks_mut(n)
            .zip(self.y.chunks_mut(n))
            .zip(self.t.chunks_mut(n))
        {
            for (hv, &bv) in h.iter_mut().zip(self.bias) {
                *hv += bv;
            }
            gelu_into(h, y, t);
        }
    }
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
    let mut out = x.clone();
    let mut means = Vec::with_capacity(rows);
    let mut inv_stds = Vec::with_capacity(rows);
    for row in out.data_mut().chunks_mut(n) {
        let (mean, inv_std) = ln_stats(row, eps, n);
        for (v, (&g, &b)) in row
            .iter_mut()
            .zip(gamma.data().iter().zip(beta.data().iter()))
        {
            *v = ln_elem(*v, mean, inv_std, g, b);
        }
        means.push(mean);
        inv_stds.push(inv_std);
    }
    (out, means, inv_stds)
}

/// Per-row layernorm statistics: two-pass mean/variance (a one-pass
/// sum-of-squares would change rounding), returning `(mean, inv_std)`.
/// Every layernorm entry point routes through this so the composed/fused
/// pair stays bitwise-identical.
#[inline(always)]
fn ln_stats(row: &[f32], eps: f32, n: usize) -> (f32, f32) {
    let mean = row.iter().sum::<f32>() / n as f32;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
    (mean, 1.0 / (var + eps).sqrt())
}

/// One normalized element.
#[inline(always)]
fn ln_elem(v: f32, mean: f32, inv_std: f32, g: f32, b: f32) -> f32 {
    (v - mean) * inv_std * g + b
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
    let mut out = pool::take_zeroed(x.numel());
    let mut means = vec![0.0f32; rows];
    let mut inv_stds = vec![0.0f32; rows];
    let (gamma, beta) = (gamma.data(), beta.data());
    for (((row, o_row), m_slot), i_slot) in x
        .data()
        .chunks(n)
        .zip(out.chunks_mut(n))
        .zip(means.iter_mut())
        .zip(inv_stds.iter_mut())
    {
        let (mean, inv_std) = ln_stats(row, eps, n);
        for ((&v, o), (&g, &b)) in row
            .iter()
            .zip(o_row.iter_mut())
            .zip(gamma.iter().zip(beta.iter()))
        {
            *o = ln_elem(v, mean, inv_std, g, b);
        }
        *m_slot = mean;
        *i_slot = inv_std;
    }
    (Tensor::from_vec(x.shape().clone(), out), means, inv_stds)
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
    use crate::kernel::lanes_on_host;
    use std::hint::black_box;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn bias_gelu_rows_on_every_lane_width_compute_the_scalar_bits() {
        // ragged widths around both vector widths, for the loops' tails
        for n in [1, 7, 8, 15, 16, 17, 31, 32, 33, 100] {
            let rows = 3;
            let x: Vec<f32> = (0..rows * n)
                .map(|i| (i as f32 * 0.37).sin() * 6.0)
                .collect();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 0.11).cos()).collect();
            let h: Vec<f32> = x
                .iter()
                .enumerate()
                .map(|(i, &v)| v + bias[i % n])
                .collect();
            let t: Vec<f32> = h
                .iter()
                .map(|&v| black_box(gelu_tanh(black_box(v))))
                .collect();
            let y: Vec<f32> = h
                .iter()
                .zip(&t)
                .map(|(&v, &tv)| gelu_from_tanh(v, tv))
                .collect();
            for lanes in lanes_on_host() {
                let (mut got_h, mut got_y, mut got_t) =
                    (x.clone(), vec![0.0; x.len()], vec![0.0; x.len()]);
                let work = BiasGelu {
                    h: &mut got_h,
                    bias: &bias,
                    y: &mut got_y,
                    t: &mut got_t,
                };
                kernel::on_lanes(lanes, work);
                assert_eq!(bits(&got_h), bits(&h), "h, {lanes:?}, n {n}");
                assert_eq!(bits(&got_t), bits(&t), "t, {lanes:?}, n {n}");
                assert_eq!(bits(&got_y), bits(&y), "y, {lanes:?}, n {n}");
                let (mut y2, mut t2) = (vec![0.0; x.len()], vec![0.0; x.len()]);
                kernel::on_lanes(
                    lanes,
                    Gelu {
                        x: &h,
                        y: &mut y2,
                        t: &mut t2,
                    },
                );
                assert_eq!(
                    (bits(&y2), bits(&t2)),
                    (bits(&y), bits(&t)),
                    "gelu, {lanes:?}, n {n}"
                );
            }
        }
    }

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
    fn max_axis_both_axes() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(max_axis(&x, 1).data(), &[3.0, 6.0]);
        assert_eq!(max_axis(&x, 0).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn layernorm_stats_are_the_row_mean_and_inverse_std() {
        // mean 4, population variance (4 + 0 + 0 + 4) / 4 = 2
        let x = Tensor::from_vec([1, 4], vec![2.0, 4.0, 4.0, 6.0]);
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let (_, means, inv_stds) = layernorm(&x, &gamma, &beta, 0.0);
        assert!((means[0] - 4.0).abs() < 1e-6);
        assert!((inv_stds[0] - 1.0 / 2.0f32.sqrt()).abs() < 1e-4);
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
    fn relu_and_grad() {
        let x = Tensor::from_vec([4], vec![-1., 0., 0.5, 2.]);
        assert_eq!(relu(&x).data(), &[0., 0., 0.5, 2.]);
        assert_eq!(relu_grad(&x).data(), &[0., 0., 1., 1.]);
    }
}
