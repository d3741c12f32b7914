//! Dense (fully connected) layer.

use crate::layer::Layer;
use crate::param::Param;
use colossalai_tensor::init::InitRng;
use colossalai_tensor::ops::{add_bias_gelu, gelu_backward_cached, sum_axis0_acc};
use colossalai_tensor::{init, matmul_at_acc, matmul_bt, matmul_nd, Tensor};

/// `y = x W + b` with `W: [in, out]`, applied to inputs of shape
/// `[.., in]`. With [`Linear::with_gelu`], the layer computes
/// `y = gelu(x W + b)` through the fused `add_bias_gelu` kernel —
/// bitwise-identical to a `Linear` followed by a separate `Gelu` layer, but
/// without the intermediate allocations.
pub struct Linear {
    w: Param,
    b: Option<Param>,
    fused_gelu: bool,
    cached_x: Option<Tensor>,
    /// Pre-activation `h = x W + b` and the `tanh` factor of `gelu(h)`,
    /// cached only in fused-GELU mode.
    cached_h: Option<(Tensor, Tensor)>,
}

impl Linear {
    /// Builds from explicit weights (used when sharding a global weight
    /// across tensor-parallel ranks).
    pub fn from_parts(name: &str, w: Tensor, b: Option<Tensor>) -> Self {
        assert_eq!(w.rank(), 2, "linear weight must be rank 2");
        if let Some(b) = &b {
            assert_eq!(b.numel(), w.dims()[1], "bias length mismatch");
        }
        Linear {
            w: Param::new(format!("{name}.weight"), w),
            b: b.map(|b| Param::new(format!("{name}.bias"), b)),
            fused_gelu: false,
            cached_x: None,
            cached_h: None,
        }
    }

    /// Fuses a GELU activation into this layer (`y = gelu(x W + b)`).
    /// Requires a bias. Replaces a `[Linear, Gelu]` pair with identical
    /// parameters and bitwise-identical outputs/gradients.
    pub fn with_gelu(mut self) -> Self {
        assert!(self.b.is_some(), "with_gelu requires a bias");
        self.fused_gelu = true;
        self
    }

    /// LeCun-normal initialized layer (the paper's "Jax initialization").
    pub fn from_rng(name: &str, d_in: usize, d_out: usize, bias: bool, rng: &mut InitRng) -> Self {
        let w = init::lecun_normal(d_in, d_out, rng);
        let b = bias.then(|| Tensor::zeros([d_out]));
        Linear::from_parts(name, w, b)
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.w.value().dims()[0]
    }

    /// Output width.
    pub fn d_out(&self) -> usize {
        self.w.value().dims()[1]
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// The bias parameter, if present.
    pub fn bias(&self) -> Option<&Param> {
        self.b.as_ref()
    }

    /// FLOPs of one forward pass over `rows` input rows.
    pub fn forward_flops(&self, rows: usize) -> u64 {
        2 * rows as u64 * self.d_in() as u64 * self.d_out() as u64
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(
            *x.dims().last().expect("linear input must have rank >= 1"),
            self.d_in(),
            "linear input width mismatch"
        );
        self.cached_x = Some(x.clone());
        let mut y = matmul_nd(x, self.w.value());
        if self.fused_gelu {
            let b = self.b.as_ref().expect("fused gelu requires bias");
            let (h, out, t) = add_bias_gelu(y, b.value());
            self.cached_h = Some((h, t));
            return out;
        }
        if let Some(b) = &self.b {
            // the GEMM output is uniquely owned: bias adds in place
            y.add_bias_assign(b.value());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward before forward");
        let (rows, d_in) = x.shape().as_matrix();
        let x2 = x.reshape([rows, d_in]);
        // in fused-GELU mode, first pull dy back through the activation:
        // dh = gelu'(h) * dy, then the usual linear backward on dh
        let dy2 = if self.fused_gelu {
            let (h, t) = self.cached_h.take().expect("backward before forward");
            gelu_backward_cached(&h, &t, dy).reshaped([rows, self.d_out()])
        } else {
            dy.reshape([rows, self.d_out()])
        };
        // dW = x^T dy, accumulated straight into the parameter gradient —
        // no dW temporary, no zero-fill, no second axpy pass
        matmul_at_acc(&x2, &dy2, self.w.grad_mut());
        // db = column sums of dy, same fused accumulation
        if let Some(b) = &mut self.b {
            sum_axis0_acc(&dy2, b.grad_mut());
        }
        // dx = dy W^T
        let dx = matmul_bt(&dy2, self.w.value());
        dx.reshaped(x.shape().clone())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.b {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check;

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3], vec![0.1, 0.2, 0.3]);
        let mut l = Linear::from_parts("l", w, Some(b));
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[9.1, 12.2, 15.3]);
    }

    #[test]
    fn handles_3d_inputs() {
        let mut rng = init::rng(5);
        let mut l = Linear::from_rng("l", 4, 2, true, &mut rng);
        let x = init::uniform([2, 3, 4], -1.0, 1.0, &mut rng);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[2, 3, 2]);
        let dx = l.backward(&Tensor::ones([2, 3, 2]));
        assert_eq!(dx.dims(), &[2, 3, 4]);
    }

    #[test]
    fn grad_check_with_bias() {
        let mut rng = init::rng(6);
        let mut l = Linear::from_rng("l", 3, 4, true, &mut rng);
        let x = init::uniform([5, 3], -1.0, 1.0, &mut rng);
        grad_check(&mut l, &x, 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn grad_check_without_bias() {
        let mut rng = init::rng(7);
        let mut l = Linear::from_rng("l", 4, 3, false, &mut rng);
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        grad_check(&mut l, &x, 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn gradient_accumulates_across_microbatches() {
        let mut rng = init::rng(8);
        let mut l = Linear::from_rng("l", 3, 3, false, &mut rng);
        let x1 = init::uniform([2, 3], -1.0, 1.0, &mut rng);
        let x2 = init::uniform([2, 3], -1.0, 1.0, &mut rng);
        let dy = Tensor::ones([2, 3]);

        // two micro-batches accumulated
        let _ = l.forward(&x1);
        let _ = l.backward(&dy);
        let _ = l.forward(&x2);
        let _ = l.backward(&dy);
        let acc = l.weight().grad().clone();

        // equals the sum of separate gradients
        l.zero_grad();
        let _ = l.forward(&x1);
        let _ = l.backward(&dy);
        let g1 = l.weight().grad().clone();
        l.zero_grad();
        let _ = l.forward(&x2);
        let _ = l.backward(&dy);
        let g2 = l.weight().grad().clone();
        assert!(acc.allclose(&g1.zip(&g2, |a, b| a + b), 1e-5));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = init::rng(9);
        let mut l = Linear::from_rng("l", 2, 2, false, &mut rng);
        let _ = l.backward(&Tensor::ones([1, 2]));
    }

    #[test]
    fn flops_formula() {
        let mut rng = init::rng(10);
        let l = Linear::from_rng("l", 128, 256, false, &mut rng);
        assert_eq!(l.forward_flops(10), 2 * 10 * 128 * 256);
    }
}
