//! Elementwise activation layers.

use crate::layer::Layer;
use crate::param::Param;
use colossalai_tensor::{ops, Tensor};

/// Tanh-approximated GELU (the Transformer default).
#[derive(Default)]
pub struct Gelu {
    /// The input and the `tanh` factor the forward pass evaluated on it.
    cache: Option<(Tensor, Tensor)>,
}

impl Gelu {
    pub fn new() -> Self {
        Gelu::default()
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, t) = ops::gelu_with_tanh(x);
        self.cache = Some((x.clone(), t));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, t) = self.cache.take().expect("backward before forward");
        // gelu'(x) * dy from the forward's tanh: no second libm call, and
        // bitwise the composed gelu_grad + zip pair
        ops::gelu_backward_cached(&x, &t, dy)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    cached_x: Option<Tensor>,
}

impl Relu {
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_x = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward before forward");
        // single-buffer fusion of relu_grad + zip; the mask value is still
        // multiplied exactly as in the composed path
        x.zip(dy, |v, d| if v > 0.0 { 1.0 } else { 0.0 } * d)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check;
    use colossalai_tensor::init;

    #[test]
    fn gelu_grad_check() {
        let mut rng = init::rng(11);
        let x = init::uniform([3, 4], -2.0, 2.0, &mut rng);
        grad_check(&mut Gelu::new(), &x, 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn relu_grad_check() {
        let mut rng = init::rng(12);
        // keep inputs away from the kink at 0
        let x = init::uniform([3, 4], 0.5, 2.0, &mut rng);
        grad_check(&mut Relu::new(), &x, 1e-3, 1e-2).unwrap();
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Gelu::new().n_params(), 0);
        assert_eq!(Relu::new().n_params(), 0);
    }
}
