//! Trainable parameters: a value tensor paired with its gradient accumulator.

use colossalai_tensor::Tensor;

/// A trainable parameter.
///
/// The gradient has the same shape as the value and is *accumulated* across
/// backward calls (gradient accumulation / micro-batching falls out for
/// free); optimizers read it and then call [`Param::zero_grad`].
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
}

impl Param {
    /// Creates a named parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Parameter name (used for checkpointing and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable value (optimizer updates).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Replaces the value wholesale (state-dict restore).
    pub fn set_value(&mut self, v: Tensor) {
        assert_eq!(v.shape(), self.value.shape(), "parameter shape changed");
        self.value = v;
    }

    /// Accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable gradient (collectives reduce in place).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Adds `g` into the gradient accumulator.
    pub fn accumulate_grad(&mut self, g: &Tensor) {
        self.grad.axpy(1.0, g);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_accumulates_and_clears() {
        let mut p = Param::new("w", Tensor::zeros([2, 2]));
        p.accumulate_grad(&Tensor::full([2, 2], 1.0));
        p.accumulate_grad(&Tensor::full([2, 2], 0.5));
        assert_eq!(p.grad().data(), &[1.5; 4]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn set_value_checks_shape() {
        let mut p = Param::new("w", Tensor::zeros([2, 2]));
        p.set_value(Tensor::zeros([4]));
    }
}
