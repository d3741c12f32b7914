//! Trainable parameters: a value tensor paired with its gradient
//! accumulator, and — when the parameter is replicated over devices that
//! saw other rows — the member lists of the groups that sum its gradient.

use colossalai_tensor::Tensor;

/// A trainable parameter.
///
/// The gradient has the same shape as the value and is *accumulated* across
/// backward calls (gradient accumulation / micro-batching falls out for
/// free); optimizers read it and then call [`Param::zero_grad`]. A fresh
/// gradient is a view of the shared zero storage
/// ([`Tensor::shared_zeros`]) and holds no memory until its first write,
/// which copies on write into a pooled buffer; from then on it is written
/// in place.
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// The member lists of the groups whose gradient shares sum to this
    /// parameter's gradient, outermost first: the parallel mode that
    /// replicates it over devices that saw other rows writes them, and the
    /// gradient reducer sums over them. Empty: not replicated.
    pub replicas: Vec<Vec<usize>>,
}

impl Param {
    /// Creates a named parameter whose gradient reads zeros and holds no
    /// memory yet.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::shared_zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
            replicas: Vec::new(),
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

    /// Clears the accumulated gradient in place; a gradient never written
    /// is left as it is, holding no memory.
    pub fn zero_grad(&mut self) {
        if !self.grad.is_shared_zeros() {
            self.grad.data_mut().fill(0.0);
        }
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
        let home = p.grad().data().as_ptr();
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
        assert_eq!(p.grad().data().as_ptr(), home, "cleared in place");
    }

    #[test]
    fn a_gradient_never_written_stays_shared_zeros() {
        let mut p = Param::new("w", Tensor::zeros([2, 2]));
        assert!(p.grad().is_shared_zeros());
        p.zero_grad();
        assert!(p.grad().is_shared_zeros(), "clearing it allocated");
        assert_eq!(p.grad().data(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn set_value_checks_shape() {
        let mut p = Param::new("w", Tensor::zeros([2, 2]));
        p.set_value(Tensor::zeros([4]));
    }
}
