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
/// which copies on write into a pooled buffer. A cleared gradient is such a
/// view again, its buffer parked on the `Param`: the next write takes the
/// buffer back, zero-filled ([`Param::grad_mut`]) or, for a write that
/// covers every element, as it is ([`Param::grad_to_overwrite`]), so a
/// gradient lives in one buffer from step to step.
#[derive(Clone, Debug)]
pub struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// The buffer of the gradient [`Param::zero_grad`] last cleared, kept
    /// for its next write.
    parked: Option<Tensor>,
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
            parked: None,
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

    /// Mutable gradient (collectives reduce in place). A cleared
    /// gradient takes its parked buffer back, zero-filled.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        if let Some(mut buf) = self.parked.take() {
            buf.data_mut().fill(0.0);
            self.grad = buf;
        }
        &mut self.grad
    }

    /// The gradient for a write that overwrites every element of it (the
    /// weight-gradient GEMM's store form): a cleared gradient's parked
    /// buffer, taken back *as it is*, stale contents and all, or `None`
    /// when nothing is parked — the gradient holds a sum to add to, or was
    /// never written — and the write accumulates through
    /// [`Param::grad_mut`].
    pub fn grad_to_overwrite(&mut self) -> Option<&mut Tensor> {
        let buf = self.parked.take()?;
        self.grad = buf;
        Some(&mut self.grad)
    }

    /// Adds `g` into the gradient accumulator.
    pub fn accumulate_grad(&mut self, g: &Tensor) {
        self.grad_mut().axpy(1.0, g);
    }

    /// Clears the accumulated gradient without touching its elements: the
    /// gradient becomes a view of the shared zero storage and its buffer
    /// is parked for the next write. A gradient never written is left as
    /// it is, holding no memory.
    pub fn zero_grad(&mut self) {
        if !self.grad.is_shared_zeros() {
            let zeros = Tensor::shared_zeros(self.grad.shape().clone());
            self.parked = Some(std::mem::replace(&mut self.grad, zeros));
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
        p.accumulate_grad(&Tensor::full([2, 2], 0.25));
        assert_eq!(p.grad().data(), &[0.25; 4]);
        assert_eq!(p.grad().data().as_ptr(), home, "written where it lived");
    }

    #[test]
    fn a_cleared_gradient_is_overwritten_in_its_own_buffer() {
        let mut p = Param::new("w", Tensor::zeros([2, 2]));
        assert!(p.grad_to_overwrite().is_none(), "nothing parked yet");
        p.accumulate_grad(&Tensor::full([2, 2], 3.0));
        assert!(p.grad_to_overwrite().is_none(), "a live sum is added to");
        let home = p.grad().data().as_ptr();
        p.zero_grad();
        assert!(p.grad().is_shared_zeros(), "clearing wrote the buffer");
        // stale, for the caller to overwrite whole
        let g = p.grad_to_overwrite().expect("the parked buffer");
        assert_eq!(g.data(), &[3.0; 4]);
        g.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.grad().data().as_ptr(), home);
        assert!(p.grad_to_overwrite().is_none(), "taken once");
        p.zero_grad();
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
        assert_eq!(p.grad_mut().data(), &[0.0; 4], "taken back zero-filled");
        assert_eq!(p.grad().data().as_ptr(), home);
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
