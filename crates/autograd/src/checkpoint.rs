//! Activation checkpointing (gradient checkpointing), the
//! compute-for-memory trade of Chen et al. that Colossal-AI integrates.
//!
//! The wrapper saves its input and backward re-runs the wrapped forward from
//! it, so the gradients are exactly the plain ones at the cost of one extra
//! forward. It does not yet free anything: the wrapped layers keep their
//! activation caches between the forward and the recompute (nothing drops
//! them), so peak activation memory is the plain model's plus the saved
//! input. No library code wraps a layer in it yet: the engine checkpoints
//! nothing, since one checkpoint around the whole model would recompute
//! every activation at the start of backward and lower no peak even once
//! the wrapper frees its caches.

use crate::layer::Layer;
use crate::param::Param;
use colossalai_tensor::Tensor;

/// Wraps a layer (or a whole [`crate::layer::Sequential`] segment) with
/// activation checkpointing.
pub struct Checkpoint<L: Layer> {
    inner: L,
    saved_input: Option<Tensor>,
    /// Forward invocations of the inner layer (recomputation is observable
    /// for tests).
    pub recompute_count: u64,
}

impl<L: Layer> Checkpoint<L> {
    pub fn new(inner: L) -> Self {
        Checkpoint {
            inner,
            saved_input: None,
            recompute_count: 0,
        }
    }

    /// Re-runs the forward from the saved input to rebuild the activation
    /// caches backward needs.
    fn recompute(&mut self) {
        let x = self.saved_input.take().expect("backward before forward");
        let _ = self.inner.forward(&x);
        self.recompute_count += 1;
    }
}

impl<L: Layer> Layer for Checkpoint<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.saved_input = Some(x.clone());
        let y = self.inner.forward(x);
        // The inner caches stay alive until the recompute overwrites them:
        // a layer has no way to drop its cache, and a throwaway backward
        // would corrupt the parameter gradients. So this wrapper trades
        // compute for no memory yet; the recompute keeps gradients exact.
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.recompute();
        self.inner.backward(dy)
    }

    /// Recomputes, then fires the inner layer's own stages, so a checkpointed
    /// model launches its gradient buckets as early as the plain one.
    fn backward_staged(&mut self, dy: &Tensor, on_stage: &mut dyn FnMut(&[Tensor])) -> Tensor {
        self.recompute();
        self.inner.backward_staged(dy, on_stage)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Gelu;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use colossalai_tensor::init;

    fn small_mlp(rng: &mut init::InitRng) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 8, true, rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("l2", 8, 4, true, rng)),
        ])
    }

    #[test]
    fn checkpointed_gradients_match_plain() {
        let mut rng = init::rng(40);
        let mut plain = small_mlp(&mut rng);
        let mut rng2 = init::rng(40);
        let mut ckpt = Checkpoint::new(small_mlp(&mut rng2));

        let x = init::uniform([3, 4], -1.0, 1.0, &mut rng);
        let dy = init::uniform([3, 4], -1.0, 1.0, &mut rng);

        let y1 = plain.forward(&x);
        let dx1 = plain.backward(&dy);
        let y2 = ckpt.forward(&x);
        let dx2 = ckpt.backward(&dy);

        assert!(y1.allclose(&y2, 0.0), "forward must be identical");
        assert!(dx1.allclose(&dx2, 0.0), "input grads must be identical");

        let mut g1 = Vec::new();
        plain.visit_params(&mut |p| g1.push(p.grad().clone()));
        let mut g2 = Vec::new();
        ckpt.visit_params(&mut |p| g2.push(p.grad().clone()));
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!(a.allclose(b, 0.0), "param grads must be identical");
        }
    }

    #[test]
    fn recomputation_happens_once_per_backward() {
        let mut rng = init::rng(41);
        let mut ckpt = Checkpoint::new(small_mlp(&mut rng));
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        for step in 1..=3 {
            let _ = ckpt.forward(&x);
            let _ = ckpt.backward(&Tensor::ones([2, 4]));
            assert_eq!(ckpt.recompute_count, step);
        }
    }
}
