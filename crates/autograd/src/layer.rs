//! The layer abstraction: explicit forward / backward with cached
//! activations.
//!
//! Instead of a dynamic tape, layers cache what their backward needs. This
//! "module" style mirrors how Megatron/Colossal-AI structure tensor-parallel
//! layers, makes activation checkpointing a wrapper (save the input,
//! recompute on demand; the wrapped caches are not dropped yet), and keeps
//! every simulated device's state fully thread-local.

use crate::param::Param;
use colossalai_tensor::Tensor;

/// A differentiable module.
///
/// Contract: `backward` must be called after `forward` with the upstream
/// gradient of the most recent forward's output, and consumes the cached
/// activations (one backward per forward, like PyTorch's default
/// `retain_graph=False`).
pub trait Layer {
    /// Computes the output and caches whatever backward will need.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates the upstream gradient, accumulating into parameter grads
    /// and returning the gradient w.r.t. the input.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Like [`Layer::backward`], but fires `on_stage(stage_grads)` after each
    /// sub-layer stage finishes its backward, where `stage_grads` holds the
    /// stage's final parameter gradients (cheap copy-on-write clones, in
    /// [`Layer::visit_params`] order). At that point those gradients are
    /// final, so gradient-sync buckets can launch while the rest of the
    /// backward still runs. Stages fire in backward (reverse-forward) order:
    /// the fired slices always describe a growing *suffix* of the visit-order
    /// parameter list. The default treats the whole layer as one stage;
    /// containers like [`Sequential`] fire per sub-layer.
    fn backward_staged(&mut self, dy: &Tensor, on_stage: &mut dyn FnMut(&[Tensor])) -> Tensor {
        let dx = self.backward(dy);
        let mut grads = Vec::new();
        self.visit_params(&mut |p| grads.push(p.grad().clone()));
        on_stage(&grads);
        dx
    }

    /// Visits every parameter (for optimizers, counting, checkpointing).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Clears all gradient accumulators.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn n_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }
}

impl<L: Layer + ?Sized> Layer for Box<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        (**self).forward(x)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        (**self).backward(dy)
    }
    fn backward_staged(&mut self, dy: &Tensor, on_stage: &mut dyn FnMut(&[Tensor])) -> Tensor {
        (**self).backward_staged(dy, on_stage)
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        (**self).visit_params(f)
    }
}

/// A chain of layers applied in sequence.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut cur = dy.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        cur
    }

    fn backward_staged(&mut self, dy: &Tensor, on_stage: &mut dyn FnMut(&[Tensor])) -> Tensor {
        let mut cur = dy.clone();
        for l in self.layers.iter_mut().rev() {
            // recurse so nested containers fire their own finer stages
            cur = l.backward_staged(&cur, on_stage);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// Finite-difference gradient check for any layer: compares the analytic
/// input gradient and parameter gradients against central differences of the
/// scalar objective `sum(forward(x) * dy)`.
///
/// Intended for tests; `eps` around `1e-3` and `tol` around `1e-2` work well
/// in f32.
pub fn grad_check(layer: &mut dyn Layer, x: &Tensor, eps: f32, tol: f32) -> Result<(), String> {
    use colossalai_tensor::init;
    let mut rng = init::rng(0x9e3779b9);
    let y = layer.forward(x);
    let dy = init::uniform(y.shape().clone(), -1.0, 1.0, &mut rng);
    layer.zero_grad();
    let dx = layer.backward(&dy);

    let objective = |layer: &mut dyn Layer, x: &Tensor| -> f32 {
        let y = layer.forward(x);
        // a forward used only for probing still caches activations; flush
        // them with a dummy backward so state stays consistent
        let _ = layer.backward(&dy);
        y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
    };

    // input gradient
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        // parameter grads polluted by probe backwards are rebuilt below
        let fd = (objective(layer, &xp) - objective(layer, &xm)) / (2.0 * eps);
        let got = dx.data()[i];
        if (got - fd).abs() > tol * (1.0 + fd.abs()) {
            return Err(format!("dx[{i}]: analytic {got} vs fd {fd}"));
        }
    }

    // parameter gradients: snapshot analytic grads first
    let mut analytic: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| analytic.push(p.grad().clone()));
    // restore grads clobbered by probing? They were accumulated during
    // probes; instead re-run a clean backward to rebuild them:
    layer.zero_grad();
    let _ = layer.forward(x);
    let _ = layer.backward(&dy);
    analytic.clear();
    layer.visit_params(&mut |p| analytic.push(p.grad().clone()));

    for (pi, analytic_grad) in analytic.iter().enumerate() {
        let numel = analytic_grad.numel();
        for i in 0..numel.min(24) {
            // perturb parameter pi element i
            fn nudge(layer: &mut dyn Layer, pi: usize, i: usize, delta: f32) {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value_mut().data_mut()[i] += delta;
                    }
                    idx += 1;
                });
            }
            nudge(layer, pi, i, eps);
            let fp = objective(layer, x);
            nudge(layer, pi, i, -2.0 * eps);
            let fm = objective(layer, x);
            nudge(layer, pi, i, eps); // restore
            let fd = (fp - fm) / (2.0 * eps);
            let got = analytic_grad.data()[i];
            if (got - fd).abs() > tol * (1.0 + fd.abs()) {
                return Err(format!("param {pi} grad[{i}]: analytic {got} vs fd {fd}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use colossalai_tensor::init;

    #[test]
    fn sequential_chains_layers() {
        let mut rng = init::rng(1);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 6, true, &mut rng)),
            Box::new(Linear::from_rng("l2", 6, 3, true, &mut rng)),
        ]);
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        let y = seq.forward(&x);
        assert_eq!(y.dims(), &[2, 3]);
        let dx = seq.backward(&Tensor::ones([2, 3]));
        assert_eq!(dx.dims(), &[2, 4]);
        assert_eq!(seq.n_params(), 4 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn backward_staged_fires_suffix_counts_in_reverse() {
        let mut rng = init::rng(3);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 6, true, &mut rng)), // 2 params
            Box::new(crate::act::Gelu::new()),                      // 0 params
            Box::new(Linear::from_rng("l2", 6, 3, false, &mut rng)), // 1 param
        ]);
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        let y1 = seq.forward(&x);

        let mut counts = Vec::new();
        let dx_staged =
            seq.backward_staged(&Tensor::ones([2, 3]), &mut |stage| counts.push(stage.len()));
        assert_eq!(counts, vec![1, 0, 2], "reverse-forward order");
        assert_eq!(counts.iter().sum::<usize>(), 3, "covers every param");

        // staged backward computes exactly what plain backward computes
        let y2 = seq.forward(&x);
        assert_eq!(y1.data(), y2.data());
        let dx_plain = seq.backward(&Tensor::ones([2, 3]));
        assert_eq!(dx_staged.data(), dx_plain.data());
    }

    #[test]
    fn default_backward_staged_is_one_stage() {
        let mut rng = init::rng(4);
        let mut lin = Linear::from_rng("l", 3, 2, true, &mut rng);
        let x = init::uniform([1, 3], -1.0, 1.0, &mut rng);
        let _ = lin.forward(&x);
        let mut counts = Vec::new();
        let _ = lin.backward_staged(&Tensor::ones([1, 2]), &mut |stage| counts.push(stage.len()));
        assert_eq!(counts, vec![2], "weight + bias as a single stage");
        let _ = lin.forward(&x);
        let mut stage_grads = Vec::new();
        let _ = lin.backward_staged(&Tensor::ones([1, 2]), &mut |stage| {
            stage_grads.extend(stage.iter().cloned());
        });
        let mut direct = Vec::new();
        lin.visit_params(&mut |p| direct.push(p.grad().clone()));
        assert_eq!(stage_grads.len(), direct.len());
        for (s, d) in stage_grads.iter().zip(&direct) {
            assert_eq!(s.data(), d.data(), "staged grads are the real grads");
        }
    }

    #[test]
    fn sequential_grad_check() {
        let mut rng = init::rng(2);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 3, 5, true, &mut rng)),
            Box::new(crate::act::Gelu::new()),
            Box::new(Linear::from_rng("l2", 5, 2, false, &mut rng)),
        ]);
        let x = init::uniform([4, 3], -1.0, 1.0, &mut rng);
        grad_check(&mut seq, &x, 1e-2, 5e-2).unwrap();
    }
}
