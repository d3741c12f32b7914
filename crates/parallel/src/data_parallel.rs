//! Distributed data parallelism: replicated model, sharded batch, gradient
//! all-reduce — the baseline every ZeRO stage must match bitwise.
//!
//! Gradient sync is the shared gradient reducer (`crate::bucket`) keeping
//! whole buckets, plus a write-back into the model: gradients are fused
//! into size-capped flat buckets (default 25 MB) so each bucket pays one
//! all-reduce latency term instead of one per parameter. With
//! [`DataParallel::with_overlap`], each bucket's all-reduce launches on the
//! comm stream as soon as its last gradient is produced during backward,
//! hiding communication behind the remaining backward compute. Both paths
//! are bit-identical to naive per-parameter all-reduce.

use crate::bucket::{BucketedGradSync, FlatLayout, DEFAULT_BUCKET_BYTES};
use colossalai_autograd::{Layer, Param};
use colossalai_comm::{Compression, DeviceCtx, Group};
use colossalai_tensor::Tensor;

/// Splits a global batch along dim 0 for `rank` of `p` (every rank sees the
/// same deterministic global batch and takes its slice).
pub fn split_batch(x: &Tensor, p: usize, rank: usize) -> Tensor {
    x.chunk(0, p).swap_remove(rank)
}

/// Wraps a replicated model with data-parallel gradient synchronization.
pub struct DataParallel<M: Layer> {
    ctx: DeviceCtx,
    group: Group,
    model: M,
    sync: BucketedGradSync,
    overlap: bool,
}

impl<M: Layer> DataParallel<M> {
    /// The model must have been constructed identically on every rank (same
    /// seed) — exactly how real DDP assumes rank-0 broadcast weights.
    /// Gradient sync is fused into [`DEFAULT_BUCKET_BYTES`] buckets and
    /// blocks at the end of backward; see [`DataParallel::with_overlap`].
    pub fn new(ctx: &DeviceCtx, group: &Group, model: M) -> Self {
        Self::with_bucket_bytes(ctx, group, model, DEFAULT_BUCKET_BYTES)
    }

    /// Like [`DataParallel::new`] with an explicit bucket capacity in bytes.
    pub fn with_bucket_bytes(
        ctx: &DeviceCtx,
        group: &Group,
        mut model: M,
        bucket_bytes: usize,
    ) -> Self {
        let sync = BucketedGradSync::new(&mut model, bucket_bytes);
        DataParallel {
            ctx: ctx.clone(),
            group: group.clone(),
            model,
            sync,
            overlap: false,
        }
    }

    /// Enables (or disables) backward-overlapped gradient sync: each
    /// bucket's all-reduce launches on the comm stream as soon as its last
    /// gradient is produced, and backward ends with a stream join.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Selects the lossy gradient-compression channel (top-k / int8 / fp16
    /// with error feedback); the sync engine starts exact.
    pub fn with_compression(mut self, comp: Compression) -> Self {
        self.sync = self.sync.with_compression(comp);
        self
    }

    /// The bucket-sync engine (for inspecting its reducer).
    pub fn grad_sync(&self) -> &BucketedGradSync {
        &self.sync
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }
}

impl<M: Layer> Layer for DataParallel<M> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.model.forward(x)
    }

    /// Backward through the local replica, then all-reduce the gradients
    /// (one fused collective per bucket, overlapped with backward compute
    /// when enabled), leaving the *mean* gradient on every rank.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (ctx, group, model) = (&self.ctx, &self.group, &mut self.model);
        if self.overlap {
            self.sync.backward_overlapped(ctx, group, model, dy)
        } else {
            let dx = model.backward(dy);
            self.sync.sync_blocking(ctx, group, model);
            dx
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.model.visit_params(f);
    }
}

/// `pick` of every parameter as one flat tensor, in `visit_params` order.
fn flatten(model: &mut dyn Layer, pick: fn(&Param) -> &Tensor) -> Tensor {
    let flat = FlatLayout::whole(model)
        .gather_all(model, pick)
        .swap_remove(0);
    Tensor::from_vec([flat.len()], flat)
}

/// Flattens all parameter values of a model into one vector (ZeRO's working
/// representation). Order is the model's `visit_params` order.
pub fn flatten_params(model: &mut dyn Layer) -> Tensor {
    flatten(model, Param::value)
}

/// Flattens all parameter gradients into one vector.
pub fn flatten_grads(model: &mut dyn Layer) -> Tensor {
    flatten(model, Param::grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::{AdamW, Linear, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;
    use colossalai_topology::systems::system_i;

    fn make_model(seed: u64) -> Sequential {
        let mut rng = init::rng(seed);
        Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 8, true, &mut rng)),
            Box::new(colossalai_autograd::Gelu::new()),
            Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
        ])
    }

    #[test]
    fn flatten_roundtrip() {
        let mut m = make_model(600);
        let flat = flatten_params(&mut m);
        assert_eq!(flat.numel(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut m2 = make_model(601); // different weights
        FlatLayout::whole(&mut m2).scatter_values(&mut m2, std::slice::from_ref(&flat));
        assert_eq!(flatten_params(&mut m2), flat);
    }

    #[test]
    fn dp_training_equals_serial_large_batch() {
        // DP over p ranks on a batch of p*k must produce the same parameter
        // trajectory as serial training on the full batch
        let p = 4;
        let steps = 3;
        let mut rng = init::rng(602);
        let xs: Vec<Tensor> = (0..steps)
            .map(|_| init::uniform([8, 4], -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Vec<usize>> = (0..steps)
            .map(|s| (0..8).map(|i| (i + s) % 3).collect())
            .collect();

        // serial reference
        let mut serial = make_model(603);
        let mut s_opt = AdamW::new(0.01, 0.01);
        for s in 0..steps {
            serial.zero_grad();
            let logits = serial.forward(&xs[s]);
            let (_, dlogits) = cross_entropy(&logits, &targets[s]);
            let _ = serial.backward(&dlogits);
            s_opt.step_layer(&mut serial);
        }
        let want = flatten_params(&mut serial);

        // data-parallel run
        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut dp = DataParallel::new(ctx, &g, make_model(603));
            let mut opt = AdamW::new(0.01, 0.01);
            for s in 0..steps {
                dp.zero_grad();
                let x_local = split_batch(&xs[s], p, g.rank());
                let t_local: Vec<usize> = targets[s].chunks(8 / p).nth(g.rank()).unwrap().to_vec();
                let logits = dp.forward(&x_local);
                // cross_entropy means over the local rows; averaging those
                // local means across ranks (the sync_grads 1/p) equals the
                // serial mean over the full batch, since shards are equal.
                let (_, dlogits) = cross_entropy(&logits, &t_local);
                let _ = dp.backward(&dlogits);
                opt.step_layer(&mut dp);
            }
            flatten_params(&mut dp)
        });
        for r in &results {
            assert!(
                r.allclose(&want, 1e-5),
                "DP diverged from serial by {}",
                r.max_abs_diff(&want)
            );
        }
        // and all ranks agree exactly
        assert_eq!(results[0].data(), results[1].data());
    }

    #[test]
    fn sync_grads_produces_identical_grads() {
        let p = 2;
        let world = World::new(system_i());
        let grads = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut dp = DataParallel::new(ctx, &g, make_model(604));
            // different data per rank
            let mut rng = init::rng(700 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
            let y = dp.forward(&x);
            let _ = dp.backward(&Tensor::ones(y.shape().clone()));
            flatten_grads(&mut dp)
        });
        assert_eq!(grads[0].data(), grads[1].data());
    }
}
