//! Distributed data parallelism: replicated model, sharded batch, gradient
//! all-reduce — the baseline every ZeRO stage must match bitwise.
//!
//! A data-parallel rank drives its replica plus the shared gradient reducer
//! keeping whole buckets
//! ([`GradReducer::data_parallel`](crate::bucket::GradReducer::data_parallel)),
//! exactly as a ZeRO rank drives its model plus the same reducer keeping
//! shards. This module holds the batch split and the flat views of a model
//! that tests and benchmarks compare replicas by.

use crate::bucket::FlatLayout;
use colossalai_autograd::{Layer, Param};
use colossalai_tensor::Tensor;

/// Splits a global batch along dim 0 for `rank` of `p` (every rank sees the
/// same deterministic global batch and takes its slice).
pub fn split_batch(x: &Tensor, p: usize, rank: usize) -> Tensor {
    x.chunk(0, p).swap_remove(rank)
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
    use crate::bucket::{GradReducer, DEFAULT_BUCKET_BYTES};
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
            let mut model = make_model(603);
            let mut reducer = GradReducer::data_parallel(&mut model, DEFAULT_BUCKET_BYTES);
            let mut opt = AdamW::new(0.01, 0.01);
            for s in 0..steps {
                model.zero_grad();
                let x_local = split_batch(&xs[s], p, g.rank());
                let t_local: Vec<usize> = targets[s].chunks(8 / p).nth(g.rank()).unwrap().to_vec();
                let logits = model.forward(&x_local);
                // cross_entropy means over the local rows; averaging those
                // local means across ranks (the reducer's 1/p) equals the
                // serial mean over the full batch, since shards are equal.
                let (_, dlogits) = cross_entropy(&logits, &t_local);
                let _ = model.backward(&dlogits);
                reducer.reduce(ctx, &g, &mut model);
                opt.step_layer(&mut model);
            }
            flatten_params(&mut model)
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
            let mut model = make_model(604);
            let mut reducer = GradReducer::data_parallel(&mut model, DEFAULT_BUCKET_BYTES);
            // different data per rank
            let mut rng = init::rng(700 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
            let y = model.forward(&x);
            let _ = model.backward(&Tensor::ones(y.shape().clone()));
            reducer.reduce(ctx, &g, &mut model);
            flatten_grads(&mut model)
        });
        assert_eq!(grads[0].data(), grads[1].data());
    }
}
