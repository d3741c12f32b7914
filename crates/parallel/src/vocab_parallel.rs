//! Vocabulary-parallel embedding and cross-entropy (the Megatron-LM
//! technique Colossal-AI ships for sharding a Transformer *end to end*:
//! with the token embedding and the LM head split along the vocabulary,
//! no rank ever materializes the full `[tokens, vocab]` logit matrix).

use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::{pool, Tensor};

/// Token embedding with the vocabulary dimension sharded across the group:
/// rank `r` owns rows `[r * V/p, (r+1) * V/p)`. Lookups outside a rank's
/// slice contribute zero; the all-reduce of the partial lookups rebuilds
/// the full embedding — one collective per forward, like Megatron.
pub struct VocabParallelEmbedding {
    ctx: DeviceCtx,
    group: Group,
    table: Param,
    vocab_global: usize,
    vocab_start: usize,
    cached_indices: Option<Vec<usize>>,
}

impl VocabParallelEmbedding {
    /// Builds from a shared seed: every rank draws the identical global
    /// `[vocab, dim]` table, then keeps its slice (matching
    /// [`colossalai_autograd::Embedding::new`]'s draw order).
    pub fn new(
        ctx: &DeviceCtx,
        group: &Group,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Self {
        let p = group.size();
        assert!(
            vocab.is_multiple_of(p),
            "vocabulary {vocab} not divisible by the parallel size {p}"
        );
        let global = init::normal([vocab, dim], 0.0, 0.02, rng);
        let local = global.chunk(0, p).swap_remove(group.rank());
        VocabParallelEmbedding {
            ctx: ctx.clone(),
            group: group.clone(),
            table: Param::new(format!("{name}.table"), local),
            vocab_global: vocab,
            vocab_start: group.rank() * (vocab / p),
            cached_indices: None,
        }
    }

    fn local_vocab(&self) -> usize {
        self.table.value().dims()[0]
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.value().dims()[1]
    }
}

impl Layer for VocabParallelEmbedding {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let dim = self.dim();
        let (start, local) = (self.vocab_start, self.local_vocab());
        let indices: Vec<usize> = x
            .data()
            .iter()
            .map(|&v| {
                let i = v as usize;
                assert!(
                    v >= 0.0 && v.fract() == 0.0 && i < self.vocab_global,
                    "index {v} invalid for vocab {}",
                    self.vocab_global
                );
                i
            })
            .collect();
        let mut out = pool::take_zeroed(indices.len() * dim);
        for (row, &i) in indices.iter().enumerate() {
            if (start..start + local).contains(&i) {
                let li = i - start;
                out[row * dim..(row + 1) * dim]
                    .copy_from_slice(&self.table.value().data()[li * dim..(li + 1) * dim]);
            }
        }
        self.cached_indices = Some(indices);
        let mut dims = x.dims().to_vec();
        dims.push(dim);
        let partial = Tensor::from_vec(dims, out);
        self.group.all_reduce(&self.ctx, partial)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let indices = self.cached_indices.take().expect("backward before forward");
        let dim = self.dim();
        let (start, local) = (self.vocab_start, self.local_vocab());
        {
            let grad = self.table.grad_mut().data_mut();
            for (row, &i) in indices.iter().enumerate() {
                if (start..start + local).contains(&i) {
                    let li = i - start;
                    for d in 0..dim {
                        grad[li * dim + d] += dy.data()[row * dim + d];
                    }
                }
            }
        }
        Tensor::zeros(dy.dims()[..dy.rank() - 1].to_vec())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// Cross-entropy over vocabulary-sharded logits `[rows, V/p]` without ever
/// gathering the full logit matrix:
///
/// 1. global row max — scalar-per-row `all_reduce_max`;
/// 2. global `sum(exp)` — `all_reduce`;
/// 3. the target logit — contributed by its owning rank, `all_reduce`.
///
/// Returns `(mean loss, local dlogits)`; the gradient is the local slice of
/// `(softmax - onehot) / rows`, so chaining into a column-parallel LM head
/// needs no further conversion.
pub fn vocab_parallel_cross_entropy(
    ctx: &DeviceCtx,
    group: &Group,
    logits_local: &Tensor,
    targets: &[usize],
) -> (f32, Tensor) {
    assert_eq!(logits_local.rank(), 2, "logits must be [rows, vocab/p]");
    let rows = logits_local.dims()[0];
    let local_v = logits_local.dims()[1];
    assert_eq!(targets.len(), rows, "target count mismatch");
    let p = group.size();
    let start = group.rank() * local_v;
    let vocab_global = local_v * p;

    // 1. stable max over the global vocabulary
    let local_max = colossalai_tensor::ops::max_axis(logits_local, 1);
    let global_max = group.all_reduce_max(ctx, local_max);

    // 2. global sum of exp
    let mut exps = logits_local.clone();
    for (r, row) in exps.data_mut().chunks_mut(local_v).enumerate() {
        let m = global_max.data()[r];
        for v in row.iter_mut() {
            *v = (*v - m).exp();
        }
    }
    let local_sum = colossalai_tensor::ops::sum_axis(&exps, 1);
    let global_sum = group.all_reduce(ctx, local_sum);

    // 3. the target logit, owned by exactly one rank per row
    let mut target_partial = Tensor::zeros([rows]);
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < vocab_global, "target {t} out of vocab {vocab_global}");
        if (start..start + local_v).contains(&t) {
            target_partial.data_mut()[r] = logits_local.at(&[r, t - start]);
        }
    }
    let target_logit = group.all_reduce(ctx, target_partial);

    // loss = mean(log(sum) + max - target)
    let mut loss = 0.0f64;
    for r in 0..rows {
        loss += (global_sum.data()[r].ln() + global_max.data()[r] - target_logit.data()[r]) as f64;
    }
    let loss = (loss / rows as f64) as f32;

    // gradient: local softmax minus the one-hot where owned
    let mut grad = exps;
    for (r, row) in grad.data_mut().chunks_mut(local_v).enumerate() {
        let inv = 1.0 / global_sum.data()[r];
        for v in row.iter_mut() {
            *v *= inv;
        }
        let t = targets[r];
        if (start..start + local_v).contains(&t) {
            row[t - start] -= 1.0;
        }
    }
    grad.scale(1.0 / rows as f32);
    (loss, grad)
}

/// The global mean loss when the rows are spread over devices: this
/// device's `local` mean over the `targets.len()` of `total` rows it holds
/// counts for that share (a device may hold none), and the shares are summed
/// over `groups`, one after the other. Returns the global loss and the
/// gradient of the local logits.
pub(crate) fn mean_loss_over_rows(
    ctx: &DeviceCtx,
    groups: &[Group],
    logits: &Tensor,
    targets: &[usize],
    total: usize,
    local: impl FnOnce(&Tensor, &[usize]) -> (f32, Tensor),
) -> (f32, Tensor) {
    let share = targets.len() as f32 / total as f32;
    let (loss, mut grad) = if targets.is_empty() {
        (0.0, logits.clone())
    } else {
        local(logits, targets)
    };
    grad.scale(share);
    let mut loss = Tensor::scalar(loss * share);
    for group in groups {
        loss = group.all_reduce(ctx, loss);
    }
    (loss.item(), grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::Embedding;
    use colossalai_comm::World;
    use colossalai_tensor::ops::cross_entropy;
    use colossalai_topology::systems::system_i;

    #[test]
    fn vocab_parallel_embedding_matches_serial() {
        let (vocab, dim, p) = (12usize, 4usize, 4usize);
        let x = Tensor::from_vec([2, 3], vec![0., 5., 11., 3., 5., 7.]);
        let dy_seed = 801;

        let mut rng = init::rng(800);
        let mut serial = Embedding::new("emb", vocab, dim, &mut rng);
        let y_want = serial.forward(&x);
        let mut drng = init::rng(dy_seed);
        let dy = init::uniform([2, 3, dim], -1.0, 1.0, &mut drng);
        let _ = serial.backward(&dy);
        let dtable_want = serial.visit_collect();

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut rng = init::rng(800);
            let mut emb = VocabParallelEmbedding::new(ctx, &g, "emb", vocab, dim, &mut rng);
            let y = emb.forward(&x);
            let mut drng = init::rng(dy_seed);
            let dy = init::uniform([2, 3, dim], -1.0, 1.0, &mut drng);
            let _ = emb.backward(&dy);
            let mut grads = Vec::new();
            emb.visit_params(&mut |p| grads.push(p.grad().clone()));
            (y, grads.swap_remove(0))
        });
        for (y, _) in &results {
            assert!(
                y.allclose(&y_want, 1e-5),
                "fwd diff {}",
                y.max_abs_diff(&y_want)
            );
        }
        // the table-grad shards reassemble the serial table grad
        let shards: Vec<Tensor> = results.iter().map(|(_, g)| g.clone()).collect();
        let dtable_got = Tensor::cat(&shards, 0);
        assert!(dtable_got.allclose(&dtable_want, 1e-5));
    }

    trait VisitCollect {
        fn visit_collect(&mut self) -> Tensor;
    }
    impl VisitCollect for Embedding {
        fn visit_collect(&mut self) -> Tensor {
            let mut out = Tensor::zeros([0]);
            self.visit_params(&mut |p| out = p.grad().clone());
            out
        }
    }

    #[test]
    fn parallel_cross_entropy_matches_serial() {
        let (rows, vocab, p) = (5usize, 8usize, 4usize);
        let mut rng = init::rng(810);
        let logits = init::uniform([rows, vocab], -3.0, 3.0, &mut rng);
        let targets = vec![0usize, 3, 7, 4, 2];
        let (want_loss, want_grad) = cross_entropy(&logits, &targets);

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let local = logits.chunk(1, p).swap_remove(g.rank());
            vocab_parallel_cross_entropy(ctx, &g, &local, &targets)
        });
        for (r, (loss, grad)) in results.iter().enumerate() {
            assert!(
                (loss - want_loss).abs() < 1e-5,
                "loss {loss} vs {want_loss}"
            );
            let want_slice = want_grad.chunk(1, p).swap_remove(r);
            assert!(
                grad.allclose(&want_slice, 1e-6),
                "rank {r} grad diff {}",
                grad.max_abs_diff(&want_slice)
            );
        }
    }

    #[test]
    fn parallel_ce_is_stable_under_huge_logits() {
        // the global-max subtraction must prevent overflow even when the
        // row max lives on another rank
        let (rows, vocab, p) = (2usize, 4usize, 2usize);
        let logits = Tensor::from_vec(
            [rows, vocab],
            vec![
                1000.0, 0.0, 0.0, 999.0, // max on rank 0
                0.0, 2000.0, 1999.0, 0.0, // max on rank 0's slice too? no: col 1
            ],
        );
        let targets = vec![0usize, 1];
        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let local = logits.chunk(1, p).swap_remove(g.rank());
            vocab_parallel_cross_entropy(ctx, &g, &local, &targets)
        });
        for (loss, grad) in &results {
            assert!(loss.is_finite(), "loss overflowed");
            assert!(grad.data().iter().all(|v| v.is_finite()));
        }
        // near-perfect predictions -> near-zero loss
        assert!(results[0].0 < 0.5, "loss {}", results[0].0);
    }

    #[test]
    #[should_panic(expected = "device thread panicked")]
    fn embedding_requires_divisible_vocab() {
        let world = World::new(system_i());
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut rng = init::rng(0);
            let _ = VocabParallelEmbedding::new(ctx, &g, "e", 10, 4, &mut rng);
        });
    }
}
