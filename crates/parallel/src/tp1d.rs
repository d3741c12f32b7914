//! 1D (Megatron-LM) tensor parallelism: column- and row-parallel linear
//! layers and the [`TensorParallel1d`] mode that assembles them into the
//! parallel MLP of Fig 4 and head-split parallel attention.
//!
//! This is both a feature of Colossal-AI and the *baseline* of every tensor
//! parallelism experiment in the paper ("Megatron-LM tensor parallelism is
//! annotated as 1D").

use crate::vocab_parallel::{vocab_parallel_cross_entropy, VocabParallelEmbedding};
use colossalai_autograd::{Layer, LayerNorm, Linear, Param, PositionEmbedding};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_models::{Layout, TensorParallel};
use colossalai_tensor::init::InitRng;
use colossalai_tensor::ops::sum_axis;
use colossalai_tensor::Tensor;

/// Shards a `[in, out]` weight along its output (column) dimension.
fn shard_cols(w: &Tensor, parts: usize, rank: usize) -> Tensor {
    w.chunk(1, parts).swap_remove(rank)
}

/// Shards a `[in, out]` weight along its input (row) dimension.
fn shard_rows(w: &Tensor, parts: usize, rank: usize) -> Tensor {
    w.chunk(0, parts).swap_remove(rank)
}

/// Column-parallel linear: `W` split along the output dimension; the input
/// is replicated, each rank computes a slice of the output.
///
/// Forward: no communication (optionally an all-gather when
/// `gather_output`). Backward: one all-reduce of the input gradient.
pub struct ColumnParallelLinear {
    ctx: DeviceCtx,
    group: Group,
    local: Linear,
    gather_output: bool,
    full_out: usize,
}

impl ColumnParallelLinear {
    /// Builds from the *global* weight/bias, which every rank constructs
    /// identically from a shared seed and then shards.
    pub fn from_global(
        ctx: &DeviceCtx,
        group: &Group,
        name: &str,
        w_global: &Tensor,
        b_global: Option<&Tensor>,
        gather_output: bool,
    ) -> Self {
        let p = group.size();
        let r = group.rank();
        let w = shard_cols(w_global, p, r);
        let b = b_global.map(|b| b.chunk(0, p).swap_remove(r));
        ColumnParallelLinear {
            ctx: ctx.clone(),
            group: group.clone(),
            local: Linear::from_parts(name, w, b),
            gather_output,
            full_out: w_global.dims()[1],
        }
    }
}

impl Layer for ColumnParallelLinear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.local.forward(x);
        if self.gather_output {
            let dim = y.rank() - 1;
            self.group.all_gather_cat(&self.ctx, y, dim)
        } else {
            y
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dy_local = if self.gather_output {
            let dim = dy.rank() - 1;
            assert_eq!(*dy.dims().last().unwrap(), self.full_out);
            let each = self.full_out / self.group.size();
            dy.narrow(dim, self.group.rank() * each, each)
        } else {
            dy.clone()
        };
        let dx_partial = self.local.backward(&dy_local);
        // each rank holds the contribution of its column block; the true
        // input gradient is their sum
        self.group.all_reduce(&self.ctx, dx_partial)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.local.visit_params(f);
    }
}

/// Row-parallel linear: `W` split along the input dimension; the input
/// arrives split along its last dimension (the output of a preceding
/// column-parallel layer), each rank computes a partial full-width output
/// that is all-reduced, and the input gradient stays split.
pub struct RowParallelLinear {
    ctx: DeviceCtx,
    group: Group,
    local: Linear,
    /// Bias replicated on every rank and added after the all-reduce (adding
    /// sharded biases before reduction would multiply it by `p`).
    bias: Option<Param>,
}

impl RowParallelLinear {
    pub fn from_global(
        ctx: &DeviceCtx,
        group: &Group,
        name: &str,
        w_global: &Tensor,
        b_global: Option<&Tensor>,
    ) -> Self {
        let p = group.size();
        let r = group.rank();
        let w = shard_rows(w_global, p, r);
        RowParallelLinear {
            ctx: ctx.clone(),
            group: group.clone(),
            local: Linear::from_parts(name, w, None),
            bias: b_global.map(|b| Param::new(format!("{name}.bias"), b.clone())),
        }
    }
}

impl Layer for RowParallelLinear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y_partial = self.local.forward(x);
        let y = self.group.all_reduce(&self.ctx, y_partial);
        match &self.bias {
            Some(b) => y.add_bias(b.value()),
            None => y,
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        if let Some(b) = &mut self.bias {
            let (rows, out) = dy.shape().as_matrix();
            b.accumulate_grad(&sum_axis(&dy.reshape([rows, out]), 0));
        }
        // dy is replicated (it is the gradient of the all-reduced output),
        // so the local weight-shard gradient needs no communication
        self.local.backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.local.visit_params(f);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// Megatron's `f` operator around a residual branch: identity forward, one
/// all-reduce of the input gradient backward. The branch's entering linears
/// are plain column shards, so the partial input gradients of Q, K and V are
/// summed locally first and cross the wire once.
pub struct ParallelRegion {
    ctx: DeviceCtx,
    group: Group,
    inner: Box<dyn Layer>,
}

impl Layer for ParallelRegion {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dx_partial = self.inner.backward(dy);
        self.group.all_reduce(&self.ctx, dx_partial)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

/// 1D tensor parallelism as a [`TensorParallel`] mode: the stream is
/// replicated, a branch splits the hidden axis (heads, MLP width,
/// vocabulary) `p` ways. Each block costs the two all-reduces per branch of
/// Fig 4: the row-parallel output forward, the branch entry backward.
/// Requires `heads % p == 0` — the very restriction that forces Fig 12's 1D
/// baseline onto 4/6/12 GPUs.
#[derive(Clone)]
pub struct TensorParallel1d {
    ctx: DeviceCtx,
    group: Group,
}

impl TensorParallel1d {
    pub fn new(ctx: &DeviceCtx, group: &Group) -> Self {
        TensorParallel1d {
            ctx: ctx.clone(),
            group: group.clone(),
        }
    }
}

impl TensorParallel for TensorParallel1d {
    fn linear(
        &self,
        name: &str,
        w: Tensor,
        b: Option<Tensor>,
        from: Layout,
        to: Layout,
        gelu: bool,
    ) -> Box<dyn Layer> {
        let (p, r) = (self.group.size(), self.group.rank());
        match (from, to) {
            (Layout::Stream, Layout::Branch) => {
                let b = b.map(|b| b.chunk(0, p).swap_remove(r));
                let local = Linear::from_parts(name, shard_cols(&w, p, r), b);
                Box::new(if gelu { local.with_gelu() } else { local })
            }
            (Layout::Branch, Layout::Stream) => Box::new(RowParallelLinear::from_global(
                &self.ctx,
                &self.group,
                name,
                &w,
                b.as_ref(),
            )),
            // the stream is the full tensor on every rank
            _ => Box::new(Linear::from_parts(name, w, b)),
        }
    }

    fn layer_norm(&self, name: &str, dim: usize) -> Box<dyn Layer> {
        Box::new(LayerNorm::new(name, dim))
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads / self.group.size()
    }

    fn branch(&self, inner: Box<dyn Layer>) -> Box<dyn Layer> {
        Box::new(ParallelRegion {
            ctx: self.ctx.clone(),
            group: self.group.clone(),
            inner,
        })
    }

    fn token_embedding(
        &self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        Box::new(VocabParallelEmbedding::new(
            &self.ctx,
            &self.group,
            name,
            vocab,
            dim,
            rng,
        ))
    }

    fn position_embedding(
        &self,
        name: &str,
        max_seq: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        Box::new(PositionEmbedding::new(name, max_seq, dim, rng))
    }

    fn loss(&self, logits: &Tensor, targets: &[usize], total: usize) -> (f32, Tensor) {
        assert_eq!(targets.len(), total, "every 1D rank holds every row");
        vocab_parallel_cross_entropy(&self.ctx, &self.group, logits, targets)
    }

    fn shard(&self, x: &Tensor, _layout: Layout) -> Tensor {
        x.clone()
    }

    fn gather(&self, y: &Tensor, layout: Layout) -> Tensor {
        match layout {
            Layout::Branch => self
                .group
                .all_gather_cat(&self.ctx, y.clone(), y.rank() - 1),
            _ => y.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    /// Builds identical global weights on every rank from a shared seed.
    fn global_linear_weights(d_in: usize, d_out: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = init::rng(seed);
        (
            init::lecun_normal(d_in, d_out, &mut rng),
            init::uniform([d_out], -0.1, 0.1, &mut rng),
        )
    }

    #[test]
    fn column_parallel_matches_serial() {
        let (w, b) = global_linear_weights(6, 8, 100);
        let mut rng = init::rng(101);
        let x = init::uniform([3, 6], -1.0, 1.0, &mut rng);
        let dy = init::uniform([3, 8], -1.0, 1.0, &mut rng);

        let mut serial = Linear::from_parts("s", w.clone(), Some(b.clone()));
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let world = World::new(system_i());
        let results = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut l = ColumnParallelLinear::from_global(ctx, &g, "c", &w, Some(&b), true);
            let y = l.forward(&x);
            let dx = l.backward(&dy);
            let mut wg = Vec::new();
            l.visit_params(&mut |p| wg.push(p.grad().clone()));
            (y, dx, wg)
        });
        for (y, dx, wg) in &results {
            assert!(y.allclose(&y_want, 1e-4), "forward diverged");
            assert!(dx.allclose(&dx_want, 1e-4), "input grad diverged");
            // each rank's weight-grad shard equals the serial grad's shard
            let _ = wg;
        }
        // check weight grad shards reassemble the serial weight grad
        let serial_wgrad = serial.weight().grad().clone();
        let shards: Vec<Tensor> = results.iter().map(|(_, _, wg)| wg[0].clone()).collect();
        let reassembled = Tensor::cat(&shards, 1);
        assert!(reassembled.allclose(&serial_wgrad, 1e-4));
    }

    #[test]
    fn row_parallel_matches_serial() {
        let (w, b) = global_linear_weights(8, 6, 102);
        let mut rng = init::rng(103);
        let x = init::uniform([3, 8], -1.0, 1.0, &mut rng);
        let dy = init::uniform([3, 6], -1.0, 1.0, &mut rng);

        let mut serial = Linear::from_parts("s", w.clone(), Some(b.clone()));
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let world = World::new(system_i());
        let results = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            // the input arrives split along its last dimension
            let x_local = x.narrow(1, g.rank() * 2, 2);
            let mut l = RowParallelLinear::from_global(ctx, &g, "r", &w, Some(&b));
            let y = l.forward(&x_local);
            let dx = l.backward(&dy);
            (y, dx)
        });
        for (y, _) in &results {
            assert!(y.allclose(&y_want, 1e-4), "forward diverged");
        }
        // the split input gradients reassemble the serial one
        let dx_shards: Vec<Tensor> = results.iter().map(|(_, dx)| dx.clone()).collect();
        assert!(
            Tensor::cat(&dx_shards, 1).allclose(&dx_want, 1e-4),
            "input grad diverged"
        );
    }
}
