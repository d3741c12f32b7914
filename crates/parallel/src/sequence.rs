//! Sequence parallelism (Li et al., Section 2.3): the model is replicated,
//! the *sequence* dimension of the input is split across devices, and
//! self-attention is computed with Ring Self-Attention — partial key/value
//! blocks circulate around the ring so every rank attends over the full
//! sequence while only ever owning `s/p` of every activation.
//!
//! Communication equivalence note: circulating K (and V) around the ring
//! for `p-1` steps moves exactly the traffic of a ring all-gather, and
//! returning the dK/dV contributions moves that of a ring reduce-scatter.
//! We implement the exchange with those collectives — same volume, same
//! ring bottleneck, substantially less bookkeeping.
//!
//! Every parameter is replicated: its [`Param::replicas`] name the ring, and
//! the gradient reducer sums it there.

use crate::vocab_parallel::mean_loss_over_rows;
use colossalai_autograd::{
    AttentionCore, Embedding, Layer, LayerNorm, Linear, LocalAttention, Param, PositionEmbedding,
};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_models::{Layout, TensorParallel};
use colossalai_tensor::init::InitRng;
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::Tensor;

/// Splits a `[b, s, ..]` tensor along the sequence dimension for `rank` of
/// `p` (test/data-loader helper).
fn split_sequence(x: &Tensor, p: usize, rank: usize) -> Tensor {
    x.chunk(1, p).swap_remove(rank)
}

/// Ring Self-Attention: the attention core over sequence-sharded
/// `[b, s/p, d]` queries, keys and values. Unlike 1D tensor parallelism,
/// *any* number of ranks works — heads are not divided, the sequence is.
/// (The Fig 12/13 advantage on 8 GPUs.) It is [`LocalAttention`] between
/// two collectives: the local queries attend over the full gathered keys
/// and values, and the key/value gradients go back to their owners.
pub struct RingSelfAttention {
    ctx: DeviceCtx,
    group: Group,
    local: LocalAttention,
}

impl RingSelfAttention {
    pub fn new(ctx: &DeviceCtx, group: &Group, heads: usize) -> Self {
        RingSelfAttention {
            ctx: ctx.clone(),
            group: group.clone(),
            local: LocalAttention::new(heads, false),
        }
    }
}

impl AttentionCore for RingSelfAttention {
    fn forward(&mut self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        // ring-circulate K and V blocks (= ring all-gather along sequence)
        let k_full = self.group.all_gather_cat(&self.ctx, k.clone(), 1);
        let v_full = self.group.all_gather_cat(&self.ctx, v.clone(), 1);
        self.local.forward(q, &k_full, &v_full)
    }

    fn backward(&mut self, dz: &Tensor) -> (Tensor, Tensor, Tensor) {
        let (dq, dk_full, dv_full) = self.local.backward(dz);
        // contributions to remote K/V blocks ride the ring back
        // (= ring reduce-scatter along sequence)
        let dk = self.group.reduce_scatter(&self.ctx, dk_full, 1);
        let dv = self.group.reduce_scatter(&self.ctx, dv_full, 1);
        (dq, dk, dv)
    }
}

/// Sequence parallelism as a [`TensorParallel`] mode: every parameter is
/// replicated, every activation holds `s/p` of the sequence. LayerNorm, the
/// MLP and the heads are pointwise along the sequence and run locally; only
/// attention rides the ring. The shards see different tokens, so every
/// parameter is marked replicated (the paper's sequence parallelism
/// inherits its gradient sum from its data-parallel ancestry), and the mark
/// names the ring.
#[derive(Clone)]
pub struct SequenceParallel {
    ctx: DeviceCtx,
    group: Group,
}

impl SequenceParallel {
    pub fn new(ctx: &DeviceCtx, group: &Group) -> Self {
        SequenceParallel {
            ctx: ctx.clone(),
            group: group.clone(),
        }
    }

    /// `layer` with every parameter marked replicated across the ring.
    fn replicate(&self, mut layer: impl Layer + 'static) -> Box<dyn Layer> {
        let ring = vec![self.group.members().to_vec()];
        layer.visit_params(&mut |p| p.replicas = ring.clone());
        Box::new(layer)
    }
}

/// Token embedding of this rank's sub-sequence of the full `[b, s]` ids.
struct LocalTokens {
    mode: SequenceParallel,
    inner: Embedding,
}

impl Layer for LocalTokens {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(&self.mode.shard(x, Layout::Stream))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

impl TensorParallel for SequenceParallel {
    fn linear(
        &self,
        name: &str,
        w: Tensor,
        b: Option<Tensor>,
        from: Layout,
        to: Layout,
        gelu: bool,
    ) -> Box<dyn Layer> {
        assert!(
            from != Layout::Full && to != Layout::Full,
            "sequence parallelism has no layer that enters or leaves the full sequence"
        );
        let linear = Linear::from_parts(name, w, b);
        self.replicate(if gelu { linear.with_gelu() } else { linear })
    }

    fn layer_norm(&self, name: &str, dim: usize) -> Box<dyn Layer> {
        self.replicate(LayerNorm::new(name, dim))
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads
    }

    fn attention_core(&self, heads: usize, causal: bool) -> Box<dyn AttentionCore> {
        assert!(!causal, "ring self-attention is bidirectional");
        Box::new(RingSelfAttention::new(&self.ctx, &self.group, heads))
    }

    fn token_embedding(
        &self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        self.replicate(LocalTokens {
            mode: self.clone(),
            inner: Embedding::new(name, vocab, dim, rng),
        })
    }

    fn position_embedding(
        &self,
        name: &str,
        max_seq: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        let pos = PositionEmbedding::new(name, max_seq, dim, rng);
        self.replicate(pos.at_seq_block(self.group.rank()))
    }

    fn loss(&self, logits: &Tensor, targets: &[usize], total: usize) -> (f32, Tensor) {
        let ring = std::slice::from_ref(&self.group);
        mean_loss_over_rows(&self.ctx, ring, logits, targets, total, cross_entropy)
    }

    fn shard(&self, x: &Tensor, layout: Layout) -> Tensor {
        match layout {
            Layout::Full => x.clone(),
            _ => split_sequence(x, self.group.size(), self.group.rank()),
        }
    }

    fn gather(&self, y: &Tensor, layout: Layout) -> Tensor {
        match layout {
            Layout::Full => y.clone(),
            _ => self.group.all_gather_cat(&self.ctx, y.clone(), 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::MultiHeadAttention;
    use colossalai_comm::{OpKind, World};
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_iii;

    type Weights = [(Tensor, Tensor); 4];

    fn weights(d: usize, seed: u64) -> Weights {
        [0, 1, 2, 3].map(|i| {
            let mut rng = init::rng(seed + i);
            (
                init::lecun_normal(d, d, &mut rng),
                init::uniform([d], -0.1, 0.1, &mut rng),
            )
        })
    }

    /// Attention with replicated Q/K/V/O projections around `core`.
    fn attention(w: &Weights, core: Box<dyn AttentionCore>) -> MultiHeadAttention {
        let mut projections = w.iter().zip(["q", "k", "v", "o"]).map(|((w, b), name)| {
            Box::new(Linear::from_parts(name, w.clone(), Some(b.clone()))) as Box<dyn Layer>
        });
        let mut next = || projections.next().unwrap();
        MultiHeadAttention::from_parts(next(), next(), next(), next(), core)
    }

    fn run_case(p: usize, b: usize, s: usize, d: usize, heads: usize, seed: u64) {
        let w = weights(d, seed);
        let mut rng = init::rng(seed + 4);
        let x = init::uniform([b, s, d], -1.0, 1.0, &mut rng);
        let dy = init::uniform([b, s, d], -1.0, 1.0, &mut rng);

        let mut serial = attention(&w, Box::new(LocalAttention::new(heads, false)));
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);
        let mut g_want = Vec::new();
        serial.visit_params(&mut |p| g_want.push(p.grad().clone()));

        let world = World::new(system_iii());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut rsa = attention(&w, Box::new(RingSelfAttention::new(ctx, &g, heads)));
            let y = rsa.forward(&split_sequence(&x, p, g.rank()));
            let dx = rsa.backward(&split_sequence(&dy, p, g.rank()));
            let mut grads = Vec::new();
            rsa.visit_params(&mut |p| grads.push(p.grad().clone()));
            (y, dx, grads)
        });
        let cat = |pick: fn(&(Tensor, Tensor, Vec<Tensor>)) -> Tensor| {
            Tensor::cat(&results.iter().map(pick).collect::<Vec<_>>(), 1)
        };
        let (y_got, dx_got) = (cat(|r| r.0.clone()), cat(|r| r.1.clone()));
        assert!(
            y_got.allclose(&y_want, 2e-4),
            "p={p}: fwd diff {}",
            y_got.max_abs_diff(&y_want)
        );
        assert!(
            dx_got.allclose(&dx_want, 2e-4),
            "p={p}: dx diff {}",
            dx_got.max_abs_diff(&dx_want)
        );
        // the model is replicated; like data parallelism, summing the ranks'
        // weight grads must give the serial gradient
        for (i, want) in g_want.iter().enumerate() {
            let mut sum = results[0].2[i].clone();
            for r in &results[1..] {
                sum.axpy(1.0, &r.2[i]);
            }
            assert!(
                sum.allclose(want, 2e-4),
                "grad {i} diff {}",
                sum.max_abs_diff(want)
            );
        }
    }

    #[test]
    fn ring_attention_matches_serial_p2() {
        run_case(2, 2, 8, 8, 2, 500);
    }

    #[test]
    fn ring_attention_matches_serial_p4() {
        run_case(4, 1, 8, 8, 4, 501);
    }

    #[test]
    fn works_when_heads_not_divisible_by_ranks() {
        // the key flexibility vs 1D TP: 3 heads on 4 ranks is fine because
        // the *sequence* is split, not the heads
        run_case(4, 1, 8, 6, 3, 502);
    }

    #[test]
    fn ring_traffic_is_gather_plus_scatter() {
        let (p, b, s, d, heads) = (4usize, 1usize, 8usize, 8usize, 2usize);
        let w = weights(d, 520);
        let mut rng = init::rng(521);
        let x = init::uniform([b, s, d], -1.0, 1.0, &mut rng);
        let world = World::new(system_iii());
        world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut rsa = attention(&w, Box::new(RingSelfAttention::new(ctx, &g, heads)));
            let y = rsa.forward(&split_sequence(&x, p, g.rank()));
            let _ = rsa.backward(&y);
        });
        let stats = world.stats();
        // forward: 2 all-gathers (K and V); backward: 2 reduce-scatters
        assert_eq!(stats.ops_of(OpKind::AllGather), 2);
        assert_eq!(stats.ops_of(OpKind::ReduceScatter), 2);
        // K block per rank: b*h * s/p * dk = 1*2*2*4 = 16 elements;
        // all-gather hops = (p-1) * p * 16
        let block = (b * heads) as u64 * (s / p) as u64 * (d / heads) as u64;
        assert_eq!(
            stats.elements_of(OpKind::AllGather),
            2 * (p as u64 - 1) * p as u64 * block
        );
    }
}
