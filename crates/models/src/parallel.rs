//! The seam between the model definitions and the tensor-parallel modes.
//!
//! [`crate::TransformerBlock`], [`crate::VisionTransformer`], [`crate::Gpt`]
//! and [`crate::Bert`] are written once against [`TensorParallel`]: they draw
//! every *global* weight from the seeded RNG and ask the mode for the layer
//! that holds this device's part of it. [`Serial`] is the mode with one
//! device; `colossalai-parallel` provides 1D, 2D, 2.5D, 3D and sequence.

use colossalai_autograd::{
    AttentionCore, Embedding, Layer, LayerNorm, Linear, LocalAttention, PositionEmbedding,
};
use colossalai_tensor::init::InitRng;
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::Tensor;

/// How a `[batch, seq, hidden]` activation is laid out across the devices of
/// a mode. What a layout means is the mode's business (1D: `Stream` is
/// replicated, `Branch` splits `hidden`; 2D: both are the same tile; 3D:
/// they are the input and output layouts of Agarwal's matmul; sequence:
/// both split `seq`); the model only names which one it is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The whole tensor on every device: what the caller passes in and what
    /// a classifier hands back.
    Full,
    /// The residual stream: block inputs and outputs, what LayerNorm sees.
    Stream,
    /// Inside a residual branch: Q/K/V, attention output before the output
    /// projection, the MLP's hidden activation, LM-head logits.
    Branch,
}

/// What a tensor-parallel mode provides to the model definitions.
pub trait TensorParallel {
    /// `y = x W + b` (`gelu(x W + b)` with `gelu`) from the global `W: [in,
    /// out]`, taking its input in layout `from` and producing `to`. The pairs
    /// a model uses: `Stream -> Branch` (Q/K/V, MLP up, LM head), `Branch ->
    /// Stream` (attention output, MLP down), `Full -> Stream` (patch
    /// projection; its backward returns the gradient of this device's part
    /// of the input) and `Stream -> Full` (classifier).
    fn linear(
        &self,
        name: &str,
        w: Tensor,
        b: Option<Tensor>,
        from: Layout,
        to: Layout,
        gelu: bool,
    ) -> Box<dyn Layer>;

    /// LayerNorm over the `dim`-wide hidden axis of the stream.
    fn layer_norm(&self, name: &str, dim: usize) -> Box<dyn Layer>;

    /// How many of the `heads` attention heads a branch holds on this device.
    fn local_heads(&self, heads: usize) -> usize;

    /// The attention core between the projections.
    fn attention_core(&self, heads: usize, causal: bool) -> Box<dyn AttentionCore> {
        Box::new(LocalAttention::new(self.local_heads(heads), causal))
    }

    /// Wraps a residual branch (stream in, stream out, `Stream -> Branch`
    /// linears first) for modes that reduce the branch's input gradient once
    /// at its entry rather than in each entering linear.
    fn branch(&self, inner: Box<dyn Layer>) -> Box<dyn Layer> {
        inner
    }

    /// Token embedding: `Full` `[batch, seq]` ids to the stream.
    fn token_embedding(
        &self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer>;

    /// Learned position embedding added to the stream.
    fn position_embedding(
        &self,
        name: &str,
        max_seq: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer>;

    /// Mean cross-entropy over `total` rows spread across the devices, of
    /// which this device holds `logits: [rows, vocab]` in `Branch` layout
    /// (`vocab` possibly sharded) with their `targets`. Returns the global
    /// loss and the gradient of the local logits.
    fn loss(&self, logits: &Tensor, targets: &[usize], total: usize) -> (f32, Tensor);

    /// This device's rows of a `Full` `[batch, seq, ..]` tensor in `layout`;
    /// trailing axes are left whole.
    fn shard(&self, x: &Tensor, layout: Layout) -> Tensor;

    /// Reassembles the `Full` tensor from every device's `layout` part.
    fn gather(&self, y: &Tensor, layout: Layout) -> Tensor;
}

/// One device: every layout is the whole tensor and every layer is the plain
/// `colossalai-autograd` one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Serial;

impl TensorParallel for Serial {
    fn linear(
        &self,
        name: &str,
        w: Tensor,
        b: Option<Tensor>,
        _from: Layout,
        _to: Layout,
        gelu: bool,
    ) -> Box<dyn Layer> {
        let linear = Linear::from_parts(name, w, b);
        // fused GELU is bitwise a Linear followed by a Gelu, minus the copy
        Box::new(if gelu { linear.with_gelu() } else { linear })
    }

    fn layer_norm(&self, name: &str, dim: usize) -> Box<dyn Layer> {
        Box::new(LayerNorm::new(name, dim))
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads
    }

    fn token_embedding(
        &self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        Box::new(Embedding::new(name, vocab, dim, rng))
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
        assert_eq!(targets.len(), total, "a serial model holds every row");
        cross_entropy(logits, targets)
    }

    fn shard(&self, x: &Tensor, _layout: Layout) -> Tensor {
        x.clone()
    }

    fn gather(&self, y: &Tensor, _layout: Layout) -> Tensor {
        y.clone()
    }
}
