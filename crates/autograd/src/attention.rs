//! Multi-head self-attention with a full analytic backward pass.

use crate::layer::Layer;
use crate::linear::Linear;
use crate::param::Param;
use colossalai_tensor::init::InitRng;
use colossalai_tensor::ops::{softmax_backward_inplace, softmax_inplace};
use colossalai_tensor::{bmm, bmm_at, bmm_bt, Tensor};

/// Large negative value used for masking (avoids NaN that `-inf` would
/// produce on fully masked rows).
const MASK_VALUE: f32 = -1.0e9;

/// Splits `[b, s, d]` into per-head batches `[b*h, s, d/h]`.
fn split_heads(x: &Tensor, heads: usize) -> Tensor {
    let (b, s, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    assert_eq!(
        d % heads,
        0,
        "hidden size {d} not divisible by {heads} heads"
    );
    let dk = d / heads;
    x.reshape([b, s, heads, dk])
        .permute(&[0, 2, 1, 3])
        .reshaped([b * heads, s, dk])
}

/// Inverse of [`split_heads`].
fn merge_heads(x: &Tensor, heads: usize) -> Tensor {
    let (bh, s, dk) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    assert_eq!(bh % heads, 0, "batch {bh} not divisible by {heads} heads");
    let b = bh / heads;
    x.reshape([b, heads, s, dk])
        .permute(&[0, 2, 1, 3])
        .reshaped([b, s, heads * dk])
}

/// The part of self-attention between the Q/K/V projections and the output
/// projection: everything that depends on how heads and the sequence are
/// laid out across devices, and nothing that holds a parameter.
pub trait AttentionCore {
    /// `softmax(QK^T / sqrt(dk)) V` over merged-head `[b, s, d]` inputs.
    fn forward(&mut self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor;

    /// Gradients `(dq, dk, dv)` of the most recent forward, merged-head.
    fn backward(&mut self, dz: &Tensor) -> (Tensor, Tensor, Tensor);
}

/// Attention over the heads and the whole sequence this device holds,
/// optionally causal (GPT-style).
pub struct LocalAttention {
    heads: usize,
    causal: bool,
    cache: Option<AttnCache>,
}

struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
}

impl LocalAttention {
    pub fn new(heads: usize, causal: bool) -> Self {
        LocalAttention {
            heads,
            causal,
            cache: None,
        }
    }

    fn apply_causal_mask(&self, scores: &mut Tensor) {
        if !self.causal {
            return;
        }
        let s = scores.dims()[1];
        let data = scores.data_mut();
        for chunk in data.chunks_mut(s * s) {
            for i in 0..s {
                for j in (i + 1)..s {
                    chunk[i * s + j] = MASK_VALUE;
                }
            }
        }
    }
}

impl AttentionCore for LocalAttention {
    fn forward(&mut self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        let heads = self.heads;
        let q = split_heads(q, heads);
        let k = split_heads(k, heads);
        let v = split_heads(v, heads);
        // head width comes from the projection output, not the model width:
        // the two differ in tensor-parallel shards where wq maps d -> d/p
        let scale = 1.0 / (q.dims()[2] as f32).sqrt();

        let mut scores = bmm_bt(&q, &k);
        scores.scale(scale);
        self.apply_causal_mask(&mut scores);
        // scores is uniquely owned here: softmax runs in place, no copy
        softmax_inplace(&mut scores);
        let attn = scores;
        let z = merge_heads(&bmm(&attn, &v), heads);
        self.cache = Some(AttnCache { q, k, v, attn });
        z
    }

    fn backward(&mut self, dz: &Tensor) -> (Tensor, Tensor, Tensor) {
        let AttnCache { q, k, v, attn } = self.cache.take().expect("backward before forward");
        let heads = self.heads;
        let scale = 1.0 / (q.dims()[2] as f32).sqrt();
        let dz = split_heads(dz, heads);

        // z = attn @ v
        let dattn = bmm_bt(&dz, &v);
        let dv = bmm_at(&attn, &dz);
        // attn = softmax(scores); masked entries carry ~zero probability, so
        // their gradient contribution vanishes automatically. dattn is
        // uniquely owned, so the softmax backward mutates it in place.
        let mut dscores = dattn;
        softmax_backward_inplace(&attn, &mut dscores);
        dscores.scale(scale);
        // scores = q @ k^T
        let dq = bmm(&dscores, &k);
        let dk = bmm_at(&dscores, &q);
        (
            merge_heads(&dq, heads),
            merge_heads(&dk, heads),
            merge_heads(&dv, heads),
        )
    }
}

/// Multi-head self-attention: Q/K/V projections, an [`AttentionCore`] and an
/// output projection. The projections are any [`Layer`]s, so the same
/// struct is serial attention (four [`Linear`]s around a [`LocalAttention`])
/// and every tensor- or sequence-parallel variant.
pub struct MultiHeadAttention {
    wq: Box<dyn Layer>,
    wk: Box<dyn Layer>,
    wv: Box<dyn Layer>,
    wo: Box<dyn Layer>,
    core: Box<dyn AttentionCore>,
}

impl MultiHeadAttention {
    pub fn new(name: &str, dim: usize, heads: usize, causal: bool, rng: &mut InitRng) -> Self {
        assert_eq!(
            dim % heads,
            0,
            "hidden size {dim} not divisible by {heads} heads"
        );
        let mut proj = |n: &str| -> Box<dyn Layer> {
            Box::new(Linear::from_rng(
                &format!("{name}.{n}"),
                dim,
                dim,
                true,
                rng,
            ))
        };
        let (wq, wk, wv, wo) = (proj("q"), proj("k"), proj("v"), proj("o"));
        Self::from_parts(wq, wk, wv, wo, Box::new(LocalAttention::new(heads, causal)))
    }

    /// Builds from pre-constructed projections and core (how the parallel
    /// modes shard the projections and place the heads).
    pub fn from_parts(
        wq: Box<dyn Layer>,
        wk: Box<dyn Layer>,
        wv: Box<dyn Layer>,
        wo: Box<dyn Layer>,
        core: Box<dyn AttentionCore>,
    ) -> Self {
        MultiHeadAttention {
            wq,
            wk,
            wv,
            wo,
            core,
        }
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 3, "attention input must be [batch, seq, dim]");
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let z = self.core.forward(&q, &k, &v);
        self.wo.forward(&z)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dz = self.wo.backward(dy);
        let (dq, dk, dv) = self.core.backward(&dz);
        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        dx_q.zip(&dx_k, |a, b| a + b).zip(&dx_v, |a, b| a + b)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check;
    use colossalai_tensor::init;

    #[test]
    fn split_merge_roundtrip() {
        // a toy shape, then the benchmark GPT's [4 seqs, 32 tokens, 256 wide]
        for (dims, head_counts) in [([2, 3, 8], vec![1, 2, 4]), ([4, 32, 256], vec![8])] {
            let [b, s, d] = dims;
            let x = Tensor::arange(b * s * d).reshaped(dims);
            for heads in head_counts {
                let dk = d / heads;
                let split = split_heads(&x, heads);
                assert_eq!(split.dims(), &[b * heads, s, dk]);
                // head h of sequence bi holds columns h*dk.. of its tokens
                for (bi, h, si, k) in [
                    (0, 0, 0, 0),
                    (b - 1, heads - 1, s - 1, dk - 1),
                    (1, 0, 2, 1),
                ] {
                    assert_eq!(
                        split.at(&[bi * heads + h, si, k]),
                        x.at(&[bi, si, h * dk + k])
                    );
                }
                assert_eq!(merge_heads(&split, heads), x);
            }
        }
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = init::rng(20);
        let mut mha = MultiHeadAttention::new("attn", 8, 2, false, &mut rng);
        let x = init::uniform([2, 5, 8], -1.0, 1.0, &mut rng);
        let y = mha.forward(&x);
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = init::rng(21);
        let mut mha = MultiHeadAttention::new("attn", 4, 1, true, &mut rng);
        // two inputs that differ only in the last position must produce the
        // same outputs at all earlier positions
        let mut x1 = init::uniform([1, 4, 4], -1.0, 1.0, &mut rng);
        let y1 = mha.forward(&x1);
        for i in 0..4 {
            x1.set(&[0, 3, i], 99.0);
        }
        let y2 = mha.forward(&x1);
        for s in 0..3 {
            for d in 0..4 {
                assert!(
                    (y1.at(&[0, s, d]) - y2.at(&[0, s, d])).abs() < 1e-6,
                    "position {s} leaked future information"
                );
            }
        }
        // and the last position must differ
        assert!((y1.at(&[0, 3, 0]) - y2.at(&[0, 3, 0])).abs() > 1e-4);
    }

    #[test]
    fn single_head_grad_check() {
        let mut rng = init::rng(22);
        let mut mha = MultiHeadAttention::new("attn", 4, 1, false, &mut rng);
        let x = init::uniform([1, 3, 4], -1.0, 1.0, &mut rng);
        grad_check(&mut mha, &x, 1e-2, 8e-2).unwrap();
    }

    #[test]
    fn multi_head_grad_check() {
        let mut rng = init::rng(23);
        let mut mha = MultiHeadAttention::new("attn", 6, 3, false, &mut rng);
        let x = init::uniform([2, 3, 6], -1.0, 1.0, &mut rng);
        grad_check(&mut mha, &x, 1e-2, 8e-2).unwrap();
    }

    #[test]
    fn causal_grad_check() {
        let mut rng = init::rng(24);
        let mut mha = MultiHeadAttention::new("attn", 4, 2, true, &mut rng);
        let x = init::uniform([1, 4, 4], -1.0, 1.0, &mut rng);
        grad_check(&mut mha, &x, 1e-2, 8e-2).unwrap();
    }

    #[test]
    fn param_count() {
        let mut rng = init::rng(25);
        let mut mha = MultiHeadAttention::new("attn", 8, 2, false, &mut rng);
        // 4 projections of 8x8 + bias 8
        assert_eq!(mha.n_params(), 4 * (64 + 8));
    }
}
