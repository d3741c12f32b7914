//! The runnable Transformer block (Fig 2 of the paper): Multi-head
//! Attention + Feed Forward, pre-LayerNorm, residual connections — written
//! once against the [`TensorParallel`] seam.

use crate::config::TransformerConfig;
use crate::parallel::{Layout, Serial, TensorParallel};
use colossalai_autograd::{Layer, MultiHeadAttention, Param, Sequential};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::Tensor;

/// `x + f(ln(x))` — the residual wrapper both halves of the block use.
pub struct Residual {
    ln: Box<dyn Layer>,
    inner: Box<dyn Layer>,
}

impl Residual {
    pub fn new(ln: Box<dyn Layer>, inner: Box<dyn Layer>) -> Self {
        Residual { ln, inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let normed = self.ln.forward(x);
        let fx = self.inner.forward(&normed);
        x.zip(&fx, |a, b| a + b)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d_inner = self.inner.backward(dy);
        let d_ln = self.ln.backward(&d_inner);
        dy.zip(&d_ln, |a, b| a + b)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln.visit_params(f);
        self.inner.visit_params(f);
    }
}

/// One Transformer layer.
pub struct TransformerBlock {
    attn: Residual,
    mlp: Residual,
}

impl TransformerBlock {
    /// Builds a serial block with hidden size `dim`, `heads` attention heads
    /// and an `mlp_ratio`-times-wider feed-forward, optionally causal.
    pub fn new(
        name: &str,
        dim: usize,
        heads: usize,
        mlp_ratio: usize,
        causal: bool,
        rng: &mut InitRng,
    ) -> Self {
        Self::with_mode(&Serial, name, dim, heads, mlp_ratio, causal, rng)
    }

    /// Builds this device's part of the block under `mode`. Every device
    /// must pass an identically seeded `rng`: the *global* weights are drawn
    /// in one order (Q, K, V, O, MLP up, MLP down) whatever the mode, so a
    /// seed names the same model under all of them.
    pub fn with_mode(
        mode: &dyn TensorParallel,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_ratio: usize,
        causal: bool,
        rng: &mut InitRng,
    ) -> Self {
        assert_eq!(
            dim % heads,
            0,
            "hidden size {dim} not divisible by {heads} heads"
        );
        let enter = (Layout::Stream, Layout::Branch);
        let exit = (Layout::Branch, Layout::Stream);
        let mut linear = |n: &str, d_in: usize, d_out: usize, (from, to), gelu: bool| {
            let w = init::lecun_normal(d_in, d_out, rng);
            let b = Some(Tensor::zeros([d_out]));
            mode.linear(&format!("{name}.{n}"), w, b, from, to, gelu)
        };
        let wq = linear("attn.q", dim, dim, enter, false);
        let wk = linear("attn.k", dim, dim, enter, false);
        let wv = linear("attn.v", dim, dim, enter, false);
        let wo = linear("attn.o", dim, dim, exit, false);
        let fc1 = linear("fc1", dim, dim * mlp_ratio, enter, true);
        let fc2 = linear("fc2", dim * mlp_ratio, dim, exit, false);
        let attn =
            MultiHeadAttention::from_parts(wq, wk, wv, wo, mode.attention_core(heads, causal));
        let residual = |ln: &str, inner: Box<dyn Layer>| {
            Residual::new(
                mode.layer_norm(&format!("{name}.{ln}"), dim),
                mode.branch(inner),
            )
        };
        TransformerBlock {
            attn: residual("ln1", Box::new(attn)),
            mlp: residual("ln2", Box::new(Sequential::new(vec![fc1, fc2]))),
        }
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.attn.forward(x);
        self.mlp.forward(&h)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dh = self.mlp.backward(dy);
        self.attn.backward(&dh)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.mlp.visit_params(f);
    }
}

/// The `cfg.layers` blocks of the model `name` (`{name}.block{i}`) in order,
/// boxed for its layer list; their weights are drawn from `rng` block by
/// block.
pub(crate) fn blocks(
    mode: &dyn TensorParallel,
    name: &str,
    cfg: &TransformerConfig,
    causal: bool,
    rng: &mut InitRng,
) -> Vec<Box<dyn Layer>> {
    (0..cfg.layers)
        .map(|i| {
            let (dim, heads, ratio) = (cfg.hidden, cfg.heads, cfg.mlp_ratio);
            let name = format!("{name}.block{i}");
            let block = TransformerBlock::with_mode(mode, &name, dim, heads, ratio, causal, rng);
            Box::new(block) as Box<dyn Layer>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::{grad_check, LayerNorm, Linear};

    #[test]
    fn block_preserves_shape() {
        let mut rng = init::rng(50);
        let mut b = TransformerBlock::new("blk", 8, 2, 4, false, &mut rng);
        let x = init::uniform([2, 5, 8], -1.0, 1.0, &mut rng);
        let y = b.forward(&x);
        assert_eq!(y.dims(), x.dims());
        let dx = b.backward(&Tensor::ones([2, 5, 8]));
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn block_grad_check() {
        let mut rng = init::rng(51);
        let mut b = TransformerBlock::new("blk", 4, 2, 2, false, &mut rng);
        let x = init::uniform([1, 3, 4], -0.5, 0.5, &mut rng);
        grad_check(&mut b, &x, 1e-2, 1e-1).unwrap();
    }

    #[test]
    fn residual_passes_identity_gradient() {
        // with a zero inner function the residual is the identity; test with
        // zero-initialized linear
        let mut rng = init::rng(52);
        let ln = LayerNorm::new("ln", 4);
        let zero_linear = Linear::from_parts("z", Tensor::zeros([4, 4]), Some(Tensor::zeros([4])));
        let mut r = Residual::new(Box::new(ln), Box::new(zero_linear));
        let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        let y = r.forward(&x);
        assert!(y.allclose(&x, 1e-6));
        let dy = init::uniform([2, 4], -1.0, 1.0, &mut rng);
        let dx = r.backward(&dy);
        // gradient flows at least through the skip path
        assert!(dx.allclose(&dy, 1e-6));
    }

    #[test]
    fn param_count_matches_calculator() {
        let mut rng = init::rng(53);
        let dim = 16;
        let heads = 4;
        let mut b = TransformerBlock::new("blk", dim, heads, 4, false, &mut rng);
        let cfg = crate::config::TransformerConfig {
            layers: 1,
            hidden: dim,
            heads,
            mlp_ratio: 4,
            vocab: 10,
            max_seq: 8,
        };
        assert_eq!(b.n_params() as u64, cfg.params_per_layer());
    }
}
