//! Vision Transformer (runnable scale) with the paper's ViT structure:
//! patch projection, learned position embedding, Transformer stack, final
//! LayerNorm, mean pooling, classification head.

use crate::config::TransformerConfig;
use crate::parallel::{Layout, Serial, TensorParallel};
use crate::transformer::TransformerBlock;
use colossalai_autograd::{Layer, Param};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::ops::sum_axis;
use colossalai_tensor::Tensor;

/// A runnable ViT. Input is pre-patchified: `[batch, n_patches, patch_dim]`
/// (the dataset generator emits patches directly, standing in for the
/// image pipeline). Output is `[batch, classes]` logits. Under a parallel
/// mode both are the full tensors, the same on every device of the group.
pub struct VisionTransformer {
    proj: Box<dyn Layer>,
    pos: Box<dyn Layer>,
    blocks: Vec<TransformerBlock>,
    ln_f: Box<dyn Layer>,
    head: Box<dyn Layer>,
    n_patches: usize,
}

impl VisionTransformer {
    /// Builds a serial ViT with `cfg.vocab` classes over `n_patches` patches
    /// of `patch_dim` raw features.
    pub fn new(cfg: &TransformerConfig, patch_dim: usize, rng: &mut InitRng) -> Self {
        Self::with_mode(&Serial, cfg, patch_dim, rng)
    }

    /// Builds this device's part of the ViT under `mode`; every device passes
    /// an identically seeded `rng` (see [`TransformerBlock::with_mode`]).
    pub fn with_mode(
        mode: &dyn TensorParallel,
        cfg: &TransformerConfig,
        patch_dim: usize,
        rng: &mut InitRng,
    ) -> Self {
        let blocks = (0..cfg.layers)
            .map(|i| {
                TransformerBlock::with_mode(
                    mode,
                    &format!("vit.block{i}"),
                    cfg.hidden,
                    cfg.heads,
                    cfg.mlp_ratio,
                    false,
                    rng,
                )
            })
            .collect();
        let proj = mode.linear(
            "vit.patch_proj",
            init::lecun_normal(patch_dim, cfg.hidden, rng),
            Some(Tensor::zeros([cfg.hidden])),
            Layout::Full,
            Layout::Stream,
            false,
        );
        let pos = mode.position_embedding("vit", cfg.max_seq, cfg.hidden, rng);
        let head = mode.linear(
            "vit.head",
            init::lecun_normal(cfg.hidden, cfg.vocab, rng),
            Some(Tensor::zeros([cfg.vocab])),
            Layout::Stream,
            Layout::Full,
            false,
        );
        VisionTransformer {
            proj,
            pos,
            blocks,
            ln_f: mode.layer_norm("vit.ln_f", cfg.hidden),
            head,
            n_patches: cfg.max_seq,
        }
    }

    /// Number of patches the model expects.
    pub fn n_patches(&self) -> usize {
        self.n_patches
    }
}

impl Layer for VisionTransformer {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 3, "ViT input must be [batch, patches, patch_dim]");
        let mut h = self.proj.forward(x);
        h = self.pos.forward(&h);
        for blk in &mut self.blocks {
            h = blk.forward(&h);
        }
        let h = self.ln_f.forward(&h);
        // mean pool over patches
        let mut pooled = sum_axis(&h, 1);
        pooled.scale(1.0 / h.dims()[1] as f32);
        self.head.forward(&pooled)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dpooled = self.head.backward(dy);
        // un-pool: every patch of a sample takes that sample's mean gradient
        let (b, d) = (dpooled.dims()[0], dpooled.dims()[1]);
        let s = self.n_patches;
        let mut dh = Tensor::zeros([b, s, d]);
        for (sample, pooled) in dh
            .data_mut()
            .chunks_mut(s * d)
            .zip(dpooled.data().chunks(d))
        {
            let mean: Vec<f32> = pooled.iter().map(|v| v / s as f32).collect();
            for patch in sample.chunks_mut(d) {
                patch.copy_from_slice(&mean);
            }
        }
        let mut dh = self.ln_f.backward(&dh);
        for blk in self.blocks.iter_mut().rev() {
            dh = blk.backward(&dh);
        }
        let dh = self.pos.backward(&dh);
        self.proj.backward(&dh)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.proj.visit_params(f);
        self.pos.visit_params(f);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            layers: 2,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            vocab: 5,
            max_seq: 4,
        }
    }

    #[test]
    fn logits_shape() {
        let mut rng = init::rng(60);
        let cfg = tiny_cfg();
        let mut vit = VisionTransformer::new(&cfg, 6, &mut rng);
        let x = init::uniform([3, 4, 6], -1.0, 1.0, &mut rng);
        let y = vit.forward(&x);
        assert_eq!(y.dims(), &[3, 5]);
    }

    #[test]
    fn single_step_reduces_loss() {
        let mut rng = init::rng(61);
        let cfg = tiny_cfg();
        let mut vit = VisionTransformer::new(&cfg, 6, &mut rng);
        let x = init::uniform([4, 4, 6], -1.0, 1.0, &mut rng);
        let targets = [0usize, 1, 2, 3];

        let mut losses = Vec::new();
        for _ in 0..10 {
            vit.zero_grad();
            let logits = vit.forward(&x);
            let (loss, dlogits) = cross_entropy(&logits, &targets);
            losses.push(loss);
            let _ = vit.backward(&dlogits);
            let lr = 0.02;
            vit.visit_params(&mut |p| {
                let g = p.grad().clone();
                p.value_mut().axpy(-lr, &g);
            });
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn backward_returns_input_gradient_shape() {
        let mut rng = init::rng(62);
        let cfg = tiny_cfg();
        let mut vit = VisionTransformer::new(&cfg, 6, &mut rng);
        let x = init::uniform([2, 4, 6], -1.0, 1.0, &mut rng);
        let y = vit.forward(&x);
        let dx = vit.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.dims(), x.dims());
    }
}
