//! Vision Transformer (runnable scale) with the paper's ViT structure:
//! patch projection, learned position embedding, Transformer stack, final
//! LayerNorm, mean pooling, classification head.

use crate::config::TransformerConfig;
use crate::parallel::{Layout, Serial, TensorParallel};
use crate::transformer::blocks;
use colossalai_autograd::{Layer, Param, Sequential};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::ops::sum_axis;
use colossalai_tensor::Tensor;

/// A runnable ViT. Input is pre-patchified: `[batch, n_patches, patch_dim]`
/// (the dataset generator emits patches directly, standing in for the
/// image pipeline), with at most `cfg.max_seq` patches. Output is `[batch,
/// classes]` logits. Under a parallel mode both are the full tensors, the
/// same on every device of the group.
pub struct VisionTransformer {
    /// `[proj, pos, block0..blockL-1, ln_f, MeanPool, head]`.
    layers: Sequential,
}

impl VisionTransformer {
    /// Builds a serial ViT with `cfg.vocab` classes over patches of
    /// `patch_dim` raw features.
    pub fn new(cfg: &TransformerConfig, patch_dim: usize, rng: &mut InitRng) -> Self {
        Self::with_mode(&Serial, cfg, patch_dim, rng)
    }

    /// Builds this device's part of the ViT under `mode`; every device passes
    /// an identically seeded `rng` (see [`crate::TransformerBlock::with_mode`]).
    pub fn with_mode(
        mode: &dyn TensorParallel,
        cfg: &TransformerConfig,
        patch_dim: usize,
        rng: &mut InitRng,
    ) -> Self {
        let blocks = blocks(mode, "vit", cfg, false, rng);
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
        let ln_f = mode.layer_norm("vit.ln_f", cfg.hidden);
        let mut layers = vec![proj, pos];
        layers.extend(blocks);
        layers.extend([ln_f, Box::new(MeanPool { patches: 0 }), head]);
        VisionTransformer {
            layers: Sequential::new(layers),
        }
    }
}

impl Layer for VisionTransformer {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 3, "ViT input must be [batch, patches, patch_dim]");
        self.layers.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.layers.backward(dy)
    }

    fn backward_staged(&mut self, dy: &Tensor, on_stage: &mut dyn FnMut(&[Tensor])) -> Tensor {
        self.layers.backward_staged(dy, on_stage)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.layers.visit_params(f);
    }
}

/// Mean over the patch axis, `[batch, patches, hidden]` to `[batch, hidden]`.
/// Backward gives every patch of a sample that sample's gradient divided by
/// the patch count of the forward it follows.
struct MeanPool {
    patches: usize,
}

impl Layer for MeanPool {
    fn forward(&mut self, h: &Tensor) -> Tensor {
        self.patches = h.dims()[1];
        let mut pooled = sum_axis(h, 1);
        pooled.scale(1.0 / self.patches as f32);
        pooled
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (b, d, s) = (dy.dims()[0], dy.dims()[1], self.patches);
        let mut dh = Tensor::zeros([b, s, d]);
        for (sample, pooled) in dh.data_mut().chunks_mut(s * d).zip(dy.data().chunks(d)) {
            let mean: Vec<f32> = pooled.iter().map(|v| v / s as f32).collect();
            for patch in sample.chunks_mut(d) {
                patch.copy_from_slice(&mean);
            }
        }
        dh
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::grad_check;
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

    #[test]
    fn fewer_patches_than_max_seq_pool_and_unpool_alike() {
        let mut rng = init::rng(63);
        let cfg = TransformerConfig {
            max_seq: 6,
            ..tiny_cfg()
        };
        let mut vit = VisionTransformer::new(&cfg, 3, &mut rng);
        let x = init::uniform([2, 4, 3], -1.0, 1.0, &mut rng);
        let y = vit.forward(&x);
        let dx = vit.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.dims(), x.dims());
        grad_check(&mut vit, &x, 1e-2, 1e-1).unwrap();
    }
}
