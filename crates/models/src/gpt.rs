//! GPT-style causal decoder (runnable scale) for the sharding/offloading
//! experiments (Fig 14): token + position embeddings, causal Transformer
//! stack, language-model head.

use crate::config::TransformerConfig;
use crate::parallel::{Layout, Serial, TensorParallel};
use crate::transformer::blocks;
use colossalai_autograd::{Layer, Param, Sequential};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::Tensor;

/// A runnable GPT. Input: `[batch, seq]` token ids (as f32); output:
/// `[batch, seq, vocab]` next-token logits — under a parallel mode, this
/// device's [`Layout::Branch`] part of them (`mode.gather` reassembles).
pub struct Gpt {
    mode: Box<dyn TensorParallel>,
    /// `[tok, pos, block0..blockL-1, ln_f, head]` (see [`lm_layers`]).
    layers: Sequential,
}

impl Gpt {
    pub fn new(cfg: &TransformerConfig, rng: &mut InitRng) -> Self {
        Self::with_mode(Box::new(Serial), cfg, rng)
    }

    /// Builds this device's part of the GPT under `mode`; every device passes
    /// an identically seeded `rng` (see [`crate::TransformerBlock::with_mode`]).
    pub fn with_mode(
        mode: Box<dyn TensorParallel>,
        cfg: &TransformerConfig,
        rng: &mut InitRng,
    ) -> Self {
        let layers = lm_layers(mode.as_ref(), "gpt", cfg, true, None, rng);
        Gpt { mode, layers }
    }

    /// Next-token language-modeling loss and gradient for a batch of token
    /// id sequences; predicts token `t+1` from positions `0..=t`. The loss is
    /// the global mean; the gradient is that of this device's logits.
    pub fn lm_loss(&mut self, tokens: &Tensor) -> (f32, Tensor) {
        let (b, s) = (tokens.dims()[0], tokens.dims()[1]);
        let logits = self.forward(tokens);
        let (held, vocab) = (logits.dims()[0], logits.dims()[2]);
        // shift: predictions at positions 0..s-1 target tokens 1..s
        let pred = logits.narrow(1, 0, s - 1).reshaped([held * (s - 1), vocab]);
        let targets: Vec<usize> = self
            .mode
            .shard(tokens, Layout::Branch)
            .data()
            .chunks(s)
            .flat_map(|seq| seq[1..].iter().map(|&t| t as usize))
            .collect();
        let (loss, dpred) = self.mode.loss(&pred, &targets, b * (s - 1));
        // scatter the gradient back into full logits shape: each sequence's
        // s-1 predicting rows in one block, its last position left at zero
        let mut dlogits = Tensor::zeros([held, s, vocab]);
        let block = (s - 1) * vocab;
        for (seq, rows) in dlogits
            .data_mut()
            .chunks_mut(s * vocab)
            .zip(dpred.data().chunks(block))
        {
            seq[..block].copy_from_slice(rows);
        }
        (loss, dlogits)
    }
}

/// The layer list GPT and BERT share, in visit order: `[tok, pos,
/// block0..blockL-1, ln_f, head]`. The global weights are drawn blocks
/// first, then the embeddings, then the vocabulary head: a `Stream ->
/// Branch` linear whose input gradient is reduced like any other branch's.
pub(crate) fn lm_layers(
    mode: &dyn TensorParallel,
    name: &str,
    cfg: &TransformerConfig,
    causal: bool,
    head_bias: Option<Tensor>,
    rng: &mut InitRng,
) -> Sequential {
    let blocks = blocks(mode, name, cfg, causal, rng);
    let tok = mode.token_embedding(&format!("{name}.tok"), cfg.vocab, cfg.hidden, rng);
    let pos = mode.position_embedding(name, cfg.max_seq, cfg.hidden, rng);
    let ln_f = mode.layer_norm(&format!("{name}.ln_f"), cfg.hidden);
    let w = init::lecun_normal(cfg.hidden, cfg.vocab, rng);
    let (from, to) = (Layout::Stream, Layout::Branch);
    let head = mode.linear(&format!("{name}.head"), w, head_bias, from, to, false);
    let mut layers = vec![tok, pos];
    layers.extend(blocks);
    layers.extend([ln_f, mode.branch(head)]);
    Sequential::new(layers)
}

impl Layer for Gpt {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "GPT input must be [batch, seq] token ids");
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

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::Checkpoint;
    use colossalai_tensor::init;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            layers: 2,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            vocab: 13,
            max_seq: 5,
        }
    }

    #[test]
    fn causality_of_logits() {
        let mut rng = init::rng(80);
        let mut gpt = Gpt::new(&tiny_cfg(), &mut rng);
        let x1 = Tensor::from_vec([1, 5], vec![1., 2., 3., 4., 5.]);
        let x2 = Tensor::from_vec([1, 5], vec![1., 2., 3., 4., 12.]);
        let y1 = gpt.forward(&x1);
        let y2 = gpt.forward(&x2);
        // changing the last token must not change logits at earlier positions
        for s in 0..4 {
            for v in 0..13 {
                assert!(
                    (y1.at(&[0, s, v]) - y2.at(&[0, s, v])).abs() < 1e-6,
                    "position {s} leaked"
                );
            }
        }
    }

    #[test]
    fn lm_training_memorizes_sequence() {
        let mut rng = init::rng(81);
        let mut gpt = Gpt::new(&tiny_cfg(), &mut rng);
        let x = Tensor::from_vec([1, 5], vec![3., 7., 1., 9., 2.]);
        let mut losses = Vec::new();
        for _ in 0..25 {
            gpt.zero_grad();
            let (loss, dlogits) = gpt.lm_loss(&x);
            losses.push(loss);
            let _ = gpt.backward(&dlogits);
            gpt.visit_params(&mut |p| {
                let g = p.grad().clone();
                p.value_mut().axpy(-0.1, &g);
            });
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "GPT failed to memorize: {losses:?}"
        );
    }

    #[test]
    fn lm_loss_gradient_shape() {
        let mut rng = init::rng(82);
        let mut gpt = Gpt::new(&tiny_cfg(), &mut rng);
        let x = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let (loss, dlogits) = gpt.lm_loss(&x);
        assert!(loss > 0.0);
        assert_eq!(dlogits.dims(), &[2, 4, 13]);
        // the last position has no target -> zero gradient there
        for v in 0..13 {
            assert_eq!(dlogits.at(&[0, 3, v]), 0.0);
        }
    }

    #[test]
    fn checkpointed_gpt_fires_the_same_stages_with_the_same_bits() {
        let x = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let staged = |model: &mut dyn Layer| {
            let y = model.forward(&x);
            let mut stages: Vec<Vec<Tensor>> = Vec::new();
            let dx = model.backward_staged(&y, &mut |stage| stages.push(stage.to_vec()));
            (dx, stages)
        };
        let mut plain = Gpt::new(&tiny_cfg(), &mut init::rng(83));
        let mut ckpt = Checkpoint::new(Gpt::new(&tiny_cfg(), &mut init::rng(83)));
        for step in 1..=2 {
            let (dx, stages) = staged(&mut plain);
            let (dx_ckpt, stages_ckpt) = staged(&mut ckpt);
            assert_eq!(ckpt.recompute_count, step, "one recompute per backward");
            assert_eq!(dx.data(), dx_ckpt.data());
            assert_eq!(stages.len(), tiny_cfg().layers + 4);
            assert_eq!(stages.len(), stages_ckpt.len());
            for (a, b) in stages.iter().zip(&stages_ckpt) {
                assert_eq!(a.len(), b.len());
                for (ga, gb) in a.iter().zip(b) {
                    assert_eq!(ga.data(), gb.data());
                }
            }
        }
    }
}
