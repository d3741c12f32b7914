//! GPT-style causal decoder (runnable scale) for the sharding/offloading
//! experiments (Fig 14): token + position embeddings, causal Transformer
//! stack, language-model head.

use crate::config::TransformerConfig;
use crate::parallel::{Layout, Serial, TensorParallel};
use crate::transformer::TransformerBlock;
use colossalai_autograd::{Layer, Param};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::Tensor;

/// A runnable GPT. Input: `[batch, seq]` token ids (as f32); output:
/// `[batch, seq, vocab]` next-token logits — under a parallel mode, this
/// device's [`Layout::Branch`] part of them (`mode.gather` reassembles).
pub struct Gpt {
    mode: Box<dyn TensorParallel>,
    tok: Box<dyn Layer>,
    pos: Box<dyn Layer>,
    blocks: Vec<TransformerBlock>,
    ln_f: Box<dyn Layer>,
    head: Box<dyn Layer>,
}

impl Gpt {
    pub fn new(cfg: &TransformerConfig, rng: &mut InitRng) -> Self {
        Self::with_mode(Box::new(Serial), cfg, rng)
    }

    /// Builds this device's part of the GPT under `mode`; every device passes
    /// an identically seeded `rng` (see [`TransformerBlock::with_mode`]).
    pub fn with_mode(
        mode: Box<dyn TensorParallel>,
        cfg: &TransformerConfig,
        rng: &mut InitRng,
    ) -> Self {
        let blocks = (0..cfg.layers)
            .map(|i| {
                TransformerBlock::with_mode(
                    mode.as_ref(),
                    &format!("gpt.block{i}"),
                    cfg.hidden,
                    cfg.heads,
                    cfg.mlp_ratio,
                    true,
                    rng,
                )
            })
            .collect();
        let tok = mode.token_embedding("gpt.tok", cfg.vocab, cfg.hidden, rng);
        let pos = mode.position_embedding("gpt", cfg.max_seq, cfg.hidden, rng);
        let ln_f = mode.layer_norm("gpt.ln_f", cfg.hidden);
        let head = lm_head(mode.as_ref(), "gpt.head", cfg, None, rng);
        Gpt {
            mode,
            tok,
            pos,
            blocks,
            ln_f,
            head,
        }
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

/// The vocabulary head GPT and BERT share: a `Stream -> Branch` linear whose
/// input gradient is reduced like any other branch's.
pub(crate) fn lm_head(
    mode: &dyn TensorParallel,
    name: &str,
    cfg: &TransformerConfig,
    bias: Option<Tensor>,
    rng: &mut InitRng,
) -> Box<dyn Layer> {
    let w = init::lecun_normal(cfg.hidden, cfg.vocab, rng);
    mode.branch(mode.linear(name, w, bias, Layout::Stream, Layout::Branch, false))
}

impl Layer for Gpt {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "GPT input must be [batch, seq] token ids");
        let mut h = self.tok.forward(x);
        h = self.pos.forward(&h);
        for blk in &mut self.blocks {
            h = blk.forward(&h);
        }
        let h = self.ln_f.forward(&h);
        self.head.forward(&h)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dh = self.head.backward(dy);
        dh = self.ln_f.backward(&dh);
        for blk in self.blocks.iter_mut().rev() {
            dh = blk.backward(&dh);
        }
        let dh = self.pos.backward(&dh);
        self.tok.backward(&dh)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_params(f);
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
}
