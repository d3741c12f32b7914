//! BERT-style bidirectional encoder (runnable scale) for the sequence-
//! parallelism experiments (Figs 12-13): token + position embeddings, a
//! non-causal Transformer stack, final LayerNorm and a token-level
//! vocabulary head (masked-LM objective shape).

use crate::config::TransformerConfig;
use crate::gpt::lm_layers;
use crate::parallel::{Layout, Serial, TensorParallel};
use colossalai_autograd::{Layer, Param, Sequential};
use colossalai_tensor::init::InitRng;
use colossalai_tensor::Tensor;

/// A runnable BERT encoder. Input: `[batch, seq]` token ids (as f32);
/// output: `[batch, seq, vocab]` logits — under a parallel mode, this
/// device's [`Layout::Branch`] part of them (`mode.gather` reassembles).
pub struct Bert {
    mode: Box<dyn TensorParallel>,
    /// `[tok, pos, block0..blockL-1, ln_f, head]`, as GPT's.
    layers: Sequential,
}

impl Bert {
    pub fn new(cfg: &TransformerConfig, rng: &mut InitRng) -> Self {
        Self::with_mode(Box::new(Serial), cfg, rng)
    }

    /// Builds this device's part of the BERT under `mode`; every device
    /// passes an identically seeded `rng` (see
    /// [`crate::TransformerBlock::with_mode`]).
    pub fn with_mode(
        mode: Box<dyn TensorParallel>,
        cfg: &TransformerConfig,
        rng: &mut InitRng,
    ) -> Self {
        let bias = Some(Tensor::zeros([cfg.vocab]));
        let layers = lm_layers(mode.as_ref(), "bert", cfg, false, bias, rng);
        Bert { mode, layers }
    }

    /// Masked-LM loss over `targets` at `positions` (flat indices into
    /// `[batch * seq]`). The loss is the global mean over the masked
    /// positions; the gradient is that of this device's logits, so no device
    /// holds the full `[tokens, vocab]` matrix under a sharded mode.
    pub fn mlm_loss(
        &mut self,
        masked_tokens: &Tensor,
        targets: &[usize],
        positions: &[usize],
    ) -> (f32, Tensor) {
        assert_eq!(targets.len(), positions.len());
        let (b, s) = (masked_tokens.dims()[0], masked_tokens.dims()[1]);
        let logits = self.forward(masked_tokens);
        let vocab = *logits.dims().last().unwrap();
        let flat = logits.reshape([logits.numel() / vocab, vocab]);
        // the local row of each global position this device holds
        let mut local_row = vec![None; b * s];
        let ids = Tensor::arange(b * s).reshaped([b, s]);
        for (row, &id) in self
            .mode
            .shard(&ids, Layout::Branch)
            .data()
            .iter()
            .enumerate()
        {
            local_row[id as usize] = Some(row);
        }
        let (rows, held): (Vec<usize>, Vec<usize>) = positions
            .iter()
            .zip(targets)
            .filter_map(|(&p, &t)| local_row[p].map(|row| (row, t)))
            .unzip();
        let picked: Vec<Tensor> = rows.iter().map(|&r| flat.narrow(0, r, 1)).collect();
        let picked = if picked.is_empty() {
            Tensor::zeros([0, vocab])
        } else {
            Tensor::cat(&picked, 0)
        };
        let (loss, dpicked) = self.mode.loss(&picked, &held, positions.len());
        // scatter the gradient back into the full (local) logits
        let mut dlogits = Tensor::zeros(logits.shape().clone());
        for (&r, src) in rows.iter().zip(dpicked.data().chunks(vocab)) {
            dlogits.data_mut()[r * vocab..(r + 1) * vocab].copy_from_slice(src);
        }
        (loss, dlogits)
    }
}

impl Layer for Bert {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "BERT input must be [batch, seq] token ids");
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
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            layers: 2,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            vocab: 11,
            max_seq: 6,
        }
    }

    #[test]
    fn logits_shape() {
        let mut rng = init::rng(70);
        let mut bert = Bert::new(&tiny_cfg(), &mut rng);
        let x = Tensor::from_vec(
            [2, 6],
            vec![1., 2., 3., 4., 5., 6., 0., 9., 10., 3., 2., 1.],
        );
        let y = bert.forward(&x);
        assert_eq!(y.dims(), &[2, 6, 11]);
    }

    #[test]
    fn mlm_training_reduces_loss() {
        let mut rng = init::rng(71);
        let mut bert = Bert::new(&tiny_cfg(), &mut rng);
        let x = Tensor::from_vec([1, 6], vec![1., 2., 3., 4., 5., 6.]);
        let targets: Vec<usize> = vec![2, 3, 4, 5, 6, 7]; // next-token-ish labels
        let mut losses = Vec::new();
        for _ in 0..12 {
            bert.zero_grad();
            let logits = bert.forward(&x).reshaped([6, 11]);
            let (loss, dlogits) = cross_entropy(&logits, &targets);
            losses.push(loss);
            let _ = bert.backward(&dlogits.reshaped([1, 6, 11]));
            bert.visit_params(&mut |p| {
                let g = p.grad().clone();
                p.value_mut().axpy(-0.05, &g);
            });
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.7), "{losses:?}");
    }

    #[test]
    fn not_causal_future_affects_past() {
        // bidirectional: changing the last token changes position 0's output
        let mut rng = init::rng(72);
        let mut bert = Bert::new(&tiny_cfg(), &mut rng);
        let x1 = Tensor::from_vec([1, 6], vec![1., 2., 3., 4., 5., 6.]);
        let x2 = Tensor::from_vec([1, 6], vec![1., 2., 3., 4., 5., 9.]);
        let y1 = bert.forward(&x1);
        let y2 = bert.forward(&x2);
        let mut differs = false;
        for v in 0..11 {
            if (y1.at(&[0, 0, v]) - y2.at(&[0, 0, v])).abs() > 1e-6 {
                differs = true;
            }
        }
        assert!(differs, "BERT must attend bidirectionally");
    }
}
