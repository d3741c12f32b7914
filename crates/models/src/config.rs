//! Transformer configuration and analytic parameter / FLOPs / memory
//! calculators.
//!
//! The throughput and memory experiments (Figs 8, 11-14, Table 3) run on
//! models far too large to execute numerically, so the bench harnesses use
//! these closed-form calculators — the same arithmetic the paper's authors
//! use to size their runs — while the small runnable models in this crate
//! verify the formulas empirically (the paper configs reuse the identical
//! code path with bigger numbers).

/// Hyper-parameters of a Transformer stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Number of Transformer layers.
    pub layers: usize,
    /// Hidden size `h`.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP expansion ratio (4 in every model the paper uses).
    pub mlp_ratio: usize,
    /// Vocabulary (BERT/GPT) or classes (ViT head).
    pub vocab: usize,
    /// Maximum sequence length / number of patches.
    pub max_seq: usize,
}

impl TransformerConfig {
    /// ViT of Fig 11a (4 GPUs on Systems I/II): 64 layers, hidden 3072, 48
    /// heads.
    pub fn vit_fig11_4gpu() -> Self {
        TransformerConfig {
            layers: 64,
            hidden: 3072,
            heads: 48,
            mlp_ratio: 4,
            vocab: 1000,
            max_seq: 196,
        }
    }

    /// ViT of Fig 11b (8 GPUs): hidden 4096, 64 heads.
    pub fn vit_fig11_8gpu() -> Self {
        TransformerConfig {
            layers: 64,
            hidden: 4096,
            heads: 64,
            mlp_ratio: 4,
            vocab: 1000,
            max_seq: 196,
        }
    }

    /// ViT of Table 3 rows with 4-8 GPUs: 24 layers, hidden 2048, 32 heads.
    pub fn vit_table3_small() -> Self {
        TransformerConfig {
            layers: 24,
            hidden: 2048,
            heads: 32,
            mlp_ratio: 4,
            vocab: 1000,
            max_seq: 196,
        }
    }

    /// ViT of Table 3 rows with 16+ GPUs: 32 layers, hidden 4096, 64 heads.
    pub fn vit_table3_large() -> Self {
        TransformerConfig {
            layers: 32,
            hidden: 4096,
            heads: 64,
            mlp_ratio: 4,
            vocab: 1000,
            max_seq: 196,
        }
    }

    /// BERT-Base (Figs 12-13): 12 layers, hidden 768, 12 heads, seq 512.
    pub fn bert_base() -> Self {
        TransformerConfig {
            layers: 12,
            hidden: 768,
            heads: 12,
            mlp_ratio: 4,
            vocab: 30522,
            max_seq: 512,
        }
    }

    /// The 10-billion-parameter GPT-2 of Fig 14 (50 layers x hidden 4096
    /// gives 10.1B transformer parameters).
    pub fn gpt2_10b() -> Self {
        TransformerConfig {
            layers: 50,
            hidden: 4096,
            heads: 32,
            mlp_ratio: 4,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// OPT-13B of the Fig 14 companion experiment (40 layers, hidden 5120).
    pub fn opt_13b() -> Self {
        TransformerConfig {
            layers: 40,
            hidden: 5120,
            heads: 40,
            mlp_ratio: 4,
            vocab: 50272,
            max_seq: 2048,
        }
    }

    /// Parameters of one Transformer layer: QKV + output projection
    /// (4 h^2 + 4h) plus the two MLP matrices (2 * r h^2 + (r+1) h) plus two
    /// LayerNorms (4h).
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let r = self.mlp_ratio as u64;
        4 * h * h + 4 * h + 2 * r * h * h + (r + 1) * h + 4 * h
    }

    /// Transformer-stack parameters (embeddings/heads excluded, matching the
    /// "model data" the paper's tensor parallelism shards).
    pub fn transformer_params(&self) -> u64 {
        self.layers as u64 * self.params_per_layer()
    }

    /// Total parameters including token/position embeddings and the
    /// untied output head.
    pub fn total_params(&self) -> u64 {
        let h = self.hidden as u64;
        self.transformer_params()
            + (self.vocab as u64) * h       // token embedding / patch proj
            + (self.max_seq as u64) * h     // position embedding
            + (self.vocab as u64) * h // output head
    }

    /// Forward FLOPs for one token at sequence length `seq`: the standard
    /// `2 * params + 4 * seq * h` per-layer attention quadratic term.
    pub fn forward_flops_per_token(&self, seq: usize) -> u64 {
        let h = self.hidden as u64;
        let per_layer = 2 * self.params_per_layer() + 4 * (seq as u64) * h;
        self.layers as u64 * per_layer
    }

    /// Training-step FLOPs for a `batch x seq` step (forward + backward,
    /// backward costed at 2x forward).
    pub fn train_flops(&self, batch: usize, seq: usize) -> u64 {
        3 * (batch * seq) as u64 * self.forward_flops_per_token(seq)
    }

    /// Activation bytes per layer for a `batch x seq` micro-batch at fp16,
    /// following Korthikanti et al.'s `s*b*h*(34 + 5*a*s/h)` estimate
    /// (attention score matrices included).
    pub fn activation_bytes_per_layer(&self, batch: usize, seq: usize) -> u64 {
        let s = seq as f64;
        let b = batch as f64;
        let h = self.hidden as f64;
        let a = self.heads as f64;
        (s * b * h * (34.0 + 5.0 * a * s / h)) as u64
    }

    /// FP16 model-data bytes (params + grads) plus FP32 optimizer state
    /// (master weights, Adam m and v): the 16-bytes-per-param rule of
    /// mixed-precision Adam training.
    pub fn model_data_bytes(&self) -> u64 {
        16 * self.total_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_10b_parameter_count_matches_label() {
        let p = TransformerConfig::gpt2_10b().transformer_params();
        assert!(
            (9.5e9..11.0e9).contains(&(p as f64)),
            "GPT-2 config should be ~10B params, got {p}"
        );
    }

    #[test]
    fn opt_13b_parameter_count_matches_label() {
        let p = TransformerConfig::opt_13b().transformer_params();
        assert!(
            (12.0e9..14.0e9).contains(&(p as f64)),
            "OPT config should be ~13B params, got {p}"
        );
    }

    #[test]
    fn bert_base_is_about_110m() {
        let p = TransformerConfig::bert_base().total_params();
        assert!(
            (100.0e6..135.0e6).contains(&(p as f64)),
            "BERT-Base should be ~110M params, got {p}"
        );
    }

    #[test]
    fn params_per_layer_is_about_12_h_squared() {
        let c = TransformerConfig::bert_base();
        let h = c.hidden as u64;
        let p = c.params_per_layer();
        assert!(
            p > 12 * h * h && p < 12 * h * h + 14 * h,
            "p = {p}, 12h^2 = {}",
            12 * h * h
        );
    }

    #[test]
    fn flops_scale_with_batch_and_layers() {
        let c = TransformerConfig::bert_base();
        assert_eq!(c.train_flops(2, 128), 2 * c.train_flops(1, 128));
        let mut bigger = c;
        bigger.layers *= 2;
        assert_eq!(
            bigger.forward_flops_per_token(128),
            2 * c.forward_flops_per_token(128)
        );
    }

    #[test]
    fn activation_memory_quadratic_in_seq() {
        let c = TransformerConfig::bert_base();
        let a1 = c.activation_bytes_per_layer(1, 512) as f64;
        let a2 = c.activation_bytes_per_layer(1, 1024) as f64;
        // more than linear growth because of the attention matrices
        assert!(a2 / a1 > 2.0);
        // and linear in batch
        let b2 = c.activation_bytes_per_layer(2, 512) as f64;
        assert!((b2 / a1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn model_data_is_16_bytes_per_param() {
        let c = TransformerConfig::vit_table3_small();
        assert_eq!(c.model_data_bytes(), 16 * c.total_params());
    }
}
