//! Per-mode memory footprints.
//!
//! Two families of formulas, both derived from the sharding layouts the
//! runnable layers in this crate actually implement (tests there verify the
//! layouts; these formulas just count them):
//!
//! * the two-linear-layer range-test model of Fig 8 — elements resident per
//!   device during forward + backward for each tensor-parallel mode;
//! * per-layer Transformer activation bytes for the 1D-TP vs sequence-
//!   parallel comparison of Fig 12.

use crate::volume::TpMode;
use colossalai_models::TransformerConfig;

/// Bytes per f32 element.
const F32: u64 = 4;

/// Per-device peak bytes for the Fig 8 model — two `h x h` linear layers
/// applied to `rows` input rows — under tensor-parallel mode `mode` on `p`
/// devices.
///
/// Counted: weight + gradient shards (all modes shard weights by `1/p`) and
/// the resident activations (input X, hidden H, output Y) plus the largest
/// communication transient each algorithm materializes:
///
/// * 1D duplicates X and Y on every device (the paper's Fig 4 criticism)
///   and shards only H;
/// * 2D/2.5D/3D shard all three, at the price of per-round panel buffers
///   (2D: an X-tile + W-tile; 2.5D: W panels are `d` times larger because
///   the weight grid is only `p/d` wide; 3D: gathered panels are `l` times
///   the resident tiles).
pub fn fig8_peak_bytes(mode: TpMode, rows: u64, h: u64, p: u64) -> u64 {
    let weights_and_grads = 2 * 2 * h * h / p;
    let act = match mode {
        TpMode::OneD => {
            // X and Y full, H sharded
            rows * h + rows * h / p + rows * h
        }
        _ => {
            // the grid's first extent: 1 (2D), d (2.5D) or l (3D)
            let [n, ..] = mode.grid(p as usize).expect("the mode admits p");
            let n = n as u64;
            let x_panel = if mode == TpMode::ThreeD { n } else { 1 };
            3 * rows * h / p + rows * h * x_panel / p + h * h * n / p
        }
    };
    (weights_and_grads + act) * F32
}

/// Relative saving of `mode` vs 1D at the same operating point (the
/// percentages quoted for Fig 8), in `[0, 1)`.
pub fn fig8_saving_vs_1d(mode: TpMode, rows: u64, h: u64, p: u64) -> f64 {
    let m1 = fig8_peak_bytes(TpMode::OneD, rows, h, p) as f64;
    let mm = fig8_peak_bytes(mode, rows, h, p) as f64;
    1.0 - mm / m1
}

/// Per-layer activation bytes (fp16) of 1D tensor-parallel Transformer
/// training: layer inputs/outputs (the LayerNorm, residual, attention and
/// MLP boundaries, ~10 copies of `s*b*h`) are *duplicated* across the TP
/// group; only the interior (the remaining `24 + 5as/h` of Korthikanti's
/// 34) shards by `1/p`.
pub fn act_bytes_1d_tp(cfg: &TransformerConfig, batch: usize, seq: usize, p: usize) -> u64 {
    let s = seq as f64;
    let b = batch as f64;
    let h = cfg.hidden as f64;
    let a = cfg.heads as f64;
    let dup = 10.0;
    let sharded = 24.0 + 5.0 * a * s / h;
    (s * b * h * (dup + sharded / p as f64)) as u64
}

/// Whether sequence length/batch combination fits on a device with
/// `capacity` bytes under the given mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqMode {
    TensorParallel1d,
    SequenceParallel,
}

/// Total per-device bytes for BERT-style training at `(batch, seq)`: the
/// model data (fp16 weights / grads + fp32 Adam states), which 1D TP shards
/// by `p` and sequence parallelism replicates, plus every layer's
/// activations, of which sequence parallelism splits *every* one along the
/// sequence (the whole footprint shards by `1/p`).
pub fn bert_step_bytes(
    mode: SeqMode,
    cfg: &TransformerConfig,
    batch: usize,
    seq: usize,
    p: usize,
) -> u64 {
    let layers = cfg.layers as u64;
    match mode {
        SeqMode::TensorParallel1d => {
            cfg.model_data_bytes() / p as u64 + layers * act_bytes_1d_tp(cfg, batch, seq, p)
        }
        SeqMode::SequenceParallel => {
            let act = cfg.activation_bytes_per_layer(batch, seq) / p as u64;
            cfg.model_data_bytes() + layers * act
        }
    }
}

/// Largest batch (at fixed `seq`) that fits in `capacity` bytes — the Fig
/// 12a search. Returns 0 if even batch 1 OOMs.
pub fn max_batch(
    mode: SeqMode,
    cfg: &TransformerConfig,
    seq: usize,
    p: usize,
    capacity: u64,
) -> usize {
    largest_fit(|batch| bert_step_bytes(mode, cfg, batch, seq, p) <= capacity)
}

/// Largest sequence length (at fixed `batch`) that fits — the Fig 12b
/// search.
pub fn max_seq(
    mode: SeqMode,
    cfg: &TransformerConfig,
    batch: usize,
    p: usize,
    capacity: u64,
) -> usize {
    largest_fit(|seq| bert_step_bytes(mode, cfg, batch, seq, p) <= capacity)
}

/// The largest `n` whose footprint fits, for a `fits` that holds from 1 up
/// to some `n` and fails beyond it: double until the first miss (or past
/// 2^24), then bisect between the last hit and it. 0 when even 1 misses.
pub(crate) fn largest_fit(fits: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, 1);
    while fits(hi) {
        lo = hi;
        hi *= 2;
        if hi > 1 << 24 {
            break;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Checks a mode/`p` pairing is realizable (1D additionally requires the
/// head-divisibility constraint the paper highlights).
pub fn seq_mode_admits(mode: SeqMode, cfg: &TransformerConfig, p: usize) -> bool {
    match mode {
        SeqMode::TensorParallel1d => cfg.heads.is_multiple_of(p),
        SeqMode::SequenceParallel => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_advanced_modes_beat_1d_at_paper_points() {
        // Fig 8b operating point: batch scan at 8 GPUs. The range test feeds
        // [batch, seq, hidden] inputs, so resident rows = batch * seq.
        let rows = 512 * 64;
        let h = 4096;
        let p = 8;
        let s25 = fig8_saving_vs_1d(TpMode::TwoPointFiveD { depth: 2 }, rows, h, p);
        let s3 = fig8_saving_vs_1d(TpMode::ThreeD, rows, h, p);
        // paper: 44% (2.5D) and 65% (3D) lower than 1D
        assert!(s25 > 0.35, "2.5D saving {s25:.2} (paper: 0.44)");
        assert!(s3 > 0.45, "3D saving {s3:.2} (paper: 0.65)");
    }

    #[test]
    fn fig8_hidden_scan_savings_stay_large() {
        // Fig 8d: hidden scan at batch 64 (x seq rows), 8 GPUs; paper: 62%
        // (2.5D) and 74.2% (3D) better at h = 16384
        let rows = 64 * 512;
        let p = 8;
        for h in [1024u64, 4096, 16384] {
            let s25 = fig8_saving_vs_1d(TpMode::TwoPointFiveD { depth: 2 }, rows, h, p);
            let s3 = fig8_saving_vs_1d(TpMode::ThreeD, rows, h, p);
            assert!(s25 > 0.4, "h={h}: 2.5D saving {s25:.2}");
            assert!(s3 > 0.4, "h={h}: 3D saving {s3:.2}");
        }
    }

    #[test]
    fn fig8_memory_monotone_in_batch_and_hidden() {
        for mode in [TpMode::OneD, TpMode::TwoD] {
            let a = fig8_peak_bytes(mode, 128, 1024, 4);
            let b = fig8_peak_bytes(mode, 256, 1024, 4);
            let c = fig8_peak_bytes(mode, 128, 2048, 4);
            assert!(b > a && c > a);
        }
    }

    #[test]
    fn fig12_seq_parallel_reaches_larger_batch() {
        let cfg = TransformerConfig::bert_base();
        let capacity = 40u64 << 30; // System III A100-40GB
                                    // the advantage grows with p (paper: up to 4.44x at 12 GPUs)
        let mut prev_ratio = 0.0;
        for p in [4usize, 6, 12] {
            assert!(seq_mode_admits(SeqMode::TensorParallel1d, &cfg, p));
            let b_tp = max_batch(SeqMode::TensorParallel1d, &cfg, 512, p, capacity);
            let b_sp = max_batch(SeqMode::SequenceParallel, &cfg, 512, p, capacity);
            let ratio = b_sp as f64 / b_tp as f64;
            assert!(ratio > 1.2, "p={p}: SP batch {b_sp} vs TP {b_tp}");
            assert!(ratio > prev_ratio, "advantage must grow with p");
            prev_ratio = ratio;
        }
        assert!(
            prev_ratio > 2.0,
            "12-GPU ratio {prev_ratio:.2} (paper: 4.44)"
        );
    }

    #[test]
    fn fig12_seq_parallel_reaches_longer_sequences() {
        let cfg = TransformerConfig::bert_base();
        let capacity = 40u64 << 30;
        let p = 4;
        let s_tp = max_seq(SeqMode::TensorParallel1d, &cfg, 64, p, capacity);
        let s_sp = max_seq(SeqMode::SequenceParallel, &cfg, 64, p, capacity);
        assert!(s_sp > s_tp, "SP seq {s_sp} vs TP {s_tp}");
    }

    #[test]
    fn head_divisibility_constraint() {
        let cfg = TransformerConfig::bert_base(); // 12 heads
        assert!(seq_mode_admits(SeqMode::TensorParallel1d, &cfg, 4));
        assert!(seq_mode_admits(SeqMode::TensorParallel1d, &cfg, 6));
        assert!(seq_mode_admits(SeqMode::TensorParallel1d, &cfg, 12));
        assert!(!seq_mode_admits(SeqMode::TensorParallel1d, &cfg, 8));
        assert!(seq_mode_admits(SeqMode::SequenceParallel, &cfg, 8));
    }

    #[test]
    fn max_batch_is_maximal() {
        let cfg = TransformerConfig::bert_base();
        let capacity = 16u64 << 30;
        let b = max_batch(SeqMode::SequenceParallel, &cfg, 512, 4, capacity);
        assert!(b > 0);
        assert!(bert_step_bytes(SeqMode::SequenceParallel, &cfg, b, 512, 4) <= capacity);
        assert!(bert_step_bytes(SeqMode::SequenceParallel, &cfg, b + 1, 512, 4) > capacity);
    }
}
