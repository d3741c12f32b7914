//! Training-step time and throughput estimation for paper-scale models.
//!
//! The runnable layers in this crate verify *numerical* behaviour at test
//! scale; these estimators evaluate the *same communication schedules* with
//! the alpha-beta cost model at paper scale (64-layer ViTs, BERT-Base,
//! GPT-2 10B), which is what regenerates the throughput figures: Fig 11,
//! Table 3, Fig 13 and Fig 14.
//!
//! All wire traffic is fp16 (2 bytes/element), matching mixed-precision
//! training; compute runs at the GPU's fp16 tensor-core rate.

use crate::memcalc;
use crate::mesh::{axis_group, position};
use crate::volume::TpMode;
use colossalai_memory::offload::{self, PlacementPolicy};
use colossalai_models::TransformerConfig;
use colossalai_topology::{cost, Cluster, DeviceId};

const FP16: u64 = 2;

/// Result of a step-time estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepEstimate {
    pub compute_seconds: f64,
    pub comm_seconds: f64,
    pub batch: usize,
}

impl StepEstimate {
    /// Total step seconds.
    pub fn seconds(&self) -> f64 {
        self.compute_seconds + self.comm_seconds
    }

    /// Samples per second.
    pub fn throughput(&self) -> f64 {
        self.batch as f64 / self.seconds()
    }
}

/// The matmul problems of one Transformer layer, as `(K, N)` pairs relative
/// to hidden size `h` (4 attention projections, MLP up, MLP down).
fn layer_matmuls(h: usize, mlp_ratio: usize) -> Vec<(usize, usize)> {
    vec![
        (h, h),
        (h, h),
        (h, h),
        (h, h),
        (h, mlp_ratio * h),
        (mlp_ratio * h, h),
    ]
}

/// Every group of `grid` along `axes`, in the order of their first members.
fn axis_groups(devices: &[DeviceId], grid: [usize; 3], axes: &[usize]) -> Vec<Vec<DeviceId>> {
    (0..devices.len())
        .map(|index| position(grid, index))
        .filter(|at| axes.iter().all(|&a| at[a] == 0))
        .map(|at| axis_group(devices, grid, at, axes))
        .collect()
}

/// Worst-case collective time over a set of simultaneous groups (a barrier
/// waits for the slowest subgroup).
fn worst(groups: &[Vec<DeviceId>], time: impl Fn(&[DeviceId]) -> f64) -> f64 {
    groups.iter().map(|g| time(g)).fold(0.0, f64::max)
}

/// Communication seconds of one fwd+bwd pass of a single matmul under a
/// 2D / 2.5D / 3D mode, each collective at its cost-model price (launch
/// included). `m_rows` is the token count (batch x seq).
fn matmul_comm_seconds(
    mode: TpMode,
    cluster: &Cluster,
    devices: &[DeviceId],
    m_rows: usize,
    k: usize,
    n: usize,
) -> f64 {
    let m = m_rows as u64;
    let (k, n) = (k as u64, n as u64);
    let grid = mode.grid(devices.len()).expect("the mode admits p");
    match mode {
        TpMode::ThreeD => {
            let l = grid[0];
            let [i_groups, j_groups, k_groups] =
                [0, 1, 2].map(|a| axis_groups(devices, grid, &[a]));
            let l3 = (l * l * l) as u64;
            let l2 = (l * l) as u64;
            let max_ag = |groups: &[Vec<DeviceId>], contrib: u64| {
                worst(groups, |g| cost::allgather_time(cluster, g, contrib))
            };
            let max_rs = |groups: &[Vec<DeviceId>], total: u64| {
                worst(groups, |g| cost::reduce_scatter_time(cluster, g, total))
            };
            // forward: AG_k(X) + AG_i(W) + RS_j(partial Y)
            let fwd = max_ag(&k_groups, m * k / l3 * FP16)
                + max_ag(&i_groups, k * n / l3 * FP16)
                + max_rs(&j_groups, m * n / l2 * FP16);
            // backward (per the Linear3d implementation):
            // AG_j(dY) + AG_i(W) + RS_k(dX) + AG_k(X) + RS_i(dW)
            let bwd = max_ag(&j_groups, m * n / l3 * FP16)
                + max_ag(&i_groups, k * n / l3 * FP16)
                + max_rs(&k_groups, m * k / l2 * FP16)
                + max_ag(&k_groups, m * k / l3 * FP16)
                + max_rs(&i_groups, k * n / l2 * FP16);
            fwd + bwd
        }
        _ => {
            // 2D, and 2.5D's depth layers (2D has one): each runs 2D SUMMA
            // on its own batch slice, with its j row groups and j column
            // groups
            let [d, j, _] = grid;
            let jj = j * j;
            let rows = axis_groups(devices, grid, &[2]);
            let cols = axis_groups(devices, grid, &[1]);
            let x_panel = (m / d as u64) * k / jj as u64 * FP16;
            let w_panel = k * n / jj as u64 * FP16;
            let bcast = |groups, bytes| worst(groups, |g| cost::broadcast_time(cluster, g, bytes));
            let mut worst_layer = 0.0f64;
            for (rows, cols) in rows.chunks(j).zip(cols.chunks(j)) {
                // 3 SUMMA passes x j rounds of (row bcast + col bcast)
                let t = 3.0 * j as f64 * (bcast(rows, x_panel) + bcast(cols, w_panel));
                worst_layer = worst_layer.max(t);
            }
            // dW all-reduce across depth (one-device groups under 2D, free)
            let depth = axis_groups(devices, grid, &[0]);
            worst_layer + worst(&depth, |g| cost::allreduce_time(cluster, g, w_panel))
        }
    }
}

/// Communication seconds of one fwd+bwd pass of a whole Transformer layer.
fn tp_layer_comm_seconds(
    mode: TpMode,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
    batch: usize,
) -> f64 {
    let m_rows = batch * cfg.max_seq;
    match mode {
        TpMode::OneD => {
            // 2 all-reduces of [M, h] forward + 2 backward, across the whole
            // TP group — the Fig 4 pattern
            let bytes = (m_rows * cfg.hidden) as u64 * FP16;
            4.0 * cost::allreduce_time(cluster, devices, bytes)
        }
        _ => layer_matmuls(cfg.hidden, cfg.mlp_ratio)
            .into_iter()
            .map(|(k, n)| matmul_comm_seconds(mode, cluster, devices, m_rows, k, n))
            .sum(),
    }
}

/// Step-time estimate for tensor-parallel ViT training (Figs 11, Table 3).
fn tp_step(
    mode: TpMode,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
    batch: usize,
) -> StepEstimate {
    let p = devices.len();
    assert!(
        mode.admits(p),
        "{} does not admit {p} devices",
        mode.label()
    );
    let flops = cfg.train_flops(batch, cfg.max_seq);
    let gpu = cluster.gpu(devices[0]);
    let compute = gpu.compute_time_f16(flops / p as u64);
    let comm = cfg.layers as f64 * tp_layer_comm_seconds(mode, cfg, cluster, devices, batch);
    StepEstimate {
        compute_seconds: compute,
        comm_seconds: comm,
        batch,
    }
}

/// Largest batch that fits for a TP mode: 1D duplicates layer boundaries,
/// advanced modes shard all activations (see `memcalc`).
fn tp_max_batch(mode: TpMode, cfg: &TransformerConfig, p: usize, capacity: u64) -> usize {
    memcalc::largest_fit(|b| {
        let model = cfg.model_data_bytes() / p as u64;
        let act = match mode {
            TpMode::OneD => cfg.layers as u64 * memcalc::act_bytes_1d_tp(cfg, b, cfg.max_seq, p),
            _ => cfg.layers as u64 * cfg.activation_bytes_per_layer(b, cfg.max_seq) / p as u64,
        };
        model + act <= capacity
    })
}

/// Best throughput over batch sizes for a mode (the paper's "trained with
/// increasing batch size until OOM" protocol).
pub fn tp_best_throughput(
    mode: TpMode,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
) -> Option<StepEstimate> {
    let p = devices.len();
    if !mode.admits(p) {
        return None;
    }
    let capacity = cluster.gpu(devices[0]).memory_bytes;
    let max_b = tp_max_batch(mode, cfg, p, capacity);
    if max_b == 0 {
        return None;
    }
    // throughput is monotone in batch under this cost model (latency
    // amortizes); evaluate at the memory limit like the paper does
    Some(tp_step(mode, cfg, cluster, devices, max_b))
}

/// Step-time estimate for sequence parallelism vs 1D TP on BERT (Fig 13a).
pub fn bert_step(
    mode: memcalc::SeqMode,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
    batch: usize,
    seq: usize,
) -> StepEstimate {
    let p = devices.len();
    let gpu = cluster.gpu(devices[0]);
    let flops = 3 * (batch * seq) as u64 * cfg.forward_flops_per_token(seq);
    let compute = gpu.compute_time_f16(flops / p as u64);
    let comm = match mode {
        memcalc::SeqMode::TensorParallel1d => {
            let bytes = (batch * seq * cfg.hidden) as u64 * FP16;
            cfg.layers as f64 * 4.0 * cost::allreduce_time(cluster, devices, bytes)
        }
        memcalc::SeqMode::SequenceParallel => {
            // per layer: ring-gather K and V (fwd), ring-scatter dK and dV
            // (bwd); per step: data-parallel gradient all-reduce of the
            // replicated model
            let contrib = (batch * seq / p * cfg.hidden) as u64 * FP16;
            let full = (batch * seq * cfg.hidden) as u64 * FP16;
            let per_layer = 2.0 * cost::allgather_time(cluster, devices, contrib)
                + 2.0 * cost::reduce_scatter_time(cluster, devices, full);
            let grads = cost::allreduce_time(cluster, devices, cfg.transformer_params() * FP16);
            cfg.layers as f64 * per_layer + grads
        }
    };
    StepEstimate {
        compute_seconds: compute,
        comm_seconds: comm,
        batch,
    }
}

/// Fig 13b: adds pipeline stages on top of a fixed parallel size. 1D TP
/// scatters + gathers activations at every stage boundary; sequence
/// parallelism sends its already-split slice with no extra collectives.
#[allow(clippy::too_many_arguments)]
pub fn bert_pipeline_step(
    mode: memcalc::SeqMode,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
    batch: usize,
    seq: usize,
    stages: usize,
    micro_batches: usize,
) -> StepEstimate {
    assert!(
        stages >= 1 && cfg.layers.is_multiple_of(stages),
        "stages must divide layers"
    );
    let base = bert_step(mode, cfg, cluster, devices, batch, seq);
    // per-stage work is 1/stages of the step, bubble-stretched
    let bubble = 1.0
        + crate::pipeline::bubble_fraction(stages, micro_batches)
            / (1.0 - crate::pipeline::bubble_fraction(stages, micro_batches));
    let p = devices.len();
    let boundary_bytes = (batch * seq * cfg.hidden / p) as u64 * FP16;
    // p2p between consecutive stage groups (approximated with the cluster's
    // cross-node link via devices 0 -> last)
    let hop = cluster.p2p_time(devices[0], devices[p - 1], boundary_bytes);
    let mut boundary = (stages - 1) as f64 * 2.0 * micro_batches as f64 * hop;
    if mode == memcalc::SeqMode::TensorParallel1d {
        // split before the hop and gather after it, inside the TP group
        let gather = cost::allgather_time(cluster, devices, boundary_bytes);
        boundary += (stages - 1) as f64 * 2.0 * micro_batches as f64 * gather;
    }
    StepEstimate {
        compute_seconds: base.compute_seconds * bubble,
        comm_seconds: base.comm_seconds + boundary,
        batch,
    }
}

/// Fig 14: per-GPU throughput of ZeRO-3 + offload training under the two
/// placement policies. `dp` ranks each process `batch` samples.
pub fn offload_step(
    policy: PlacementPolicy,
    cfg: &TransformerConfig,
    cluster: &Cluster,
    devices: &[DeviceId],
    batch: usize,
) -> StepEstimate {
    let p = devices.len() as u64;
    let gpu = cluster.gpu(devices[0]);
    let n = cfg.transformer_params();
    let seq = cfg.max_seq;
    let flops = cfg.train_flops(batch, seq);
    let compute = gpu.compute_time_f16(flops);

    // ZeRO-3 collectives (fp16): all-gather params for fwd and bwd, then
    // reduce-scatter gradients. Both engines prefetch the next layer's
    // parameters while computing the current one, so collective time
    // overlaps with compute; the step is gated by whichever is longer.
    let comm = 2.0 * cost::allgather_time(cluster, devices, 2 * n / p)
        + cost::reduce_scatter_time(cluster, devices, 2 * n);

    // placement-policy overhead: PCIe streaming + CPU share of Adam.
    // Both systems train 10B+ models with full activation checkpointing, so
    // the working set is the per-layer checkpointed inputs plus one layer's
    // live activations.
    let model = offload::ModelData {
        n_params: n,
        dp_degree: p,
    };
    let ckpt_inputs = cfg.layers as u64 * (2 * (batch * seq * cfg.hidden) as u64);
    let live_layer = cfg.activation_bytes_per_layer(batch, seq);
    let working = ckpt_inputs + live_layer;
    let plan = offload::plan(policy, model, gpu.memory_bytes, working);
    let overhead = plan.overhead_seconds(cluster.host_link(), cluster.host());

    StepEstimate {
        // compute and prefetched collectives overlap: the longer one gates
        compute_seconds: compute.max(comm),
        // PCIe offload streaming + CPU Adam do not overlap (they depend on
        // gradients produced at the end of backward)
        comm_seconds: overhead,
        batch: batch * p as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_topology::systems::{system_i, system_ii, system_iii, system_iv};

    #[test]
    fn fig11a_system_i_favors_1d() {
        // full-mesh NVLink: 1D wins at 4 and 8 GPUs (paper Fig 11a)
        let cluster = system_i();
        for (p, cfg) in [
            (4usize, TransformerConfig::vit_fig11_4gpu()),
            (8, TransformerConfig::vit_fig11_8gpu()),
        ] {
            let devices: Vec<usize> = (0..p).collect();
            let t1 = tp_best_throughput(TpMode::OneD, &cfg, &cluster, &devices)
                .unwrap()
                .throughput();
            for mode in [
                TpMode::TwoD,
                TpMode::TwoPointFiveD { depth: 2 },
                TpMode::ThreeD,
            ] {
                if let Some(e) = tp_best_throughput(mode, &cfg, &cluster, &devices) {
                    assert!(
                        e.throughput() < t1,
                        "p={p}: {} ({:.2}) should not beat 1D ({:.2}) on System I",
                        mode.label(),
                        e.throughput(),
                        t1
                    );
                }
            }
        }
    }

    #[test]
    fn fig11b_system_ii_favors_2d_25d() {
        // partially connected NVLink: 2D / 2.5D beat 1D (paper: +40% at 4
        // GPUs, +20.6% for 2.5D at 8 GPUs; 3D still loses)
        let cluster = system_ii();
        let cfg4 = TransformerConfig::vit_fig11_4gpu();
        let devices4: Vec<usize> = (0..4).collect();
        let t1 = tp_best_throughput(TpMode::OneD, &cfg4, &cluster, &devices4)
            .unwrap()
            .throughput();
        let t2 = tp_best_throughput(TpMode::TwoD, &cfg4, &cluster, &devices4)
            .unwrap()
            .throughput();
        assert!(
            t2 > t1,
            "4 GPUs on System II: 2D {t2:.2} must beat 1D {t1:.2}"
        );

        let cfg8 = TransformerConfig::vit_fig11_8gpu();
        let devices8: Vec<usize> = (0..8).collect();
        let t1 = tp_best_throughput(TpMode::OneD, &cfg8, &cluster, &devices8)
            .unwrap()
            .throughput();
        let t25 = tp_best_throughput(
            TpMode::TwoPointFiveD { depth: 2 },
            &cfg8,
            &cluster,
            &devices8,
        )
        .unwrap()
        .throughput();
        assert!(
            t25 > t1,
            "8 GPUs on System II: 2.5D {t25:.2} must beat 1D {t1:.2}"
        );
    }

    #[test]
    fn table3_speedup_grows_with_scale() {
        // System IV: advanced modes' advantage over 1D grows with GPU count
        let cluster = system_iv();
        let speedup = |mode: TpMode, p: usize, cfg: &TransformerConfig| -> Option<f64> {
            let devices: Vec<usize> = (0..p).collect();
            let t1 = tp_best_throughput(TpMode::OneD, cfg, &cluster, &devices)?.throughput();
            let tm = tp_best_throughput(mode, cfg, &cluster, &devices)?.throughput();
            Some(tm / t1)
        };
        let small = TransformerConfig::vit_table3_small();
        let large = TransformerConfig::vit_table3_large();
        let s4 = speedup(TpMode::TwoD, 4, &small).unwrap();
        let s16 = speedup(TpMode::TwoD, 16, &large).unwrap();
        let s64 = speedup(TpMode::TwoD, 64, &large).unwrap();
        assert!(
            s16 > s4,
            "2D speedup must grow: 4GPU {s4:.2} vs 16GPU {s16:.2}"
        );
        assert!(
            s64 > s16,
            "2D speedup must grow: 16GPU {s16:.2} vs 64GPU {s64:.2}"
        );
        assert!(s64 > 1.5, "64-GPU 2D speedup {s64:.2} (paper: 2.76x)");
    }

    #[test]
    fn fig13a_sequence_parallel_faster_than_1d() {
        let cluster = system_iii();
        let cfg = TransformerConfig::bert_base();
        let capacity = cluster.gpu(0).memory_bytes;
        for p in [4usize, 12] {
            let devices: Vec<usize> = (0..p).collect();
            let b_tp =
                memcalc::max_batch(memcalc::SeqMode::TensorParallel1d, &cfg, 512, p, capacity);
            let b_sp =
                memcalc::max_batch(memcalc::SeqMode::SequenceParallel, &cfg, 512, p, capacity);
            let t_tp = bert_step(
                memcalc::SeqMode::TensorParallel1d,
                &cfg,
                &cluster,
                &devices,
                b_tp,
                512,
            );
            let t_sp = bert_step(
                memcalc::SeqMode::SequenceParallel,
                &cfg,
                &cluster,
                &devices,
                b_sp,
                512,
            );
            assert!(
                t_sp.throughput() > t_tp.throughput(),
                "p={p}: SP {:.1} must beat TP {:.1} samples/s",
                t_sp.throughput(),
                t_tp.throughput()
            );
        }
    }

    #[test]
    fn fig13b_pipeline_widens_the_gap() {
        let cluster = system_iii();
        let cfg = TransformerConfig::bert_base();
        let devices: Vec<usize> = (0..4).collect();
        let (b, s, m) = (32usize, 512usize, 8usize);
        let mut prev_ratio = 0.0;
        for stages in [1usize, 2, 4] {
            let tp = bert_pipeline_step(
                memcalc::SeqMode::TensorParallel1d,
                &cfg,
                &cluster,
                &devices,
                b,
                s,
                stages,
                m,
            );
            let sp = bert_pipeline_step(
                memcalc::SeqMode::SequenceParallel,
                &cfg,
                &cluster,
                &devices,
                b,
                s,
                stages,
                m,
            );
            let ratio = sp.throughput() / tp.throughput();
            assert!(
                ratio >= prev_ratio * 0.99,
                "gap must not shrink: {ratio:.2} at {stages} stages"
            );
            prev_ratio = ratio;
        }
        assert!(
            prev_ratio > 1.0,
            "SP with 4 pipeline stages must win (paper: 1.55x)"
        );
    }

    #[test]
    fn fig14_adaptive_beats_static_and_scales() {
        let cluster = system_ii();
        let cfg = TransformerConfig::gpt2_10b();
        let mut prev_adaptive = 0.0;
        for p in [1usize, 2, 4, 8] {
            let devices: Vec<usize> = (0..p).collect();
            let s = offload_step(PlacementPolicy::StaticCpu, &cfg, &cluster, &devices, 4);
            let a = offload_step(PlacementPolicy::Adaptive, &cfg, &cluster, &devices, 4);
            assert!(
                a.throughput() > s.throughput(),
                "p={p}: adaptive {:.2} must beat static {:.2}",
                a.throughput(),
                s.throughput()
            );
            assert!(
                a.throughput() > prev_adaptive,
                "throughput must scale with p"
            );
            prev_adaptive = a.throughput();
        }
    }

    #[test]
    fn fig14_opt13b_ratio_shrinks_at_large_batch() {
        // OPT-13B at batch 32: both policies near memory limits; Colossal
        // still wins but by less (paper: 1.33x at 8 GPUs)
        let cluster = system_ii();
        let cfg = TransformerConfig::opt_13b();
        let devices: Vec<usize> = (0..8).collect();
        let gpt = TransformerConfig::gpt2_10b();
        let small_ratio = {
            let s = offload_step(PlacementPolicy::StaticCpu, &gpt, &cluster, &devices, 4);
            let a = offload_step(PlacementPolicy::Adaptive, &gpt, &cluster, &devices, 4);
            a.throughput() / s.throughput()
        };
        let big_ratio = {
            let s = offload_step(PlacementPolicy::StaticCpu, &cfg, &cluster, &devices, 32);
            let a = offload_step(PlacementPolicy::Adaptive, &cfg, &cluster, &devices, 32);
            a.throughput() / s.throughput()
        };
        assert!(big_ratio > 1.0, "adaptive must still win at batch 32");
        assert!(
            big_ratio < small_ratio,
            "advantage must shrink when memory is saturated: {big_ratio:.2} vs {small_ratio:.2}"
        );
    }

    #[test]
    fn max_batch_monotone_in_capacity_and_maximal() {
        let cfg = TransformerConfig::vit_table3_small();
        let mut prev = 0;
        for cap_gib in [8u64, 16, 40, 80] {
            let cap = cap_gib << 30;
            let b = tp_max_batch(TpMode::OneD, &cfg, 4, cap);
            assert!(b >= prev, "max batch must grow with capacity");
            prev = b;
        }
        // maximality: b fits, b+1 does not (checked through the same model)
        let cap = 16u64 << 30;
        let b = tp_max_batch(TpMode::OneD, &cfg, 4, cap);
        let bytes_at = |batch: usize| {
            cfg.model_data_bytes() / 4
                + cfg.layers as u64 * crate::memcalc::act_bytes_1d_tp(&cfg, batch, cfg.max_seq, 4)
        };
        assert!(bytes_at(b) <= cap);
        assert!(bytes_at(b + 1) > cap);
    }

    #[test]
    fn step_estimates_are_positive_and_finite() {
        let cluster = system_i();
        let cfg = TransformerConfig::vit_table3_small();
        for (mode, p) in [
            (TpMode::OneD, 4usize),
            (TpMode::TwoD, 4),
            (TpMode::TwoPointFiveD { depth: 2 }, 8),
            (TpMode::ThreeD, 8),
        ] {
            let devices: Vec<usize> = (0..p).collect();
            let est = tp_step(mode, &cfg, &cluster, &devices, 16);
            assert!(est.compute_seconds > 0.0 && est.compute_seconds.is_finite());
            assert!(est.comm_seconds > 0.0 && est.comm_seconds.is_finite());
            assert!(est.throughput() > 0.0, "{}", mode.label());
        }
        // single device: no communication
        let est = tp_step(TpMode::OneD, &cfg, &cluster, &[0], 16);
        assert_eq!(est.comm_seconds, 0.0);
    }

    #[test]
    fn max_batch_larger_for_sharded_modes() {
        let cfg = TransformerConfig::vit_fig11_8gpu();
        let cap = 80u64 << 30;
        let b1 = tp_max_batch(TpMode::OneD, &cfg, 8, cap);
        let b3 = tp_max_batch(TpMode::ThreeD, &cfg, 8, cap);
        assert!(b3 > b1, "3D max batch {b3} must exceed 1D {b1}");
    }
}
