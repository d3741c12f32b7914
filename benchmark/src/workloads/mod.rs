//! The four workloads and what they share: a *segment* is one fresh world
//! that sets itself up, runs a warm-up step and then a fixed number of
//! measured steps, every one checked against a reference computed once per
//! process. A run repeats segments until `--seconds` have passed, so set-up
//! is sampled once per segment and steps many times.

pub mod dp_gemm;
pub mod hybrid;
pub mod tp_modes;
pub mod zero3;

use crate::measure::{process_cpu_seconds, Spans};
use colossalai_comm::{RankRollup, World};
use colossalai_models::TransformerConfig;
use colossalai_tensor::matmul::matmul_flops;
use colossalai_tensor::{par, pool, ParStats, PoolStats};
use std::time::Instant;

/// Absolute tolerance on a loss or an output element against the serial
/// reference, scaled by `max(1, |reference|)`: the repo's stated tolerance
/// for a parallel run against its serial equivalent.
pub const TOLERANCE: f32 = 1e-5;

pub fn within_tolerance(got: f32, want: f32) -> bool {
    got.is_finite() && (got - want).abs() <= TOLERANCE * want.abs().max(1.0)
}

/// Process-wide gauges over the measured steps of one segment, opened and
/// closed by rank 0 at its own step boundaries.
pub struct Window {
    cpu_start: f64,
}

pub struct WindowOut {
    pub cpu_s: f64,
    pub pool: PoolStats,
    pub par: ParStats,
}

impl Window {
    /// Starts the window: the pool and intra-op counters restart so they
    /// count measured steps only.
    pub fn open() -> Window {
        pool::reset_stats();
        par::reset_stats();
        Window {
            cpu_start: process_cpu_seconds(),
        }
    }

    pub fn close(self) -> WindowOut {
        WindowOut {
            cpu_s: process_cpu_seconds() - self.cpu_start,
            pool: pool::stats(),
            par: par::stats(),
        }
    }
}

/// What rank 0 measured in one segment.
pub struct RankTiming {
    /// Segment start to the end of the warm-up step.
    pub setup_s: f64,
    /// Wall seconds of each measured step.
    pub step_walls: Vec<f64>,
    pub window: WindowOut,
}

/// Runs `steps` training steps on this rank, step 0 being the warm-up, and
/// times them when `timed` (rank 0). `step` receives the step index.
pub fn run_steps(
    timed: bool,
    segment_start: Instant,
    steps: usize,
    mut step: impl FnMut(usize),
) -> Option<RankTiming> {
    if !timed {
        (0..steps).for_each(step);
        return None;
    }
    step(0);
    let setup_s = segment_start.elapsed().as_secs_f64();
    let window = Window::open();
    let mut step_walls = Vec::with_capacity(steps - 1);
    for s in 1..steps {
        let t = Instant::now();
        step(s);
        step_walls.push(t.elapsed().as_secs_f64());
    }
    Some(RankTiming {
        setup_s,
        step_walls,
        window: window.close(),
    })
}

/// One segment's results, whatever the workload.
pub struct Segment {
    pub timing: RankTiming,
    /// Steps inside the timing window (the warm-up is not).
    pub measured_steps: usize,
    /// Steps run, warm-up included; each is one checked operation.
    pub attempted: u64,
    pub failed: u64,
    /// Slowest rank's virtual clock at the end over the steps run, seconds.
    pub virtual_step_s: f64,
    /// The segment's world, kept for its gauges.
    pub world: World,
    /// Virtual-clock steps the world's counters cover (warm-up included
    /// unless the workload resets them after it).
    pub counted_steps: usize,
    /// Workload-specific exact numbers (name, value).
    pub exact: Vec<(&'static str, f64)>,
}

/// The GPT both `dp_gemm` and `zero3_comm` train: wide enough that its
/// GEMMs are compute-bound at `dp_gemm`'s batch, small enough that a step
/// fits the run many times. `smoke` shrinks it to milliseconds.
pub fn gpt_config(smoke: bool) -> TransformerConfig {
    if smoke {
        TransformerConfig {
            layers: 1,
            hidden: 32,
            heads: 2,
            mlp_ratio: 2,
            vocab: 64,
            max_seq: 8,
        }
    } else {
        TransformerConfig {
            layers: 2,
            hidden: 256,
            heads: 8,
            mlp_ratio: 4,
            vocab: 512,
            max_seq: 32,
        }
    }
}

/// Matrix-product FLOPs of one forward pass over `seqs` sequences of `seq`
/// tokens (backward is twice that): per layer QKV, attention scores and
/// values, output projection and the two MLP products, plus the LM head.
pub fn gpt_forward_flops(m: &TransformerConfig, seqs: usize, seq: usize) -> u64 {
    let (rows, h) = (seqs * seq, m.hidden);
    let per_layer = matmul_flops(rows, h, 3 * h)
        + 2 * (seqs * m.heads) as u64 * matmul_flops(seq, h / m.heads, seq)
        + matmul_flops(rows, h, h)
        + 2 * matmul_flops(rows, h, m.mlp_ratio * h);
    m.layers as u64 * per_layer + matmul_flops(rows, h, m.vocab)
}

/// Bit pattern hash of a float vector (FNV-1a over the f32 bits): equal
/// hashes mean equal bits.
pub fn bits_hash(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one rank of a data-parallel workload hands back.
pub struct ReplicaOut {
    /// This rank's loss at every step.
    pub losses: Vec<f32>,
    pub clock: f64,
    /// `bits_hash` of the rank's full parameters after the last step.
    pub params_hash: u64,
    /// Gradient buckets the rank's sync plan holds.
    pub buckets: usize,
    pub timing: Option<RankTiming>,
}

/// Checks a data-parallel segment and folds it into a [`Segment`]: at every
/// step the mean of the ranks' losses must track the serial full-batch
/// `reference`, and the replicas must end bit for bit equal.
pub fn replica_segment(out: Vec<ReplicaOut>, reference: &[f32], world: World) -> Segment {
    let steps = reference.len();
    let mut failed = (0..steps)
        .filter(|&s| {
            let mean = out.iter().map(|r| r.losses[s]).sum::<f32>() / out.len() as f32;
            !within_tolerance(mean, reference[s])
        })
        .count() as u64;
    // replicas that drifted apart invalidate the run even when every loss
    // looked right
    if out.iter().any(|r| r.params_hash != out[0].params_hash) {
        failed = failed.max(1);
    }
    let clock = out.iter().map(|r| r.clock).fold(0.0, f64::max);
    let buckets = out[0].buckets;
    let timing = out
        .into_iter()
        .next()
        .and_then(|r| r.timing)
        .expect("rank 0 timed the segment");
    Segment {
        timing,
        measured_steps: steps - 1,
        attempted: steps as u64,
        failed,
        virtual_step_s: clock / steps as f64,
        world,
        counted_steps: steps,
        exact: vec![("parallel.bucket.buckets_per_step", buckets as f64)],
    }
}

/// The shapes and sizes at which the probes replay a workload's layers.
pub struct ProbeShape {
    /// Dominant GEMM `(m, k, n)`, if the workload multiplies matrices.
    pub gemm: Option<(usize, usize, usize)>,
    /// Rows and width of the activations the fused ops see.
    pub rows: usize,
    pub width: usize,
    pub vocab: usize,
    /// Parameters one optimizer step updates on one rank.
    pub optim_params: usize,
    /// Ranks in the workload's main collective group, and its message.
    pub group: usize,
    pub message_elems: usize,
    /// True when ranks are stackless tasks (`run_tasks`), false for closures.
    pub stackless: bool,
    /// FLOPs of one step's matrix products over all ranks.
    pub flops_per_step: u64,
}

pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    fn ranks(&self) -> usize;
    /// Steps of one segment, warm-up included: frozen, and recorded with the
    /// results.
    fn segment_steps(&self) -> usize;
    /// The cluster preset the worlds are built on.
    fn cluster(&self) -> colossalai_topology::Cluster;
    /// Runs one segment. With `spans`, the world records its virtual trace
    /// and rank 0 records host spans around each call into a layer.
    fn segment(&self, spans: Option<&Spans>) -> Segment;
    fn probe_shape(&self) -> ProbeShape;
}

/// Builds the workload called `name`. `smoke` shrinks it to seconds.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dp_gemm" => Box::new(dp_gemm::DpGemm::new(seed, smoke)),
        "zero3_comm" => Box::new(zero3::Zero3::new(seed, smoke)),
        "tp_modes" => Box::new(tp_modes::TpModes::new(seed, smoke)),
        "hybrid_4096" => Box::new(hybrid::Hybrid::new(smoke)),
        _ => return None,
    })
}

/// The rollup row of the rank that was busy longest: the one that bounds the
/// virtual step.
pub fn slowest_rank(rollup: &[RankRollup]) -> Option<&RankRollup> {
    rollup
        .iter()
        .max_by(|a, b| (a.compute + a.comm + a.mem).total_cmp(&(b.compute + b.comm + b.mem)))
}
