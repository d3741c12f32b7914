//! A canonical hybrid-parallel training step used by the parity tests and
//! the `world_scale` bench.
//!
//! The workload exercises every communication primitive a real DP x TP x PP
//! step uses — tensor-parallel all-reduce and all-gather, pipeline
//! point-to-point activation/gradient transfers, data-parallel gradient
//! all-reduce — with fully deterministic synthetic data (a pure hash of
//! `(rank, step, element)`), so its per-step losses, traffic stats and
//! traces are bitwise-comparable across rank forms, pool sizes and world
//! scales.
//!
//! The step is written as a resumable [`HybridTask`] state machine, so
//! `run_tasks` runs it with no per-rank OS thread; [`run_hybrid`] drives the
//! same machine to completion for closure-style callers.

use crate::group::{CollectiveOp, Group};
use crate::task::{Poll, RankTask};
use crate::world::{DeviceCtx, RecvOp};
use colossalai_tensor::Tensor;

/// Shape of a hybrid data x tensor x pipeline parallel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridSpec {
    /// Data-parallel replicas.
    pub dp: usize,
    /// Tensor-parallel ways within a replica.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Elements per rank-local activation/gradient tensor.
    pub elems: usize,
    /// Training steps to run.
    pub steps: usize,
}

impl HybridSpec {
    /// Total world size (`dp * tp * pp`).
    pub fn ranks(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// `(stage, dp_index, tp_index)` of `rank`. Tensor-parallel neighbors
    /// get adjacent ranks (they communicate most), then data-parallel
    /// replicas, then pipeline stages — the usual hybrid rank layout.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let tp_idx = rank % self.tp;
        let dp_idx = (rank / self.tp) % self.dp;
        let stage = rank / (self.tp * self.dp);
        (stage, dp_idx, tp_idx)
    }

    /// Inverse of [`HybridSpec::coords`].
    pub fn rank_of(&self, stage: usize, dp_idx: usize, tp_idx: usize) -> usize {
        (stage * self.dp + dp_idx) * self.tp + tp_idx
    }
}

/// Deterministic synthetic activation value: splitmix64 of the element's
/// global coordinates folded to roughly [-1, 1). A pure function, so every
/// run generates identical data without any shared RNG state.
fn synth(rank: usize, step: usize, i: usize) -> f32 {
    let mut z = (rank as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((step as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(i as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
}

/// This rank's communicators and pipeline neighbors, resolved on the first
/// poll (group construction needs a `DeviceCtx`).
struct Wiring {
    tp_group: Group,
    dp_group: Group,
    next: Option<usize>,
    prev: Option<usize>,
    tp_idx: usize,
}

/// Where a [`HybridTask`] is inside the current training step. Every
/// variant that can park holds its in-flight resumable op, so a resume
/// continues exactly where the rank left off.
enum StepStage {
    /// About to synthesize this step's activation (or done, if the step
    /// counter has reached the spec).
    StepStart,
    /// Forward tensor-parallel all-reduce of partial activations.
    TpReduce(CollectiveOp),
    /// Waiting for the upstream stage's forward activation.
    RecvFwd { act: Tensor, op: RecvOp },
    /// Waiting for the downstream stage's backward gradient.
    RecvBwd { grad: Tensor, op: RecvOp },
    /// Backward tensor-parallel all-gather of sharded weight gradients.
    TpGather { grad: Tensor, op: CollectiveOp },
    /// Data-parallel gradient all-reduce closing the step.
    DpReduce(CollectiveOp),
}

/// Forward-side continuation after the activation is complete (TP-reduced
/// and, on non-first stages, combined with the upstream hand-off). A free
/// function so callers holding a borrow of the task's wiring can still
/// store the returned stage.
fn after_fwd(ctx: &DeviceCtx, spec: HybridSpec, w: &Wiring, step: usize, act: Tensor) -> StepStage {
    ctx.charge_flops_f32(4 * spec.elems as u64);
    let fwd_tag = (step * 2) as u64;
    if let Some(next) = w.next {
        ctx.send(next, fwd_tag, act.clone());
    }
    // ---- backward: gradients flow back through the pipeline
    let mut grad = act;
    grad.scale(1.0 / spec.ranks() as f32);
    match w.next {
        Some(next) => StepStage::RecvBwd {
            grad,
            op: ctx.start_recv(next, fwd_tag + 1),
        },
        None => after_bwd(ctx, spec, w, step, grad),
    }
}

/// Backward-side continuation once the local gradient is complete.
fn after_bwd(
    ctx: &DeviceCtx,
    spec: HybridSpec,
    w: &Wiring,
    step: usize,
    grad: Tensor,
) -> StepStage {
    ctx.charge_flops_f32(8 * spec.elems as u64);
    if let Some(prev) = w.prev {
        ctx.send(prev, (step * 2 + 1) as u64, grad.clone());
    }
    // TP ranks hold sharded weight gradients; gather the full view
    let shard = grad.chunk(0, spec.tp).swap_remove(w.tp_idx);
    let op = w.tp_group.start_all_gather_cat(shard, 0);
    StepStage::TpGather { grad, op }
}

/// The hybrid-parallel training loop as a resumable rank task: per step a
/// forward pass (TP all-reduce of partial activations, P2P hand-off along
/// the pipeline, compute charges), a backward pass (P2P gradient
/// back-propagation, TP all-gather of sharded gradients), and a
/// data-parallel gradient all-reduce; the step loss is the mean of the
/// DP-reduced gradient.
///
/// [`run_hybrid`] is literally `ctx.block_on` of this task, so losses,
/// stats and traces are bitwise identical for closure and task ranks.
pub struct HybridTask {
    spec: HybridSpec,
    wiring: Option<Wiring>,
    step: usize,
    losses: Vec<f32>,
    stage: StepStage,
}

impl HybridTask {
    /// A task for this rank's share of `spec` (validated on first poll).
    pub fn new(spec: HybridSpec) -> HybridTask {
        HybridTask {
            spec,
            wiring: None,
            step: 0,
            losses: Vec::with_capacity(spec.steps),
            stage: StepStage::StepStart,
        }
    }
}

impl RankTask for HybridTask {
    type Output = Vec<f32>;

    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Vec<f32>> {
        let spec = self.spec;
        if self.wiring.is_none() {
            assert!(spec.dp >= 1 && spec.tp >= 1 && spec.pp >= 1, "empty axis");
            assert!(
                spec.elems >= spec.tp && spec.elems.is_multiple_of(spec.tp),
                "elems must divide evenly into {} TP shards",
                spec.tp
            );
            let rank = ctx.rank();
            let (stage, dp_idx, tp_idx) = spec.coords(rank);
            self.wiring = Some(Wiring {
                tp_group: ctx.group(
                    &(0..spec.tp)
                        .map(|t| spec.rank_of(stage, dp_idx, t))
                        .collect::<Vec<_>>(),
                ),
                dp_group: ctx.group(
                    &(0..spec.dp)
                        .map(|d| spec.rank_of(stage, d, tp_idx))
                        .collect::<Vec<_>>(),
                ),
                next: (stage + 1 < spec.pp).then(|| spec.rank_of(stage + 1, dp_idx, tp_idx)),
                prev: (stage > 0).then(|| spec.rank_of(stage - 1, dp_idx, tp_idx)),
                tp_idx,
            });
        }
        let w = self.wiring.as_ref().expect("wiring initialized above");
        loop {
            match std::mem::replace(&mut self.stage, StepStage::StepStart) {
                StepStage::StepStart => {
                    if self.step == spec.steps {
                        return Poll::Ready(std::mem::take(&mut self.losses));
                    }
                    // ---- forward: partial matmul output, TP-combined,
                    // piped onward
                    let act = Tensor::from_vec(
                        [spec.elems],
                        (0..spec.elems)
                            .map(|i| synth(ctx.rank(), self.step, i))
                            .collect(),
                    );
                    ctx.charge_flops_f32(6 * spec.elems as u64);
                    self.stage = StepStage::TpReduce(w.tp_group.start_all_reduce(act));
                }
                StepStage::TpReduce(mut op) => match w.tp_group.poll_collective(ctx, &mut op) {
                    Poll::Pending(key) => {
                        self.stage = StepStage::TpReduce(op);
                        return Poll::Pending(key);
                    }
                    Poll::Ready(act) => match w.prev {
                        Some(prev) => {
                            self.stage = StepStage::RecvFwd {
                                act,
                                op: ctx.start_recv(prev, (self.step * 2) as u64),
                            };
                        }
                        None => self.stage = after_fwd(ctx, spec, w, self.step, act),
                    },
                },
                StepStage::RecvFwd { mut act, mut op } => match op.poll(ctx) {
                    Poll::Pending(key) => {
                        self.stage = StepStage::RecvFwd { act, op };
                        return Poll::Pending(key);
                    }
                    Poll::Ready(upstream) => {
                        act.axpy(0.5, &upstream);
                        self.stage = after_fwd(ctx, spec, w, self.step, act);
                    }
                },
                StepStage::RecvBwd { mut grad, mut op } => match op.poll(ctx) {
                    Poll::Pending(key) => {
                        self.stage = StepStage::RecvBwd { grad, op };
                        return Poll::Pending(key);
                    }
                    Poll::Ready(downstream) => {
                        grad.axpy(0.5, &downstream);
                        self.stage = after_bwd(ctx, spec, w, self.step, grad);
                    }
                },
                StepStage::TpGather { mut grad, mut op } => {
                    match w.tp_group.poll_collective(ctx, &mut op) {
                        Poll::Pending(key) => {
                            self.stage = StepStage::TpGather { grad, op };
                            return Poll::Pending(key);
                        }
                        Poll::Ready(gathered) => {
                            grad.axpy(0.25, &gathered);
                            // ---- optimizer: DP gradient reduction, then
                            // the step loss
                            self.stage = StepStage::DpReduce(w.dp_group.start_all_reduce(grad));
                        }
                    }
                }
                StepStage::DpReduce(mut op) => match w.dp_group.poll_collective(ctx, &mut op) {
                    Poll::Pending(key) => {
                        self.stage = StepStage::DpReduce(op);
                        return Poll::Pending(key);
                    }
                    Poll::Ready(reduced) => {
                        ctx.charge_flops_f32(2 * spec.elems as u64);
                        self.losses.push(reduced.mean());
                        self.step += 1;
                    }
                },
            }
        }
    }
}

/// Runs `spec.steps` hybrid-parallel training steps on this rank and
/// returns one loss value per step — the blocking driver of
/// [`HybridTask`].
///
/// All ranks of a step report identical losses only within a
/// `(stage, tp_idx)` slice — the returned vector is per-rank, and parity
/// checks compare the whole `Vec<Vec<f32>>`.
pub fn run_hybrid(ctx: &DeviceCtx, spec: &HybridSpec) -> Vec<f32> {
    ctx.block_on(HybridTask::new(*spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use colossalai_topology::systems::system_iii;

    #[test]
    fn coords_roundtrip() {
        let spec = HybridSpec {
            dp: 2,
            tp: 4,
            pp: 2,
            elems: 64,
            steps: 1,
        };
        assert_eq!(spec.ranks(), 16);
        for rank in 0..spec.ranks() {
            let (s, d, t) = spec.coords(rank);
            assert_eq!(spec.rank_of(s, d, t), rank);
        }
        // tp fastest: ranks 0..4 share stage 0 / replica 0
        assert_eq!(spec.coords(3), (0, 0, 3));
        assert_eq!(spec.coords(4), (0, 1, 0));
        assert_eq!(spec.coords(8), (1, 0, 0));
    }

    #[test]
    fn hybrid_step_is_identical_as_closures_and_as_tasks() {
        let spec = HybridSpec {
            dp: 2,
            tp: 2,
            pp: 2,
            elems: 32,
            steps: 2,
        };
        let world = World::new(system_iii());
        let a = world.run_on(spec.ranks(), |ctx| run_hybrid(ctx, &spec));
        let stats = world.stats();
        world.reset_stats();
        let b = world.run_tasks(spec.ranks(), |_rank| HybridTask::new(spec));
        assert_eq!(a, b, "same workload, either rank form: identical losses");
        assert_eq!(stats, world.stats(), "... and identical traffic");
        assert_eq!(a.len(), 8);
        assert_eq!(a[0].len(), 2);
        assert!(a.iter().flatten().all(|l| l.is_finite()));
    }
}
