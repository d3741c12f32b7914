//! Process groups and their collective operations.
//!
//! A collective is one value — [`Collective`]` { op, wire, stream }`: what
//! to compute ([`Op`]), how wide an element is on the wire ([`Wire`]) and
//! which virtual-time stream pays ([`Stream`]). [`Group`] has two entries
//! for it, [`Group::collective`] (blocking) and [`Group::start`] +
//! [`Group::poll_collective`] (resumable, for heap tasks); the named
//! methods (`all_reduce`, `broadcast`, ...) are one-line FP32/main-stream
//! wrappers over the same path.
//!
//! Data movement is real (tensors cross threads through a rendezvous slot);
//! time is virtual (charged from the cluster's alpha-beta model for the
//! canonical ring algorithm of each collective). Reductions are applied in
//! rank order, so results are bit-deterministic across runs.

use crate::stats::OpKind;
use crate::task::{Poll, WakeKey};
use crate::trace::{group_track_name, SpanKind, Track};
use crate::world::DeviceCtx;
use colossalai_tensor::{axpy_slices, pool, Tensor};
use colossalai_topology::{cost, AllReduceAlgo, Cluster, DeviceId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Wire width of a collective payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// 4 bytes/element (FP32).
    F32,
    /// 2 bytes/element (FP16 payloads of mixed-precision/ZeRO traffic).
    F16,
    /// 1 byte/element (int8-quantized gradient traffic; the per-bucket
    /// scale is amortized into the element byte, like NCCL's int8 path).
    I8,
    /// 8 bytes/element — one (u32 index, f32 value) pair of a top-k
    /// sparsified payload.
    IdxVal,
}

impl Wire {
    /// Bytes per element at this wire width.
    pub fn bytes(self) -> u64 {
        match self {
            Wire::F32 => 4,
            Wire::F16 => 2,
            Wire::I8 => 1,
            Wire::IdxVal => 8,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collect,
    Distribute,
}

/// Which virtual-time stream a collective charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// The device's main clock: the caller observes the full op latency.
    Main,
    /// The device's comm stream: the output is returned at once (data
    /// movement is physical) while the latency accrues on
    /// [`DeviceCtx::comm_clock`], leaving the main clock free to keep
    /// charging compute; [`DeviceCtx::comm_sync`] later joins the streams
    /// (call it before the virtual time of the result matters, e.g. before
    /// `optimizer.step`).
    Comm,
}

/// What the last arrival's `finish` computation hands back to the
/// rendezvous: per-rank outputs plus the op's modeled cost and accounting.
struct Done {
    outputs: Vec<Tensor>,
    cost: f64,
    kind: OpKind,
    /// Element hops the modeled schedule moves (drives stats + bytes, at
    /// the descriptor's wire width).
    elements: u64,
    /// Labeled phase durations of multi-phase schedules (hierarchical,
    /// tree, halving-doubling), in execution order; empty for single-phase
    /// schedules. Phases always sum to `cost`.
    phases: Vec<(OpKind, f64)>,
}

impl Done {
    fn new(outputs: Vec<Tensor>, cost: f64, kind: OpKind, elements: u64) -> Done {
        Done {
            outputs,
            cost,
            kind,
            elements,
            phases: Vec::new(),
        }
    }
}

/// Cost, element hops and (for multi-phase schedules) labeled phase
/// durations of a sum/max all-reduce of `n` elements under `algo`.
/// Inapplicable schedules (hierarchical on single-node or ragged groups,
/// halving-doubling on non-power-of-two groups) silently degrade to the
/// flat ring, exactly like their `cost::*_time` estimators. The tree and
/// halving-doubling schedules move the same `2 (p-1) n` element hops as the
/// flat ring (every schedule sends each rank's contribution to every other
/// rank exactly once in each direction); only the hierarchical one differs,
/// keeping bulk hops off the bottleneck link.
fn allreduce_plan(
    algo: AllReduceAlgo,
    cluster: &Cluster,
    members: &[DeviceId],
    n: u64,
    wire: Wire,
) -> (f64, u64, Vec<(OpKind, f64)>) {
    let p = members.len() as u64;
    let bytes = n * wire.bytes();
    let flat_elements = 2 * p.saturating_sub(1) * n;
    if p > 1 && n > 0 {
        match algo {
            AllReduceAlgo::Hierarchical => {
                if let Some((t1, t2, t3)) =
                    cost::hierarchical_allreduce_phases(cluster, members, bytes)
                {
                    let elements = cost::hierarchical_allreduce_elements(cluster, members, n)
                        .expect("phase breakdown implies applicability");
                    let phases = vec![
                        (OpKind::ReduceScatter, t1),
                        (OpKind::AllReduce, t2),
                        (OpKind::AllGather, t3),
                    ];
                    return (t1 + t2 + t3, elements, phases);
                }
            }
            AllReduceAlgo::Tree => {
                let (t1, t2) = cost::tree_allreduce_phases(cluster, members, bytes);
                let phases = vec![(OpKind::Reduce, t1), (OpKind::Broadcast, t2)];
                return (t1 + t2, flat_elements, phases);
            }
            AllReduceAlgo::RecursiveHalvingDoubling => {
                if let Some((t1, t2)) = cost::rhd_allreduce_phases(cluster, members, bytes) {
                    let phases = vec![(OpKind::ReduceScatter, t1), (OpKind::AllGather, t2)];
                    return (t1 + t2, flat_elements, phases);
                }
            }
            AllReduceAlgo::FlatRing => {}
        }
    }
    let cost = cost::allreduce_time(cluster, members, bytes);
    (cost, flat_elements, Vec::new())
}

/// What the last arrival computes from the deposited inputs. Roots are
/// group ranks; `dim` is the axis chunked or concatenated along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Sum (or, with `max`, elementwise-max) all-reduce. The schedule (flat
    /// ring, hierarchical, tree, halving-doubling) is chosen per call from
    /// the alpha-beta cost model on the actual link graph; the reduction
    /// itself always applies in canonical group-rank order, so results are
    /// bitwise identical under every schedule.
    AllReduce { max: bool },
    /// Sum all-reduce of top-k-sparsified contributions: each rank's tensor
    /// is dense but holds at most `k` nonzeros; the wire carries only those
    /// as (u32 index, f32 value) pairs, all-gathered and summed locally
    /// (supports need not overlap, so a reduce tree cannot stay k-sparse —
    /// the standard sparse all-reduce schedule). The output is the dense
    /// rank-ordered sum, bitwise identical to [`Op::AllReduce`] of the same
    /// tensors. The wire is always [`Wire::IdxVal`].
    SparseAllReduce { k: usize },
    /// Every rank contributes a shard and receives the concatenation along
    /// `dim`, in rank order.
    AllGather { dim: usize },
    /// Sums all contributions; each rank keeps its rank-th chunk along
    /// `dim`.
    ReduceScatter { dim: usize },
    /// Every rank receives `root`'s tensor. Non-root inputs are ignored
    /// (pass an empty tensor, e.g. `Tensor::zeros([0])`).
    Broadcast { root: usize },
    /// `root`'s tensor is chunked along `dim` into `size()` pieces; rank i
    /// receives piece i. Non-root inputs are ignored.
    Scatter { dim: usize, root: usize },
    /// `root` receives the concatenation along `dim`, other ranks an empty
    /// tensor.
    Gather { dim: usize, root: usize },
    /// Each rank's tensor is chunked along `dim`; rank i ends with the
    /// concatenation (along `dim`) of everyone's chunk i.
    AllToAll { dim: usize },
    /// `root` receives the elementwise sum of all contributions, other
    /// ranks an empty tensor. (Cost model: the mirror image of a pipelined
    /// broadcast.)
    ReduceSum { root: usize },
    /// Synchronization only; costs one latency-bound all-reduce of a single
    /// FP32 wire element. Input and output are empty.
    Barrier,
}

impl Op {
    /// Whether every member must contribute the same shape. False where
    /// only the root's input counts or contributions may be ragged.
    fn same_shape(self) -> bool {
        matches!(
            self,
            Op::AllReduce { .. }
                | Op::SparseAllReduce { .. }
                | Op::ReduceScatter { .. }
                | Op::AllToAll { .. }
                | Op::ReduceSum { .. }
        )
    }
}

/// One collective, fully described: what to compute, how wide each element
/// is on the wire, and which virtual-time stream pays for it. Precision and
/// overlap are *parameters* of a collective, not separate collectives —
/// every op runs at every wire width on either stream through
/// [`Group::collective`] (blocking) or [`Group::start`] (resumable).
///
/// A plain `Copy` value instead of a `FnOnce` closure so a [`CollectiveOp`]
/// is a small `'static` struct a heap [`crate::task::RankTask`] can hold
/// across polls, and so the rendezvous can check that every member asked
/// for the same `op` and `wire`; the combine itself (`finish_spec`) runs
/// in the last arrival's poll, where a `DeviceCtx` (cluster, forced algo)
/// is at hand.
///
/// The wire width only changes the modeled bytes (cost, stats, trace): the
/// payload stays f32, so a caller that wants the *values* rounded (fp16,
/// int8 grid) rounds them first — see [`crate::compress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Collective {
    pub op: Op,
    pub wire: Wire,
    pub stream: Stream,
}

impl Collective {
    /// The same collective at `wire` width.
    pub fn wire(self, wire: Wire) -> Collective {
        Collective { wire, ..self }
    }

    /// The same collective charged to `stream`.
    pub fn on(self, stream: Stream) -> Collective {
        Collective { stream, ..self }
    }
}

/// The defaults: `op` at FP32 wire width on the main stream.
impl From<Op> for Collective {
    fn from(op: Op) -> Collective {
        Collective {
            op,
            wire: Wire::F32,
            stream: Stream::Main,
        }
    }
}

/// `op(parameters)` as the mismatch diagnostic prints it.
impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = format!("{:?}", self.wire).to_lowercase();
        match self.op {
            Op::AllReduce { max: false } => write!(f, "all_reduce({w})"),
            Op::AllReduce { max: true } => write!(f, "all_reduce_max({w})"),
            Op::SparseAllReduce { k } => write!(f, "all_reduce_sparse(k {k})"),
            Op::AllGather { dim } => write!(f, "all_gather(dim {dim}, {w})"),
            Op::ReduceScatter { dim } => write!(f, "reduce_scatter(dim {dim}, {w})"),
            Op::Broadcast { root } => write!(f, "broadcast(root {root}, {w})"),
            Op::Scatter { dim, root } => write!(f, "scatter(dim {dim}, root {root}, {w})"),
            Op::Gather { dim, root } => write!(f, "gather(dim {dim}, root {root}, {w})"),
            Op::AllToAll { dim } => write!(f, "all_to_all(dim {dim}, {w})"),
            Op::ReduceSum { root } => write!(f, "reduce_sum(root {root}, {w})"),
            Op::Barrier => write!(f, "barrier"),
        }
    }
}

/// Runs `desc.op`'s combine over the rank-ordered inputs: per-rank outputs,
/// modeled cost and traffic accounting at `desc.wire` width. Pure in the
/// inputs plus the cluster model (and the world's forced-algo pin), so the
/// outputs are bitwise identical no matter which rank arrives last.
fn finish_spec(desc: Collective, ctx: &DeviceCtx, members: &[DeviceId], inputs: &[Tensor]) -> Done {
    let p = members.len();
    let cluster = ctx.cluster();
    let wire = desc.wire;
    match desc.op {
        Op::AllReduce { max } => {
            let acc = reduce_rank_ordered(inputs, max);
            let n = acc.numel() as u64;
            // max is associative+commutative, so the hierarchical schedule
            // applies to it exactly as to sum
            let algo = ctx
                .forced_allreduce_algo()
                .unwrap_or_else(|| cost::select_allreduce_algo(cluster, members, n * wire.bytes()));
            let (cost, elements, phases) = allreduce_plan(algo, cluster, members, n, wire);
            Done {
                outputs: vec![acc; p],
                cost,
                kind: OpKind::AllReduce,
                elements,
                phases,
            }
        }
        Op::SparseAllReduce { k } => {
            let acc = reduce_rank_ordered(inputs, false);
            // a rank never sends more pairs than it has elements
            let k = (k as u64).min(acc.numel() as u64);
            // ring all-gather of every rank's k pairs; each rank sums the
            // incoming pairs into its dense buffer at zero modeled cost
            let cost = cost::allgather_time(cluster, members, k * wire.bytes());
            let elements = (p as u64 - 1) * p as u64 * k;
            Done::new(vec![acc; p], cost, OpKind::AllReduce, elements)
        }
        Op::AllGather { dim } => {
            let contrib = inputs[0].numel() as u64;
            let full = Tensor::cat(inputs, dim);
            let cost = cost::allgather_time(cluster, members, contrib * wire.bytes());
            let elements = (p as u64 - 1) * p as u64 * contrib;
            Done::new(vec![full; p], cost, OpKind::AllGather, elements)
        }
        Op::ReduceScatter { dim } => {
            let n = inputs[0].numel() as u64;
            let outs = reduce_scatter_rank_ordered(inputs, dim);
            let cost = cost::reduce_scatter_time(cluster, members, n * wire.bytes());
            let elements = (p as u64 - 1) * n;
            Done::new(outs, cost, OpKind::ReduceScatter, elements)
        }
        Op::Broadcast { root } => {
            let src = inputs[root].clone();
            let n = src.numel() as u64;
            let cost = cost::broadcast_time(cluster, members, n * wire.bytes());
            let elements = (p as u64 - 1) * n;
            Done::new(vec![src; p], cost, OpKind::Broadcast, elements)
        }
        Op::Scatter { dim, root } => {
            let src = &inputs[root];
            let n = src.numel() as u64;
            let outs = src.chunk_ragged(dim, p);
            // uneven chunks: the largest one gates the pairwise exchange
            let max_chunk = outs.iter().map(|c| c.numel() as u64).max().unwrap_or(0);
            let kept = outs[root].numel() as u64;
            let cost = cost::alltoall_time(cluster, members, max_chunk * wire.bytes());
            // the root wires out everything except its own chunk
            let elements = n - kept;
            Done::new(outs, cost, OpKind::Scatter, elements)
        }
        Op::Gather { dim, root } => {
            // contributions may be ragged: bill what each rank actually sends
            let max_contrib = inputs
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != root)
                .map(|(_, t)| t.numel() as u64)
                .max()
                .unwrap_or(0);
            let elements: u64 = inputs
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != root)
                .map(|(_, t)| t.numel() as u64)
                .sum();
            let full = Tensor::cat(inputs, dim);
            let outs = (0..p)
                .map(|r| {
                    if r == root {
                        full.clone()
                    } else {
                        Tensor::zeros([0])
                    }
                })
                .collect();
            let cost = cost::alltoall_time(cluster, members, max_contrib * wire.bytes());
            Done::new(outs, cost, OpKind::Gather, elements)
        }
        Op::AllToAll { dim } => {
            let n = inputs[0].numel() as u64;
            let per_rank: Vec<Vec<Tensor>> =
                inputs.iter().map(|t| t.chunk_ragged(dim, p)).collect();
            // chunk sizes need not divide evenly; the largest chunk gates
            // each pairwise exchange step
            let max_chunk = per_rank[0]
                .iter()
                .map(|c| c.numel() as u64)
                .max()
                .unwrap_or(0);
            let outs = (0..p)
                .map(|i| {
                    let mine: Vec<Tensor> =
                        per_rank.iter().map(|chunks| chunks[i].clone()).collect();
                    Tensor::cat(&mine, dim)
                })
                .collect();
            let cost = cost::alltoall_time(cluster, members, max_chunk * wire.bytes());
            // each rank wires out its tensor minus the chunk it keeps; the
            // kept chunks across ranks sum to exactly one tensor
            let elements = (p as u64 - 1) * n;
            Done::new(outs, cost, OpKind::AllToAll, elements)
        }
        Op::ReduceSum { root } => {
            let sum = reduce_rank_ordered(inputs, false);
            let n = sum.numel() as u64;
            let outs = (0..p)
                .map(|r| {
                    if r == root {
                        sum.clone()
                    } else {
                        Tensor::zeros([0])
                    }
                })
                .collect();
            let cost = cost::broadcast_time(cluster, members, n * wire.bytes());
            let elements = (p as u64 - 1) * n;
            Done::new(outs, cost, OpKind::Reduce, elements)
        }
        Op::Barrier => {
            let cost = cost::allreduce_time(cluster, members, wire.bytes());
            Done::new(vec![Tensor::zeros([0]); p], cost, OpKind::Barrier, 0)
        }
    }
}

/// Where a [`CollectiveOp`] is in the rendezvous protocol.
enum CollStage {
    /// Not yet deposited (possibly waiting out the previous op's drain).
    Enter,
    /// Deposited; waiting for the last arrival to publish the outputs.
    AwaitPublish,
}

/// One in-flight collective on this rank: the resumable form of a
/// rendezvous entry, created by [`Group::start`] and advanced by
/// [`Group::poll_collective`] until it yields the rank's output.
///
/// Holding one of these across polls is what lets a heap
/// [`crate::task::RankTask`] park *inside* a collective without owning a
/// stack; the blocking collectives drive the very same struct through
/// [`DeviceCtx::block_on`]'s poll/sleep loop.
pub struct CollectiveOp {
    desc: Collective,
    input: Option<Tensor>,
    /// This rank's arrival clock, latched on the first poll.
    t_arrive: Option<f64>,
    stage: CollStage,
    /// Set when the previous poll returned `Pending`: the next poll counts
    /// one observed group wakeup.
    parked: bool,
}

struct SlotState {
    phase: Phase,
    inputs: Vec<Option<Tensor>>,
    outputs: Vec<Option<Tensor>>,
    arrived: usize,
    picked: usize,
    t_max: f64,
    t_done: f64,
    /// Kind and wire bytes of the op in flight, published by the last
    /// arrival so every rank can emit its own trace span.
    op: Option<(OpKind, u64)>,
    /// What the first arrival of the op in flight asked for, and its group
    /// index (its input sits in `inputs` until the publish): every later
    /// arrival must match it.
    first: Option<(Collective, usize)>,
    /// Global ranks parked `Pending` for this op's publish; drained (and
    /// woken through the executor) by the last arrival.
    parked_publish: Vec<DeviceId>,
    /// Ranks parked waiting for the previous op's drain; woken by the last
    /// picker's reset.
    parked_drain: Vec<DeviceId>,
}

/// Shared state of one process group (all member handles point here).
///
/// The rendezvous has two distinct wait reasons, each with its own parked
/// list so a wake never reaches ranks parked for the *other* reason:
/// Collect-phase waiters sit in `parked_publish` (woken once, by the last
/// arrival), while next-op entrants draining a still-Distribute slot sit in
/// `parked_drain` (woken once, by the last picker). Every spurious wake
/// would cost a full requeue/dispatch cycle.
pub(crate) struct GroupShared {
    members: Vec<DeviceId>,
    slot: Mutex<SlotState>,
}

impl GroupShared {
    pub(crate) fn new(members: Vec<DeviceId>) -> Self {
        let p = members.len();
        GroupShared {
            members,
            slot: Mutex::new(SlotState {
                phase: Phase::Collect,
                inputs: vec![None; p],
                // Empty, like after every last-picker reset: the last
                // arrival replaces the whole vector when publishing, and a
                // fresh Collect slot must hold no stale output storage.
                outputs: Vec::new(),
                arrived: 0,
                picked: 0,
                t_max: 0.0,
                t_done: 0.0,
                op: None,
                first: None,
                parked_publish: Vec::new(),
                parked_drain: Vec::new(),
            }),
        }
    }

    /// The group's member ranks as `[0,1]`, for diagnostics.
    pub(crate) fn members_text(&self) -> String {
        bracketed(&self.members)
    }

    /// Every rank parked on this group's rendezvous with the edge it waits
    /// for (the deadlock report reads this).
    pub(crate) fn parked(shared: &Arc<GroupShared>) -> Vec<(DeviceId, WakeKey)> {
        let st = shared.slot.lock();
        let publish = st.parked_publish.iter();
        let drain = st.parked_drain.iter();
        publish
            .map(|&r| (r, WakeKey::publish(shared)))
            .chain(drain.map(|&r| (r, WakeKey::drain(shared))))
            .collect()
    }
}

/// `[0,1]`: how diagnostics print member lists and shapes.
fn bracketed(items: &[usize]) -> String {
    let items: Vec<String> = items.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// A member's handle to a process group.
///
/// All members must invoke the same sequence of collectives (SPMD), exactly
/// like an MPI communicator or a NCCL process group.
#[derive(Clone)]
pub struct Group {
    shared: Arc<GroupShared>,
    my_index: usize,
}

impl Group {
    pub(crate) fn new(shared: Arc<GroupShared>, device: DeviceId) -> Group {
        let my_index = shared
            .members
            .iter()
            .position(|&m| m == device)
            .expect("device not in group");
        Group { shared, my_index }
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// This member's rank within the group (0-based, in member-list order).
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Global device ids of the members, in group-rank order.
    pub fn members(&self) -> &[DeviceId] {
        &self.shared.members
    }

    /// Advances an in-flight collective by one step: the poll-driven form
    /// of the rendezvous. Every rank deposits its input; the last arrival
    /// runs `finish_spec` (one output per rank, the op's virtual cost,
    /// kind and element-hop count); every rank leaves with its output and
    /// the charged stream's clock advanced to `max(arrival clocks) + cost`.
    /// On [`Stream::Main`] the arrival clock is the main clock; on
    /// [`Stream::Comm`] it is `max(main, comm)` and only the comm clock
    /// advances, so compute may keep accruing behind the collective.
    ///
    /// A rank that must wait returns [`Poll::Pending`] with the wake key of
    /// the edge it needs (publish or drain), after registering itself in
    /// the slot's parked list *under the slot lock*, so the waking rank
    /// cannot miss it. Spurious re-polls re-check the phase and re-park.
    /// The blocking [`Group::collective`] drives this same method, which
    /// is what keeps closure and task ranks bitwise identical.
    ///
    /// Members that disagree on the op, its wire, root, dim or (for
    /// reductions and all-to-all) input shape would silently compute
    /// whatever the last arrival asked for; the second arrival of such a
    /// pair panics instead, naming both ranks.
    ///
    /// When tracing is enabled, every rank emits a [`SpanKind::Collective`]
    /// span (on its device or comm-stream track) from its arrival to the
    /// group-wide completion, and the last arrival additionally emits the
    /// group-track span(s) — one per op, or one per phase for the
    /// hierarchical schedule.
    pub fn poll_collective(&self, ctx: &DeviceCtx, op: &mut CollectiveOp) -> Poll<Tensor> {
        ctx.check_abort();
        if op.parked {
            // resumed after a Pending
            op.parked = false;
            ctx.world.count_group_wake();
        }
        let p = self.size();
        let stream = op.desc.stream;
        // arrival time latches on the first poll — re-polls after Pending
        // must not re-read a clock that never moved while parked
        let t_arrive = match op.t_arrive {
            Some(t) => t,
            None => {
                let t = match stream {
                    Stream::Main => ctx.clock(),
                    Stream::Comm => ctx.comm_ready(),
                };
                op.t_arrive = Some(t);
                t
            }
        };
        if p == 1 {
            // single-rank group: identity data-wise and zero cost, but still
            // one group op — record the promised stats entry (zero element
            // hops) and a zero-length trace span
            let input = op
                .input
                .take()
                .expect("collective op polled after completion");
            let done = finish_spec(op.desc, ctx, self.members(), std::slice::from_ref(&input));
            let bytes = done.elements * op.desc.wire.bytes();
            ctx.record_stats(done.kind, done.elements, bytes);
            let t_done = t_arrive + done.cost;
            self.advance_stream(ctx, stream, t_done);
            if ctx.tracing() {
                let group = self.members().to_vec();
                ctx.trace_span_on(
                    self.device_track(ctx, stream),
                    SpanKind::Collective {
                        kind: done.kind,
                        bytes,
                        group,
                    },
                    t_arrive,
                    t_done,
                );
                self.trace_group_phases(ctx, &done, bytes, t_arrive, t_done);
            }
            let mut outs = done.outputs;
            return Poll::Ready(outs.pop().expect("finish produced no output"));
        }
        let shared = &*self.shared;
        let mut st = shared.slot.lock();
        if matches!(op.stage, CollStage::Enter) {
            if st.phase == Phase::Distribute {
                // previous op not fully drained: park until the last picker
                // resets the slot
                op.parked = true;
                if !st.parked_drain.contains(&ctx.rank()) {
                    st.parked_drain.push(ctx.rank());
                }
                return Poll::Pending(WakeKey::drain(&self.shared));
            }
            if st.arrived == 0 {
                // first arrival of an op: the last picker's reset (or `new`)
                // must have left no residue from the previous op
                debug_assert!(
                    st.inputs.iter().all(Option::is_none),
                    "stale inputs entering Collect"
                );
                debug_assert!(st.outputs.is_empty(), "stale outputs entering Collect");
                debug_assert_eq!(st.picked, 0, "stale pick count entering Collect");
                debug_assert_eq!(st.t_max, 0.0, "stale t_max entering Collect");
                debug_assert_eq!(st.t_done, 0.0, "stale t_done entering Collect");
                debug_assert!(st.op.is_none(), "stale op metadata entering Collect");
            }
            assert!(
                st.inputs[self.my_index].is_none(),
                "rank reentered collective"
            );
            let input = op
                .input
                .take()
                .expect("collective op polled after completion");
            match st.first {
                None => st.first = Some((op.desc, self.my_index)),
                Some((first, idx)) => {
                    let theirs = st.inputs[idx].as_ref().expect("first arrival's input");
                    // streams are per-rank bookkeeping and may differ
                    if (first.op, first.wire) != (op.desc.op, op.desc.wire)
                        || (first.op.same_shape() && theirs.dims() != input.dims())
                    {
                        let mut sides = [
                            (self.members()[idx], first, theirs.dims()),
                            (ctx.rank(), op.desc, input.dims()),
                        ];
                        sides.sort_by_key(|&(rank, ..)| rank);
                        let [a, b] = sides.map(|(rank, desc, dims)| {
                            format!("rank {rank} {desc}{}", bracketed(dims))
                        });
                        let group = bracketed(self.members());
                        panic!("collective mismatch on group {group}: {a} vs {b}");
                    }
                }
            }
            st.inputs[self.my_index] = Some(input);
            st.arrived += 1;
            st.t_max = st.t_max.max(t_arrive);
            op.stage = CollStage::AwaitPublish;
            if st.arrived == p {
                // last arrival: combine and publish
                let inputs: Vec<Tensor> = st.inputs.iter_mut().map(|i| i.take().unwrap()).collect();
                let mut done = finish_spec(op.desc, ctx, self.members(), &inputs);
                assert_eq!(
                    done.outputs.len(),
                    p,
                    "finish must produce one output per rank"
                );
                let bytes = done.elements * op.desc.wire.bytes();
                st.outputs = std::mem::take(&mut done.outputs)
                    .into_iter()
                    .map(Some)
                    .collect();
                st.t_done = st.t_max + done.cost;
                st.phase = Phase::Distribute;
                st.op = Some((done.kind, bytes));
                st.first = None;
                ctx.record_stats(done.kind, done.elements, bytes);
                self.trace_group_phases(ctx, &done, bytes, st.t_max, st.t_done);
                // wakes only the p-1 Collect waiters — ranks already
                // draining toward the *next* op sit on the drain edge and
                // stay parked. The list is drained under the slot lock, so
                // no rank can register between publish and wake.
                for r in std::mem::take(&mut st.parked_publish) {
                    ctx.tasks.wake(r);
                }
                // fall through to pick our own output
            } else {
                op.parked = true;
                st.parked_publish.push(ctx.rank());
                return Poll::Pending(WakeKey::publish(&self.shared));
            }
        } else if st.phase == Phase::Collect {
            // spurious resume: the publish we are waiting for has not
            // happened yet — re-park (a waiter's predicate re-check)
            op.parked = true;
            if !st.parked_publish.contains(&ctx.rank()) {
                st.parked_publish.push(ctx.rank());
            }
            return Poll::Pending(WakeKey::publish(&self.shared));
        }
        let out = st.outputs[self.my_index]
            .take()
            .expect("output already taken");
        let t_done = st.t_done;
        let (kind, bytes) = st.op.expect("op metadata published by last arrival");
        st.picked += 1;
        if st.picked == p {
            // last picker resets the slot *fully* for the next op — every
            // field the first arrival's clean-slot assertion checks,
            // including the output storage (a fresh Vec, so a huge op's
            // capacity is not pinned for the group's lifetime) and t_done
            st.phase = Phase::Collect;
            st.arrived = 0;
            st.picked = 0;
            st.t_max = 0.0;
            st.t_done = 0.0;
            st.outputs = Vec::new();
            st.op = None;
            for r in std::mem::take(&mut st.parked_drain) {
                ctx.tasks.wake(r);
            }
        }
        drop(st);
        self.advance_stream(ctx, stream, t_done);
        if ctx.tracing() {
            let group = self.members().to_vec();
            ctx.trace_span_on(
                self.device_track(ctx, stream),
                SpanKind::Collective { kind, bytes, group },
                t_arrive,
                t_done,
            );
        }
        Poll::Ready(out)
    }

    /// Starts `desc` on this rank's input `t` as a resumable op; advance it
    /// with [`Group::poll_collective`]. This is the one way a collective
    /// begins — [`Group::collective`] and every named wrapper go through it
    /// — so heap [`crate::RankTask`]s get every op, width and stream, and
    /// the same argument checks: a root outside the group or a `dim` the
    /// input does not have panics here, naming the op, instead of deep in
    /// the last arrival's combine on some other rank.
    pub fn start(&self, desc: Collective, t: Tensor) -> CollectiveOp {
        // (root, axis this rank's input must have); rootless ops pass for 0
        let (root, dim) = match desc.op {
            Op::Broadcast { root } | Op::ReduceSum { root } => (root, None),
            // non-root scatter inputs are ignored, whatever their shape
            Op::Scatter { dim, root } => (root, (self.rank() == root).then_some(dim)),
            Op::Gather { dim, root } => (root, Some(dim)),
            Op::AllGather { dim } | Op::ReduceScatter { dim } | Op::AllToAll { dim } => {
                (0, Some(dim))
            }
            Op::AllReduce { .. } | Op::SparseAllReduce { .. } | Op::Barrier => (0, None),
        };
        assert!(
            root < self.size(),
            "{desc}: root out of range for a group of {}",
            self.size()
        );
        assert!(
            dim.is_none_or(|d| d < t.rank()),
            "{desc}: dim out of range for input {}",
            bracketed(t.dims())
        );
        // ops that fix their own wire format
        let wire = match desc.op {
            Op::SparseAllReduce { .. } => Wire::IdxVal,
            Op::Barrier => Wire::F32,
            _ => desc.wire,
        };
        CollectiveOp {
            desc: desc.wire(wire),
            input: Some(t),
            t_arrive: None,
            stage: CollStage::Enter,
            parked: false,
        }
    }

    /// Runs `desc` to completion and returns this rank's output: the
    /// blocking form for closure ranks, polling the op and sleeping on the
    /// rank's own thread whenever the poll returns `Pending` — the same
    /// state machine a heap task advances by hand.
    pub fn collective(&self, ctx: &DeviceCtx, desc: Collective, t: Tensor) -> Tensor {
        let mut op = self.start(desc, t);
        ctx.block_until(|| self.poll_collective(ctx, &mut op))
    }

    // ---- named forms: FP32 wire, main stream ----------------------------

    /// [`Group::start`] of a sum all-reduce.
    pub fn start_all_reduce(&self, t: Tensor) -> CollectiveOp {
        self.start(Op::AllReduce { max: false }.into(), t)
    }

    /// [`Group::start`] of an all-gather along `dim`.
    pub fn start_all_gather_cat(&self, t: Tensor, dim: usize) -> CollectiveOp {
        self.start(Op::AllGather { dim }.into(), t)
    }

    /// [`Group::start`] of a barrier; the output tensor is empty.
    pub fn start_barrier(&self) -> CollectiveOp {
        self.start(Op::Barrier.into(), Tensor::zeros([0]))
    }

    /// [`Op::AllReduce`] (sum).
    pub fn all_reduce(&self, ctx: &DeviceCtx, t: Tensor) -> Tensor {
        self.collective(ctx, Op::AllReduce { max: false }.into(), t)
    }

    /// [`Op::AllReduce`] with `max` (distributed gradient-norm and
    /// loss-scale synchronization).
    pub fn all_reduce_max(&self, ctx: &DeviceCtx, t: Tensor) -> Tensor {
        self.collective(ctx, Op::AllReduce { max: true }.into(), t)
    }

    /// [`Op::AllGather`].
    pub fn all_gather_cat(&self, ctx: &DeviceCtx, t: Tensor, dim: usize) -> Tensor {
        self.collective(ctx, Op::AllGather { dim }.into(), t)
    }

    /// [`Op::ReduceScatter`].
    pub fn reduce_scatter(&self, ctx: &DeviceCtx, t: Tensor, dim: usize) -> Tensor {
        self.collective(ctx, Op::ReduceScatter { dim }.into(), t)
    }

    /// [`Op::Broadcast`].
    pub fn broadcast(&self, ctx: &DeviceCtx, t: Tensor, root: usize) -> Tensor {
        self.collective(ctx, Op::Broadcast { root }.into(), t)
    }

    /// [`Op::Scatter`].
    pub fn scatter(&self, ctx: &DeviceCtx, t: Tensor, dim: usize, root: usize) -> Tensor {
        self.collective(ctx, Op::Scatter { dim, root }.into(), t)
    }

    /// [`Op::Gather`].
    pub fn gather_cat(&self, ctx: &DeviceCtx, t: Tensor, dim: usize, root: usize) -> Tensor {
        self.collective(ctx, Op::Gather { dim, root }.into(), t)
    }

    /// [`Op::AllToAll`].
    pub fn all_to_all(&self, ctx: &DeviceCtx, t: Tensor, dim: usize) -> Tensor {
        self.collective(ctx, Op::AllToAll { dim }.into(), t)
    }

    /// [`Op::ReduceSum`].
    pub fn reduce_sum(&self, ctx: &DeviceCtx, t: Tensor, root: usize) -> Tensor {
        self.collective(ctx, Op::ReduceSum { root }.into(), t)
    }

    /// [`Op::Barrier`].
    pub fn barrier(&self, ctx: &DeviceCtx) {
        let _ = self.collective(ctx, Op::Barrier.into(), Tensor::zeros([0]));
    }

    fn advance_stream(&self, ctx: &DeviceCtx, stream: Stream, t_done: f64) {
        match stream {
            Stream::Main => ctx.advance_to(t_done),
            Stream::Comm => ctx.comm_advance_to(t_done),
        }
    }

    fn device_track(&self, ctx: &DeviceCtx, stream: Stream) -> Track {
        match stream {
            Stream::Main => Track::Device(ctx.rank()),
            Stream::Comm => Track::DeviceComm(ctx.rank()),
        }
    }

    /// Emits this op's group-track span(s): a single span for one-phase
    /// schedules, or one labeled span per phase for the multi-phase ones
    /// (hierarchical RS/AR/AG, tree reduce/broadcast, halving-doubling
    /// RS/AG), tiling the op interval contiguously.
    fn trace_group_phases(&self, ctx: &DeviceCtx, done: &Done, bytes: u64, start: f64, end: f64) {
        if done.phases.is_empty() {
            self.trace_group_span(ctx, done.kind, bytes, start, end);
            return;
        }
        let mut t = start;
        for (i, &(kind, dt)) in done.phases.iter().enumerate() {
            // the last phase snaps to the op's end so float rounding never
            // leaves a gap in the tiling
            let stop = if i + 1 == done.phases.len() {
                end
            } else {
                t + dt
            };
            self.trace_group_span(ctx, kind, bytes, t, stop);
            t = stop;
        }
    }

    /// Emits the one-per-op span on this group's dedicated track. The span
    /// is attributed to the group's first member (not the recording rank —
    /// which rank arrives last is pool-dependent), keeping trace snapshots
    /// bitwise identical across pool sizes and rank forms.
    fn trace_group_span(&self, ctx: &DeviceCtx, kind: OpKind, bytes: u64, start: f64, end: f64) {
        if ctx.tracing() {
            let members = self.members();
            ctx.trace_span_as(
                members[0],
                Track::Group(group_track_name(members)),
                SpanKind::Collective {
                    kind,
                    bytes,
                    group: members.to_vec(),
                },
                start,
                end,
            );
        }
    }
}

/// Elements one block of a rank-ordered reduction spans: 16 KB of
/// accumulator, so it is still in L1 when the last rank's values arrive.
const REDUCE_BLOCK: usize = 4096;

/// Appends to `out` the elementwise reduction of every input's flat
/// elements `range`, in one pass: each [`REDUCE_BLOCK`] starts as rank 0's
/// values and `take`s (adds, or maximizes with) ranks 1..p in ascending
/// order while it is hot. Per element that is the ascending-rank chain of
/// the repo's arithmetic-equivalence contract for collectives, so the bits
/// do not depend on the blocking.
fn reduce_rank_ordered_into(
    out: &mut Vec<f32>,
    inputs: &[Tensor],
    range: std::ops::Range<usize>,
    take: impl Fn(&mut [f32], &[f32]),
) {
    for start in range.clone().step_by(REDUCE_BLOCK) {
        let block = start..range.end.min(start + REDUCE_BLOCK);
        let filled = out.len();
        out.extend_from_slice(&inputs[0].data()[block.clone()]);
        for x in &inputs[1..] {
            take(&mut out[filled..], &x.data()[block.clone()]);
        }
    }
}

/// `acc[i] += x[i]`: the step of a rank-ordered sum.
fn add_rank(acc: &mut [f32], x: &[f32]) {
    axpy_slices(acc, 1.0, x);
}

/// The rank-ordered sum of the rendezvous inputs, cut into one chunk per
/// rank along `dim`. Rank r's chunk is `outer` strips of the flat elements
/// (one when `dim` is 0); each is summed straight into the buffer r alone
/// will own, so r may scale it in place — nothing sums the whole vector
/// and copies chunks out of it.
fn reduce_scatter_rank_ordered(inputs: &[Tensor], dim: usize) -> Vec<Tensor> {
    let (p, dims) = (inputs.len(), inputs[0].dims());
    assert!(
        dims[dim].is_multiple_of(p),
        "dim {dim} extent {} not divisible into {p} parts",
        dims[dim]
    );
    let outer: usize = dims[..dim].iter().product();
    let strip = inputs[0].numel() / (outer * p).max(1);
    let shape = inputs[0].shape().with_dim(dim, dims[dim] / p);
    (0..p)
        .map(|r| {
            let mut out = pool::take_buffer(outer * strip);
            for o in 0..outer {
                let start = (o * p + r) * strip;
                reduce_rank_ordered_into(&mut out, inputs, start..start + strip, add_rank);
            }
            Tensor::from_vec(shape.clone(), out)
        })
        .collect()
}

/// Elementwise sum (or, with `max`, maximum — exact, but reduced in the
/// same ascending-rank order for uniformity) of the rank-ordered rendezvous
/// inputs: a fresh pooled buffer, or the input itself on a one-rank group.
fn reduce_rank_ordered(inputs: &[Tensor], max: bool) -> Tensor {
    if let [only] = inputs {
        return only.clone();
    }
    let n = inputs[0].numel();
    let mut out = pool::take_buffer(n);
    if max {
        reduce_rank_ordered_into(&mut out, inputs, 0..n, |acc, x| {
            for (a, &b) in acc.iter_mut().zip(x) {
                *a = a.max(b);
            }
        });
    } else {
        reduce_rank_ordered_into(&mut out, inputs, 0..n, add_rank);
    }
    Tensor::from_vec(inputs[0].shape().clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use colossalai_topology::systems::{system_i, system_ii, system_iii};

    #[test]
    fn all_reduce_sums_contributions() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = Tensor::full([2, 2], (ctx.rank() + 1) as f32);
            g.all_reduce(ctx, t)
        });
        for o in &out {
            assert!(o.allclose(&Tensor::full([2, 2], 10.0), 0.0));
        }
    }

    #[test]
    fn all_reduce_deterministic_order() {
        // reductions in rank order must be bitwise stable across runs
        let world = World::new(system_i());
        let a = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            g.all_reduce(ctx, Tensor::full([8], 0.1 + ctx.rank() as f32 * 1e-7))
        });
        let b = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            g.all_reduce(ctx, Tensor::full([8], 0.1 + ctx.rank() as f32 * 1e-7))
        });
        assert_eq!(a[0].data(), b[0].data());
    }

    #[test]
    fn all_gather_rank_order() {
        let world = World::new(system_i());
        let out = world.run_on(3, |ctx| {
            let g = ctx.world_group(3);
            g.all_gather_cat(ctx, Tensor::full([1, 2], ctx.rank() as f32), 0)
        });
        for o in &out {
            assert_eq!(o.dims(), &[3, 2]);
            assert_eq!(o.data(), &[0., 0., 1., 1., 2., 2.]);
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = Tensor::arange(8).reshaped([8]);
            let full = g.all_reduce(ctx, t.clone());
            let mine = g.reduce_scatter(ctx, t, 0);
            let rebuilt = g.all_gather_cat(ctx, mine, 0);
            (full, rebuilt)
        });
        for (full, rebuilt) in &out {
            assert_eq!(full.data(), rebuilt.data());
        }
    }

    /// Contributions of mixed magnitude (2^-20 .. 2^20, both signs), where
    /// the order of a sum shows in its last bits.
    fn mixed_magnitudes(p: usize, n: usize) -> Vec<Tensor> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul((p * 131 + n) as u64 + 1);
        let mut draw = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = (s >> 40) as f32 / (1u64 << 24) as f32 + 0.5;
            let exponent = ((s >> 33) & 0x3f) as i32 - 20;
            let sign = if s & (1 << 32) == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 2f32.powi(exponent.clamp(-20, 20))
        };
        (0..p)
            .map(|_| Tensor::from_vec([n], (0..n).map(|_| draw()).collect()))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_pass_reductions_equal_the_rank_by_rank_chains_bitwise() {
        let mut order_mattered = false;
        for p in [1, 2, 3, 8] {
            for n in [0, 1, 4095, 4096, 4097, 3 * 4096 + 5] {
                let inputs = mixed_magnitudes(p, n);
                // the chains the one-pass reduction replaced
                let mut sum = inputs[0].clone();
                let mut max = inputs[0].clone();
                for x in &inputs[1..] {
                    sum.axpy(1.0, x);
                    max = max.zip(x, f32::max);
                }
                assert_eq!(
                    bits(&reduce_rank_ordered(&inputs, false)),
                    bits(&sum),
                    "sum, p {p}, n {n}"
                );
                assert_eq!(
                    bits(&reduce_rank_ordered(&inputs, true)),
                    bits(&max),
                    "max, p {p}, n {n}"
                );
                let mut backwards = inputs[p - 1].clone();
                for x in inputs[..p - 1].iter().rev() {
                    backwards.axpy(1.0, x);
                }
                order_mattered |= bits(&backwards) != bits(&sum);
            }
        }
        assert!(order_mattered, "the inputs never told two orders apart");
    }

    #[test]
    fn reduce_scatter_is_the_chunk_of_the_sum_in_a_buffer_of_its_own() {
        let p = 4;
        for (shape, dim) in [
            (vec![4 * 4097], 0),
            (vec![8, 5], 0),
            (vec![3, 8, 5], 1),
            (vec![2, 3, 4], 2),
            (vec![0, 4], 1),
        ] {
            let n: usize = shape.iter().product();
            let shaped = |t: Tensor| t.reshaped(shape.clone());
            let inputs: Vec<Tensor> = mixed_magnitudes(p, n).into_iter().map(shaped).collect();
            let mut sum = inputs[0].clone();
            for x in &inputs[1..] {
                sum.axpy(1.0, x);
            }
            let want = sum.chunk(dim, p);
            let world = World::new(system_i());
            let got = world.run_on(p, |ctx| {
                let g = ctx.world_group(p);
                let mut mine = g.reduce_scatter(ctx, inputs[g.rank()].clone(), dim);
                let home = mine.data().as_ptr();
                // nobody else holds the shard: scaling it moves nothing
                mine.scale(0.25);
                assert_eq!(mine.data().as_ptr(), home, "scaled in place");
                mine
            });
            for (r, (got, want)) in got.iter().zip(&want).enumerate() {
                let mut want = want.clone();
                want.scale(0.25);
                assert_eq!(got.dims(), want.dims(), "{shape:?} along {dim}");
                assert_eq!(bits(got), bits(&want), "{shape:?} along {dim}, rank {r}");
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = if ctx.rank() == 2 {
                Tensor::full([3], 42.0)
            } else {
                Tensor::zeros([0])
            };
            g.broadcast(ctx, t, 2)
        });
        for o in &out {
            assert!(o.allclose(&Tensor::full([3], 42.0), 0.0));
        }
    }

    #[test]
    fn scatter_distributes_chunks() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = if ctx.rank() == 0 {
                Tensor::arange(8)
            } else {
                Tensor::zeros([0])
            };
            g.scatter(ctx, t, 0, 0)
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.data(), &[(2 * r) as f32, (2 * r + 1) as f32]);
        }
    }

    #[test]
    fn gather_only_root_receives() {
        let world = World::new(system_i());
        let out = world.run_on(3, |ctx| {
            let g = ctx.world_group(3);
            g.gather_cat(ctx, Tensor::full([1], ctx.rank() as f32), 0, 1)
        });
        assert_eq!(out[0].numel(), 0);
        assert_eq!(out[1].data(), &[0., 1., 2.]);
        assert_eq!(out[2].numel(), 0);
    }

    #[test]
    fn all_to_all_transposes_chunks() {
        let world = World::new(system_i());
        let out = world.run_on(2, |ctx| {
            let g = ctx.world_group(2);
            // rank r holds [r*10, r*10+1]
            let t = Tensor::from_vec(
                [2],
                vec![ctx.rank() as f32 * 10.0, ctx.rank() as f32 * 10.0 + 1.0],
            );
            g.all_to_all(ctx, t, 0)
        });
        assert_eq!(out[0].data(), &[0., 10.]);
        assert_eq!(out[1].data(), &[1., 11.]);
    }

    #[test]
    fn all_reduce_max_takes_elementwise_max() {
        let world = World::new(system_i());
        let out = world.run_on(3, |ctx| {
            let g = ctx.world_group(3);
            // rank r holds [r, -r]
            let t = Tensor::from_vec([2], vec![ctx.rank() as f32, -(ctx.rank() as f32)]);
            g.all_reduce_max(ctx, t)
        });
        for o in &out {
            assert_eq!(o.data(), &[2.0, 0.0]);
        }
    }

    #[test]
    fn subgroups_are_independent() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let members: Vec<usize> = if ctx.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let g = ctx.group(&members);
            g.all_reduce(ctx, Tensor::scalar(1.0)).item()
        });
        assert_eq!(out, vec![2.0; 4]);
    }

    #[test]
    fn collective_advances_clock_per_cost_model() {
        let bytes: usize = 1 << 20;
        let n = bytes / 4;
        for (cluster, name) in [(system_i(), "I"), (system_ii(), "II")] {
            // the executed collective must charge exactly what the selected
            // schedule's model predicts (8 ranks: halving-doubling)
            let group: Vec<usize> = (0..8).collect();
            let sel = cost::select_allreduce_algo(&cluster, &group, bytes as u64);
            let expected = cost::allreduce_time_with(sel, &cluster, &group, bytes as u64);
            let world = World::new(cluster);
            let clocks = world.run(|ctx| {
                let g = ctx.world_group(8);
                let _ = g.all_reduce(ctx, Tensor::zeros([n]));
                ctx.clock()
            });
            for c in &clocks {
                assert!(
                    (c - expected).abs() < 1e-12,
                    "system {name}: {c} vs {expected}"
                );
            }
        }
        // System II must be slower than System I for the same collective
        let t1 = colossalai_topology::cost::allreduce_time(
            &system_i(),
            &(0..8).collect::<Vec<_>>(),
            bytes as u64,
        );
        let t2 = colossalai_topology::cost::allreduce_time(
            &system_ii(),
            &(0..8).collect::<Vec<_>>(),
            bytes as u64,
        );
        assert!(t2 > t1);
    }

    #[test]
    fn stats_count_ring_allreduce_elements() {
        let world = World::new(system_i());
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let _ = g.all_reduce(ctx, Tensor::zeros([100]));
        });
        let stats = world.stats();
        // 2(p-1) * n = 2*3*100
        assert_eq!(stats.elements_of(OpKind::AllReduce), 600);
        assert_eq!(stats.ops_of(OpKind::AllReduce), 1);
    }

    /// Every op the descriptor can name, on a 4-rank group; roots are 1.
    const EVERY_OP: [Op; 11] = [
        Op::AllReduce { max: false },
        Op::AllReduce { max: true },
        Op::SparseAllReduce { k: 12 },
        Op::AllGather { dim: 0 },
        Op::ReduceScatter { dim: 0 },
        Op::Broadcast { root: 1 },
        Op::Scatter { dim: 0, root: 1 },
        Op::Gather { dim: 0, root: 1 },
        Op::AllToAll { dim: 0 },
        Op::ReduceSum { root: 1 },
        Op::Barrier,
    ];

    /// A 12-element input that differs per rank (ops that ignore non-root
    /// or all inputs get it anyway).
    fn table_input(rank: usize) -> Tensor {
        Tensor::from_vec(
            [12],
            (0..12).map(|i| (rank * 12 + i) as f32 * 0.25).collect(),
        )
    }

    #[test]
    fn every_op_runs_at_every_wire_on_either_stream() {
        // per-rank (output, main clock, comm clock) and the world's stats
        let run = |desc: Collective| {
            let world = World::new(system_i());
            let out = world.run_on(4, |ctx| {
                let g = ctx.world_group(4);
                let out = g.collective(ctx, desc, table_input(ctx.rank()));
                (out, ctx.clock(), ctx.comm_clock())
            });
            (out, world.stats())
        };
        for op in EVERY_OP {
            let (base, base_stats) = run(op.into());
            let mut cost_by_wire = Vec::new();
            for wire in [Wire::F32, Wire::F16, Wire::I8] {
                // sparse and barrier fix their own wire format
                let billed = match op {
                    Op::SparseAllReduce { .. } => Wire::IdxVal,
                    Op::Barrier => Wire::F32,
                    _ => wire,
                };
                let mut cost = 0.0;
                for stream in [Stream::Main, Stream::Comm] {
                    let desc = Collective { op, wire, stream };
                    let (out, stats) = run(desc);
                    assert_eq!(stats.ops, 1, "{desc:?}");
                    assert_eq!(stats.elements, base_stats.elements, "{desc:?}");
                    assert_eq!(stats.bytes, stats.elements * billed.bytes(), "{desc:?}");
                    for ((t, main, comm), (want, ..)) in out.iter().zip(&base) {
                        // the wire only changes the bill, never the payload
                        assert_eq!(t.dims(), want.dims(), "{desc:?}");
                        assert_eq!(t.data(), want.data(), "{desc:?}");
                        match stream {
                            Stream::Main => {
                                assert!(*main > 0.0, "{desc:?} must advance the main clock");
                                assert_eq!(*comm, 0.0, "{desc:?}");
                                cost = *main;
                            }
                            // the same latency, on the comm clock only
                            Stream::Comm => assert_eq!((*main, *comm), (0.0, cost), "{desc:?}"),
                        }
                    }
                }
                cost_by_wire.push(cost);
            }
            // the virtual clock sees the cheaper wire too, not just stats
            if base_stats.bytes > 0 && !matches!(op, Op::SparseAllReduce { .. }) {
                assert!(
                    cost_by_wire[0] > cost_by_wire[1] && cost_by_wire[1] > cost_by_wire[2],
                    "{op:?}: {cost_by_wire:?}"
                );
            }
        }
    }

    #[test]
    fn broadcast_outputs_share_storage_across_ranks() {
        // the fan-out of one buffer to p ranks must be p handles to one
        // allocation, not p deep copies
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = if ctx.rank() == 0 {
                Tensor::full([64], 3.0)
            } else {
                Tensor::zeros([0])
            };
            g.broadcast(ctx, t, 0)
        });
        for o in &out[1..] {
            assert!(o.shares_storage(&out[0]));
        }
    }

    #[test]
    fn mutating_one_collective_output_never_alters_siblings() {
        let world = World::new(system_i());
        let mut out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            g.all_reduce(ctx, Tensor::full([8], (ctx.rank() + 1) as f32))
        });
        assert!(out[1].shares_storage(&out[0]));
        out[0].scale(0.0); // rank 0 scrubs its copy, e.g. an optimizer step
        assert!(!out[0].shares_storage(&out[1]));
        for o in &out[1..] {
            assert!(
                o.allclose(&Tensor::full([8], 10.0), 0.0),
                "sibling rank was corrupted"
            );
        }
        // same property through the gather path
        let mut gathered = world.run_on(2, |ctx| {
            let g = ctx.world_group(2);
            g.all_gather_cat(ctx, Tensor::full([2], ctx.rank() as f32), 0)
        });
        assert!(gathered[0].shares_storage(&gathered[1]));
        gathered[1].data_mut()[0] = 99.0;
        assert_eq!(gathered[0].data(), &[0., 0., 1., 1.]);
    }

    #[test]
    fn repeated_collectives_reuse_slot() {
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut acc = 0.0;
            for i in 0..50 {
                acc += g.all_reduce(ctx, Tensor::scalar(i as f32)).item();
            }
            acc
        });
        let expect: f32 = (0..50).map(|i| (i * 4) as f32).sum();
        assert_eq!(out, vec![expect; 4]);
    }

    #[test]
    fn many_concurrent_groups_stay_deterministic() {
        // 8 devices using overlapping row/col/pair groups concurrently for
        // many rounds: results and virtual clocks must replay identically
        let run = || {
            let world = World::new(system_i());

            world.run(|ctx| {
                let r = ctx.rank();
                let row = ctx.group(&if r < 4 {
                    vec![0, 1, 2, 3]
                } else {
                    vec![4, 5, 6, 7]
                });
                let col: Vec<usize> = (0..2).map(|q| q * 4 + (r % 4)).collect();
                let col = ctx.group(&col);
                let mut acc = Tensor::full([16], r as f32 * 0.01);
                for _ in 0..20 {
                    acc = row.all_reduce(ctx, acc);
                    acc = col.all_reduce(ctx, acc);
                    acc.scale(0.125);
                }
                (acc, ctx.clock())
            })
        };
        let a = run();
        let b = run();
        for ((ta, ca), (tb, cb)) in a.iter().zip(&b) {
            assert_eq!(ta.data(), tb.data(), "tensor results must replay");
            assert_eq!(ca, cb, "virtual clocks must replay");
        }
    }

    #[test]
    fn single_rank_group_is_identity() {
        let world = World::new(system_i());
        let out = world.run_on(1, |ctx| {
            let g = ctx.world_group(1);
            let t = g.all_reduce(ctx, Tensor::full([3], 7.0));
            (t, ctx.clock())
        });
        assert!(out[0].0.allclose(&Tensor::full([3], 7.0), 0.0));
        assert_eq!(out[0].1, 0.0);
    }

    #[test]
    fn single_rank_group_still_records_stats() {
        // p == 1 used to skip record_stats entirely; the op must still show
        // up in the ledger (with zero element hops — nothing crosses a wire)
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let g = ctx.world_group(1);
            let _ = g.all_reduce(ctx, Tensor::full([3], 7.0));
            g.barrier(ctx);
        });
        let stats = world.stats();
        assert_eq!(stats.ops_of(OpKind::AllReduce), 1);
        assert_eq!(stats.elements_of(OpKind::AllReduce), 0);
        assert_eq!(stats.ops_of(OpKind::Barrier), 1);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn uneven_all_to_all_counts_exact_elements() {
        // n = 10, p = 4: chunks are 3/3/2/2. The old accounting truncated to
        // n/p and undercounted; each rank wires out n minus its kept chunk,
        // and the kept chunks sum to one tensor: (p-1)*n = 30 element hops.
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let base = ctx.rank() as f32 * 100.0;
            let t = Tensor::from_vec([10], (0..10).map(|i| base + i as f32).collect());
            g.all_to_all(ctx, t, 0)
        });
        // rank 0 gets everyone's first (3-element) chunk
        assert_eq!(
            out[0].data(),
            &[0., 1., 2., 100., 101., 102., 200., 201., 202., 300., 301., 302.]
        );
        // rank 2 gets everyone's third (2-element) chunk
        assert_eq!(out[2].data(), &[6., 7., 106., 107., 206., 207., 306., 307.]);
        let stats = world.stats();
        assert_eq!(stats.elements_of(OpKind::AllToAll), 30);
        assert_eq!(stats.bytes, 30 * 4);
    }

    #[test]
    fn uneven_scatter_counts_exact_elements() {
        // n = 10, p = 4 from root 0: root keeps its 3-element chunk and
        // wires out the remaining 7 elements
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = if ctx.rank() == 0 {
                Tensor::arange(10)
            } else {
                Tensor::zeros([0])
            };
            g.scatter(ctx, t, 0, 0)
        });
        assert_eq!(out[0].data(), &[0., 1., 2.]);
        assert_eq!(out[1].data(), &[3., 4., 5.]);
        assert_eq!(out[2].data(), &[6., 7.]);
        assert_eq!(out[3].data(), &[8., 9.]);
        let stats = world.stats();
        assert_eq!(stats.elements_of(OpKind::Scatter), 7);
        assert_eq!(stats.bytes, 7 * 4);
    }

    #[test]
    fn hierarchical_allreduce_charges_modeled_time_and_hops() {
        // System III: 16 nodes x 4 GPUs. A 16-rank world group spans 4 nodes,
        // so the selector must pick the hierarchical schedule and charge its
        // (cheaper) time and element hops.
        let n: usize = 1 << 18; // 1 MB: bandwidth-dominated
        let group: Vec<usize> = (0..16).collect();
        let cluster = system_iii();
        let bytes = (n * 4) as u64;
        assert_eq!(
            cost::select_allreduce_algo(&cluster, &group, bytes),
            AllReduceAlgo::Hierarchical
        );
        let expected = cost::hierarchical_allreduce_time(&cluster, &group, bytes);
        let flat = cost::allreduce_time(&cluster, &group, bytes);
        let world = World::new(cluster.clone());
        let clocks = world.run_on(16, |ctx| {
            let g = ctx.world_group(16);
            let _ = g.all_reduce(ctx, Tensor::zeros([n]));
            ctx.clock()
        });
        for c in &clocks {
            assert!((c - expected).abs() < 1e-12, "{c} vs {expected}");
            assert!(*c < flat, "hierarchical must beat the flat ring");
        }
        let hops = cost::hierarchical_allreduce_elements(&cluster, &group, n as u64).unwrap();
        assert_eq!(world.stats().elements_of(OpKind::AllReduce), hops);
        assert!(hops < 2 * 15 * n as u64, "fewer hops than the flat ring");
    }

    #[test]
    fn forced_algo_pins_the_schedule() {
        let n: usize = 1 << 18;
        let group: Vec<usize> = (0..16).collect();
        let cluster = system_iii();
        let flat_t = cost::allreduce_time(&cluster, &group, (n * 4) as u64);
        let run = |algo| {
            let world = World::new(system_iii());
            world.force_allreduce_algo(algo);
            world.run_on(16, |ctx| {
                let g = ctx.world_group(16);
                let t = g.all_reduce(ctx, Tensor::full([n], 0.1 + ctx.rank() as f32 * 1e-6));
                (t, ctx.clock())
            })
        };
        let flat = run(Some(AllReduceAlgo::FlatRing));
        let hier = run(Some(AllReduceAlgo::Hierarchical));
        let tree = run(Some(AllReduceAlgo::Tree));
        let rhd = run(Some(AllReduceAlgo::RecursiveHalvingDoubling));
        let auto = run(None);
        assert!((flat[0].1 - flat_t).abs() < 1e-12);
        assert!(hier[0].1 < flat[0].1);
        assert_eq!(auto[0].1, hier[0].1, "auto must select hierarchical here");
        let tree_t = cost::tree_allreduce_time(&cluster, &group, (n * 4) as u64);
        let rhd_t = cost::rhd_allreduce_time(&cluster, &group, (n * 4) as u64);
        assert!((tree[0].1 - tree_t).abs() < 1e-12);
        assert!((rhd[0].1 - rhd_t).abs() < 1e-12);
        // bitwise-identical data under every schedule (canonical rank order)
        assert_eq!(flat[0].0.data(), hier[0].0.data());
        assert_eq!(flat[0].0.data(), auto[0].0.data());
        assert_eq!(flat[0].0.data(), tree[0].0.data());
        assert_eq!(flat[0].0.data(), rhd[0].0.data());
    }

    #[test]
    fn tree_and_rhd_charge_modeled_time_on_ragged_payloads() {
        // n = 101 divides by neither 8 nor the halving-doubling halves;
        // the schedules must still charge the exact modeled time, count the
        // exact 2 (p-1) n element hops, and agree bitwise with the ring
        let n: usize = 101;
        let group: Vec<usize> = (0..8).collect();
        let cluster = system_ii();
        let run = |algo| {
            let world = World::new(system_ii());
            world.force_allreduce_algo(Some(algo));
            let out = world.run_on(8, |ctx| {
                let g = ctx.world_group(8);
                let t = g.all_reduce(ctx, Tensor::full([n], 0.7 + ctx.rank() as f32 * 1e-6));
                (t, ctx.clock())
            });
            (out, world.stats())
        };
        let (flat, flat_stats) = run(AllReduceAlgo::FlatRing);
        let (tree, tree_stats) = run(AllReduceAlgo::Tree);
        let (rhd, rhd_stats) = run(AllReduceAlgo::RecursiveHalvingDoubling);
        let bytes = (n * 4) as u64;
        let tree_t = cost::tree_allreduce_time(&cluster, &group, bytes);
        let rhd_t = cost::rhd_allreduce_time(&cluster, &group, bytes);
        assert!(
            (tree[0].1 - tree_t).abs() < 1e-12,
            "{} vs {tree_t}",
            tree[0].1
        );
        assert!((rhd[0].1 - rhd_t).abs() < 1e-12, "{} vs {rhd_t}", rhd[0].1);
        assert_eq!(flat[0].0.data(), tree[0].0.data());
        assert_eq!(flat[0].0.data(), rhd[0].0.data());
        // all three lossless schedules move every contribution to every
        // rank exactly once each way: 2 * 7 * 101 hops, at the F32 wire
        let hops = 2 * 7 * n as u64;
        for stats in [&flat_stats, &tree_stats, &rhd_stats] {
            assert_eq!(stats.elements_of(OpKind::AllReduce), hops);
            assert_eq!(stats.bytes, hops * Wire::F32.bytes());
        }
    }

    #[test]
    fn tree_and_rhd_traces_have_two_group_phases() {
        let cases = [
            (AllReduceAlgo::Tree, vec![OpKind::Reduce, OpKind::Broadcast]),
            (
                AllReduceAlgo::RecursiveHalvingDoubling,
                vec![OpKind::ReduceScatter, OpKind::AllGather],
            ),
        ];
        for (algo, want) in cases {
            let world = World::new(system_i());
            world.set_tracing(true);
            world.force_allreduce_algo(Some(algo));
            world.run_on(8, |ctx| {
                let g = ctx.world_group(8);
                let _ = g.all_reduce(ctx, Tensor::zeros([1 << 16]));
            });
            let spans = world.trace();
            let group_spans: Vec<_> = spans
                .iter()
                .filter(|s| matches!(s.track, Track::Group(_)))
                .collect();
            assert_eq!(group_spans.len(), 2, "{algo:?}");
            let kinds: Vec<OpKind> = group_spans
                .iter()
                .map(|s| match &s.kind {
                    SpanKind::Collective { kind, .. } => *kind,
                    other => panic!("unexpected span {other:?}"),
                })
                .collect();
            assert_eq!(kinds, want, "{algo:?}");
            // phases tile the op interval contiguously
            assert_eq!(group_spans[0].end, group_spans[1].start);
        }
    }

    /// A sum all-reduce launched on the comm stream.
    const ALL_REDUCE_COMM: Collective = Collective {
        op: Op::AllReduce { max: false },
        wire: Wire::F32,
        stream: Stream::Comm,
    };

    #[test]
    fn comm_stream_allreduce_overlaps_compute() {
        let world = World::new(system_ii());
        let n: usize = 1 << 20;
        let comm_t = cost::allreduce_time(&system_ii(), &(0..4).collect::<Vec<_>>(), 4 * n as u64);
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let red = g.collective(ctx, ALL_REDUCE_COMM, Tensor::zeros([n]));
            let launched = ctx.clock();
            // compute that outlasts the collective
            ctx.advance(10.0 * comm_t);
            ctx.comm_sync();
            (red, launched, ctx.clock(), ctx.comm_clock())
        });
        for (red, launched, clock, comm_clock) in &out {
            assert_eq!(red.numel(), n);
            assert_eq!(*launched, 0.0, "launch must not advance the main clock");
            // the collective fully hides behind compute
            assert!((clock - 10.0 * comm_t).abs() < 1e-12, "{clock}");
            assert_eq!(clock, comm_clock, "comm_sync joins the streams");
        }
        // blocking baseline: compute + collective serialize
        let world2 = World::new(system_ii());
        let blocking = world2.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let _ = g.all_reduce(ctx, Tensor::zeros([n]));
            ctx.advance(10.0 * comm_t);
            ctx.clock()
        });
        assert!(blocking[0] > out[0].2, "overlap must be strictly faster");
    }

    #[test]
    fn comm_stream_ops_serialize_on_the_comm_stream() {
        // two comm-stream ops back-to-back queue on the comm stream: the second
        // starts when the first ends, not at the launch clock
        let world = World::new(system_ii());
        let n: usize = 1 << 20;
        let group: Vec<usize> = (0..4).collect();
        let sel = cost::select_allreduce_algo(&system_ii(), &group, 4 * n as u64);
        let one = cost::allreduce_time_with(sel, &system_ii(), &group, 4 * n as u64);
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let _ = g.collective(ctx, ALL_REDUCE_COMM, Tensor::zeros([n]));
            let _ = g.collective(ctx, ALL_REDUCE_COMM, Tensor::zeros([n]));
            ctx.comm_sync();
            ctx.clock()
        });
        for c in &out {
            assert!((c - 2.0 * one).abs() < 1e-12, "{c} vs {}", 2.0 * one);
        }
    }

    #[test]
    fn hierarchical_trace_has_three_group_phases() {
        let world = World::new(system_iii());
        world.set_tracing(true);
        world.force_allreduce_algo(Some(AllReduceAlgo::Hierarchical));
        world.run_on(8, |ctx| {
            let g = ctx.world_group(8);
            let _ = g.all_reduce(ctx, Tensor::zeros([1 << 16]));
        });
        let spans = world.trace();
        let group_spans: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.track, Track::Group(_)))
            .collect();
        assert_eq!(group_spans.len(), 3, "RS + leader AR + AG");
        let kinds: Vec<OpKind> = group_spans
            .iter()
            .map(|s| match &s.kind {
                SpanKind::Collective { kind, .. } => *kind,
                other => panic!("unexpected span {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![OpKind::ReduceScatter, OpKind::AllReduce, OpKind::AllGather]
        );
        // phases tile the op interval contiguously
        assert_eq!(group_spans[0].end, group_spans[1].start);
        assert_eq!(group_spans[1].end, group_spans[2].start);
        // device tracks still carry a single AllReduce span each
        let dev_spans = spans
            .iter()
            .filter(|s| matches!(s.track, Track::Device(_)))
            .count();
        assert_eq!(dev_spans, 8);
    }

    /// One collective on the `n`-rank world group as a heap task, driven
    /// through [`Group::start`] on the first poll.
    struct OneOp {
        n: usize,
        desc: Collective,
        input: Option<Tensor>,
        op: Option<CollectiveOp>,
    }

    impl OneOp {
        fn new(n: usize, desc: Collective, input: Tensor) -> OneOp {
            OneOp {
                n,
                desc,
                input: Some(input),
                op: None,
            }
        }
    }

    impl crate::task::RankTask for OneOp {
        type Output = Tensor;
        fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Tensor> {
            let g = ctx.world_group(self.n);
            let (desc, input) = (self.desc, &mut self.input);
            let op = self
                .op
                .get_or_insert_with(|| g.start(desc, input.take().expect("started once")));
            g.poll_collective(ctx, op)
        }
    }

    /// Runs `op(rank)` on `n` ranks as heap tasks or as closures and
    /// returns the panic message of the run that must not complete.
    fn panic_of(n: usize, tasks: bool, op: impl Fn(usize) -> OneOp + Sync) -> String {
        let world = World::new(system_i());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tasks {
                world.run_tasks(n, &op);
            } else {
                world.run_on(n, |ctx| ctx.block_on(op(ctx.rank())));
            }
        }))
        .expect_err("the run must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn mismatched_collectives_panic_naming_both_ranks() {
        let all_reduce = |wire| Collective::from(Op::AllReduce { max: false }).wire(wire);
        let broadcast = |root| Collective::from(Op::Broadcast { root });
        let gather = Collective::from(Op::AllGather { dim: 0 });
        // (rank 0's op and input length, rank 1's, the two descriptors):
        // op, wire, root and shape mismatches
        let cases = [
            (
                (all_reduce(Wire::F32), 4),
                (gather, 4),
                "rank 0 all_reduce(f32)[4] vs rank 1 all_gather(dim 0, f32)[4]",
            ),
            (
                (all_reduce(Wire::F32), 4),
                (all_reduce(Wire::F16), 4),
                "rank 0 all_reduce(f32)[4] vs rank 1 all_reduce(f16)[4]",
            ),
            (
                (broadcast(0), 4),
                (broadcast(1), 0),
                "rank 0 broadcast(root 0, f32)[4] vs rank 1 broadcast(root 1, f32)[0]",
            ),
            (
                (all_reduce(Wire::F32), 4),
                (all_reduce(Wire::F32), 8),
                "rank 0 all_reduce(f32)[4] vs rank 1 all_reduce(f32)[8]",
            ),
        ];
        for (a, b, sides) in cases {
            for tasks in [false, true] {
                let msg = panic_of(2, tasks, |rank| {
                    let (desc, n) = if rank == 0 { a } else { b };
                    OneOp::new(2, desc, Tensor::zeros([n]))
                });
                let want = format!("collective mismatch on group [0,1]: {sides}");
                assert!(msg.contains(&want), "tasks={tasks}: {msg}");
            }
        }
    }

    #[test]
    fn start_rejects_bad_roots_and_dims_naming_the_op() {
        let cases = [
            (
                Collective::from(Op::Broadcast { root: 2 }),
                "broadcast(root 2, f32): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::Scatter { dim: 0, root: 7 }).wire(Wire::F16),
                "scatter(dim 0, root 7, f16): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::Gather { dim: 0, root: 2 }),
                "gather(dim 0, root 2, f32): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::ReduceSum { root: 3 }).on(Stream::Comm),
                "reduce_sum(root 3, f32): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::AllGather { dim: 1 }),
                "all_gather(dim 1, f32): dim out of range for input [4]",
            ),
        ];
        for (desc, want) in cases {
            for tasks in [false, true] {
                let msg = panic_of(2, tasks, |_| OneOp::new(2, desc, Tensor::zeros([4])));
                assert!(msg.contains(want), "tasks={tasks}: {msg}");
            }
        }
    }

    #[test]
    fn heap_tasks_drive_any_op_bitwise_like_closures() {
        // ops with no `start_*` wrapper, at a narrow wire and on the comm
        // stream: reachable from a heap task only through `start`
        let ops = [
            Collective::from(Op::ReduceScatter { dim: 0 }).wire(Wire::F16),
            Collective::from(Op::AllToAll { dim: 0 }),
            Collective::from(Op::Broadcast { root: 1 }).on(Stream::Comm),
        ];
        for pool in [1, 2] {
            for desc in ops {
                let run = |tasks: bool| {
                    let world = World::new(system_i());
                    world.set_backend(Some(crate::WorldBackend::Stackless { pool }));
                    world.set_tracing(true);
                    let out = if tasks {
                        world.run_tasks(4, |rank| OneOp::new(4, desc, table_input(rank)))
                    } else {
                        world.run_on(4, |ctx| {
                            let g = ctx.world_group(4);
                            g.collective(ctx, desc, table_input(ctx.rank()))
                        })
                    };
                    let data: Vec<Vec<f32>> = out.iter().map(|t| t.data().to_vec()).collect();
                    (data, world.stats(), format!("{:?}", world.trace()))
                };
                assert_eq!(run(true), run(false), "{desc:?} at pool {pool}");
            }
        }
    }

    #[test]
    fn barrier_records_op_without_bytes() {
        let world = World::new(system_i());
        let clocks = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            g.barrier(ctx);
            ctx.clock()
        });
        let stats = world.stats();
        assert_eq!(stats.ops_of(OpKind::Barrier), 1);
        assert_eq!(stats.bytes, 0);
        // latency-bound, but not free
        for c in &clocks {
            assert!(*c > 0.0);
        }
    }
}
