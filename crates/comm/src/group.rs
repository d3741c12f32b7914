//! Process groups and their collective operations.
//!
//! A collective is one value — [`Collective`]` { op, stream }`: what to
//! compute ([`Op`]) and which virtual-time stream pays ([`Stream`]). Every
//! payload is f32 and bills 4 bytes per element. [`Group`] has two entries
//! for it, [`Group::collective`] (blocking) and [`Group::start`] +
//! [`Group::poll_collective`] (resumable, for heap tasks); the named
//! methods (`all_reduce`, `broadcast`, ...) are one-line main-stream
//! wrappers over the same path.
//!
//! Data movement is real (tensors cross threads through a rendezvous slot);
//! time is virtual: each op charges its `topology::cost` price, launch
//! included, on the stream it names. Reductions are applied in rank order,
//! so results are bit-deterministic across runs. A rank's input is a
//! tensor or a list of them ([`Pieces`]: a gradient bucket), which the
//! combine reads in place and drops before any rank resumes. The last
//! arrival combines, except in a reduce-scatter: there it publishes the
//! inputs, and each member sums its own chunk.

use crate::stats::{OpKind, ELEMENT_BYTES};
use crate::task::{Poll, WakeKey};
use crate::trace::{group_track_name, SpanKind, Track};
use crate::world::DeviceCtx;
use colossalai_tensor::{axpy_slices, pool, Shape, Tensor};
use colossalai_topology::cost::{self, AllReduceSchedule};
use colossalai_topology::{AllReduceAlgo, Cluster, DeviceId};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collect,
    /// A reduce-scatter's inputs are published; members are summing their
    /// own chunks.
    Combine,
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

/// What the last arrival publishes: every rank's output, or — a
/// reduce-scatter — the inputs, from which each member sums its own chunk.
enum Published {
    Outputs(Vec<Tensor>),
    Inputs(Arc<[Pieces]>),
}

/// The op's modeled cost and accounting, which the last arrival's
/// `finish_spec` hands back to the rendezvous with what it publishes.
struct Done {
    cost: f64,
    kind: OpKind,
    /// Element hops the modeled schedule moves (drives stats + bytes).
    elements: u64,
    /// The all-reduce schedule that ran, whose phases tile the op on the
    /// group track; `None` for the single-phase ops.
    schedule: Option<AllReduceSchedule>,
}

impl Done {
    fn new(cost: f64, kind: OpKind, elements: u64) -> Done {
        Done {
            cost,
            kind,
            elements,
            schedule: None,
        }
    }
}

/// What each phase of an all-reduce schedule is, in execution order (the
/// labels of its group-track spans).
fn phase_kinds(algo: AllReduceAlgo) -> &'static [OpKind] {
    match algo {
        AllReduceAlgo::FlatRing => &[OpKind::AllReduce],
        AllReduceAlgo::Hierarchical => {
            &[OpKind::ReduceScatter, OpKind::AllReduce, OpKind::AllGather]
        }
        AllReduceAlgo::Tree => &[OpKind::Reduce, OpKind::Broadcast],
        AllReduceAlgo::RecursiveHalvingDoubling => &[OpKind::ReduceScatter, OpKind::AllGather],
    }
}

/// What the last arrival computes from the deposited inputs. Roots are
/// group ranks; `dim` is the axis split or concatenated along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Sum (or, with `max`, elementwise-max) all-reduce. The schedule (flat
    /// ring, hierarchical, tree, halving-doubling) is chosen per call from
    /// the alpha-beta cost model on the actual link graph; the reduction
    /// itself always applies in canonical group-rank order, so results are
    /// bitwise identical under every schedule.
    AllReduce { max: bool },
    /// Every rank contributes a shard and receives the concatenation along
    /// `dim`, in rank order.
    AllGather { dim: usize },
    /// Sums all contributions; each rank keeps its rank-th chunk along
    /// `dim`.
    ReduceScatter { dim: usize },
    /// Every rank receives `root`'s tensor. Non-root inputs are ignored
    /// (pass an empty tensor, e.g. `Tensor::zeros([0])`).
    Broadcast { root: usize },
    /// `root` receives the elementwise sum of all contributions, other
    /// ranks an empty tensor. (Cost model: the mirror image of a pipelined
    /// broadcast.)
    ReduceSum { root: usize },
}

impl Op {
    /// Whether every member must contribute the same shape: false only
    /// where the root's input alone counts. (An all-gather bills every rank
    /// at one rank's size, so its shards must agree too.)
    fn same_shape(self) -> bool {
        !matches!(self, Op::Broadcast { .. })
    }

    /// Seconds the op takes over `members` of `cluster` when each rank's
    /// input (a broadcast's: the root's) is `n` elements, launch included:
    /// the one op → `topology::cost` mapping, which the combine charges and
    /// a planner prices with. An all-reduce costs the schedule
    /// `select_allreduce_schedule` picks, the one the combine runs unless
    /// the world pins an algorithm.
    pub fn price(self, cluster: &Cluster, members: &[DeviceId], n: u64) -> f64 {
        let bytes = n * ELEMENT_BYTES;
        match self {
            Op::AllReduce { .. } => cost::select_allreduce_schedule(cluster, members, bytes).time(),
            Op::AllGather { .. } => cost::allgather_time(cluster, members, bytes),
            Op::ReduceScatter { .. } => cost::reduce_scatter_time(cluster, members, bytes),
            Op::Broadcast { .. } | Op::ReduceSum { .. } => {
                cost::broadcast_time(cluster, members, bytes)
            }
        }
    }
}

/// One collective, fully described: what to compute and which
/// virtual-time stream pays for it. Overlap is a *parameter* of a
/// collective, not a separate collective — every op runs on either stream
/// through [`Group::collective`] (blocking) or [`Group::start`]
/// (resumable).
///
/// A plain `Copy` value instead of a `FnOnce` closure so a [`CollectiveOp`]
/// is a small `'static` struct a heap [`crate::task::RankTask`] can hold
/// across polls, and so the rendezvous can check that every member asked
/// for the same `op`; the combine itself (`finish_spec`) runs in the last
/// arrival's poll, where a `DeviceCtx` (cluster, forced algo) is at hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Collective {
    pub op: Op,
    pub stream: Stream,
}

impl Collective {
    /// The same collective charged to `stream`.
    pub fn on(self, stream: Stream) -> Collective {
        Collective { stream, ..self }
    }
}

/// The default: `op` on the main stream.
impl From<Op> for Collective {
    fn from(op: Op) -> Collective {
        Collective {
            op,
            stream: Stream::Main,
        }
    }
}

/// `op(parameters)` as the mismatch diagnostic prints it.
impl std::fmt::Display for Collective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            Op::AllReduce { max: false } => write!(f, "all_reduce"),
            Op::AllReduce { max: true } => write!(f, "all_reduce_max"),
            Op::AllGather { dim } => write!(f, "all_gather(dim {dim})"),
            Op::ReduceScatter { dim } => write!(f, "reduce_scatter(dim {dim})"),
            Op::Broadcast { root } => write!(f, "broadcast(root {root})"),
            Op::ReduceSum { root } => write!(f, "reduce_sum(root {root})"),
        }
    }
}

/// One rank's input to a collective: tensors laid end to end in order and
/// zero-padded to a flat length, which the combine reads in place. A
/// gradient bucket crosses this way, as its parameters' gradient handles,
/// so no rank copies its gradients into a flat buffer first. A single
/// tensor is a one-piece list (`From<Tensor>`) under its own shape, and is
/// no wider than its handle.
#[derive(Clone)]
pub enum Pieces {
    /// A lone tensor, under its own shape.
    Lone(Tensor),
    /// Parts padded to a flat length (boxed, so the lone form stays small).
    Padded(Box<Padded>),
}

/// The parts of a [`Pieces::Padded`] input.
#[derive(Clone)]
pub struct Padded {
    /// The parts in order, each with the flat offset one past its end.
    parts: Vec<(Tensor, usize)>,
    /// The flat length the parts are zero-padded to.
    len: usize,
}

/// Zeros the padding of a [`Pieces`] reads from, a block at a time.
static ZERO_BLOCK: [f32; REDUCE_BLOCK] = [0.0; REDUCE_BLOCK];

impl Pieces {
    /// `parts` end to end, then zeros up to `len` elements, as one flat
    /// `[len]` input.
    pub fn padded(parts: Vec<Tensor>, len: usize) -> Pieces {
        let mut end = 0;
        let parts: Vec<(Tensor, usize)> = parts
            .into_iter()
            .map(|t| {
                end += t.numel();
                (t, end)
            })
            .collect();
        assert!(end <= len, "{end} elements do not fit in {len}");
        Pieces::Padded(Box::new(Padded { parts, len }))
    }

    /// Extents of the input the pieces stand for.
    fn dims(&self) -> &[usize] {
        match self {
            Pieces::Lone(t) => t.dims(),
            Pieces::Padded(padded) => std::slice::from_ref(&padded.len),
        }
    }

    /// Elements of the input, padding included.
    pub fn numel(&self) -> usize {
        match self {
            Pieces::Lone(t) => t.numel(),
            Pieces::Padded(padded) => padded.len,
        }
    }

    /// Calls `f(at, run)` for each run of the flat elements `range`, in
    /// order: slices of the parts, then zeros for the padding; `at` is the
    /// run's offset from `range.start`.
    fn for_each_run(&self, range: Range<usize>, mut f: impl FnMut(usize, &[f32])) {
        let padded = match self {
            Pieces::Lone(t) => return f(0, &t.data()[range]),
            Pieces::Padded(padded) => padded,
        };
        let first = padded.parts.partition_point(|&(_, end)| end <= range.start);
        let mut a = range.start;
        for (t, end) in &padded.parts[first..] {
            if a >= range.end {
                return;
            }
            let start = end - t.numel();
            let b = range.end.min(*end);
            f(a - range.start, &t.data()[a - start..b - start]);
            a = b;
        }
        while a < range.end {
            let b = range.end.min(a + REDUCE_BLOCK);
            f(a - range.start, &ZERO_BLOCK[..b - a]);
            a = b;
        }
    }

    /// A fresh pooled copy of the flat elements `range`, padding as zeros.
    pub fn copy_range(&self, range: Range<usize>) -> Tensor {
        let n = range.len();
        let mut out = pool::take_buffer(n);
        self.for_each_run(range, |_, run| out.extend_from_slice(run));
        Tensor::from_vec([n], out)
    }

    /// The input as one tensor of its shape: the part itself when it is the
    /// only one and fills the shape (an O(1) handle), else a copy.
    pub fn into_tensor(self) -> Tensor {
        match self {
            Pieces::Lone(t) => t,
            Pieces::Padded(padded) => {
                let len = padded.len;
                match &padded.parts[..] {
                    [(only, end)] if *end == len => only.clone().reshaped([len]),
                    _ => Pieces::Padded(padded).copy_range(0..len),
                }
            }
        }
    }
}

impl From<Tensor> for Pieces {
    fn from(t: Tensor) -> Pieces {
        Pieces::Lone(t)
    }
}

/// Runs `desc.op`'s combine over the rank-ordered inputs: per-rank outputs,
/// modeled cost and traffic accounting. Pure in the inputs plus the
/// cluster model (and the world's forced-algo pin), so the outputs are
/// bitwise identical no matter which rank arrives last. The inputs drop
/// here, so no rank's handles outlive the combine — except a
/// reduce-scatter's, which are published for every member to sum its own
/// chunk from (`reduce_scatter_chunk`); the last member to finish drops
/// them.
fn finish_spec(
    desc: Collective,
    ctx: &DeviceCtx,
    members: &[DeviceId],
    mut inputs: Vec<Pieces>,
) -> (Published, Done) {
    let p = members.len();
    let cluster = ctx.cluster();
    match desc.op {
        Op::AllReduce { max } => {
            let acc = reduce_rank_ordered(inputs, max);
            let n = acc.numel() as u64;
            // max is associative+commutative, so the hierarchical schedule
            // applies to it exactly as to sum
            let bytes = n * ELEMENT_BYTES;
            // `Op::price`'s schedule, unless the world pins an algorithm
            let schedule = match ctx.forced_allreduce_algo() {
                Some(algo) => cost::allreduce_schedule(algo, cluster, members, bytes),
                None => cost::select_allreduce_schedule(cluster, members, bytes),
            };
            let done = Done {
                cost: schedule.time(),
                kind: OpKind::AllReduce,
                elements: schedule.elements(n),
                schedule: Some(schedule),
            };
            (Published::Outputs(vec![acc; p]), done)
        }
        Op::AllGather { dim } => {
            let contrib = inputs[0].numel() as u64;
            let full = gather_rank_ordered(&inputs, dim);
            let cost = desc.op.price(cluster, members, contrib);
            let elements = (p as u64 - 1) * p as u64 * contrib;
            let done = Done::new(cost, OpKind::AllGather, elements);
            (Published::Outputs(vec![full; p]), done)
        }
        Op::ReduceScatter { dim } => {
            let extent = inputs[0].dims()[dim];
            assert!(
                extent.is_multiple_of(p),
                "dim {dim} extent {extent} not divisible into {p} parts"
            );
            let n = inputs[0].numel() as u64;
            let cost = desc.op.price(cluster, members, n);
            let elements = (p as u64 - 1) * n;
            let done = Done::new(cost, OpKind::ReduceScatter, elements);
            (Published::Inputs(inputs.into()), done)
        }
        Op::Broadcast { root } => {
            let src = inputs.swap_remove(root).into_tensor();
            let n = src.numel() as u64;
            let cost = desc.op.price(cluster, members, n);
            let elements = (p as u64 - 1) * n;
            let done = Done::new(cost, OpKind::Broadcast, elements);
            (Published::Outputs(vec![src; p]), done)
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
            let cost = desc.op.price(cluster, members, n);
            let elements = (p as u64 - 1) * n;
            let done = Done::new(cost, OpKind::Reduce, elements);
            (Published::Outputs(outs), done)
        }
    }
}

/// Where a [`CollectiveOp`] is in the rendezvous protocol.
enum CollStage {
    /// Not yet deposited (possibly waiting out the previous op's drain).
    Enter,
    /// Deposited; waiting for the last arrival to publish the outputs (or
    /// a reduce-scatter's inputs, for this rank to sum its chunk from).
    AwaitPublish,
    /// This rank's reduce-scatter chunk is summed; waiting for the other
    /// members to finish theirs and drop the inputs.
    AwaitCombined,
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
    input: Option<Pieces>,
    /// This rank's arrival clock, latched on the first poll.
    t_arrive: Option<f64>,
    stage: CollStage,
}

struct SlotState {
    phase: Phase,
    inputs: Vec<Option<Pieces>>,
    outputs: Vec<Option<Tensor>>,
    arrived: usize,
    picked: usize,
    t_max: f64,
    t_done: f64,
    /// Kind and bytes of the op in flight, published by the last arrival
    /// so every rank can emit its own trace span.
    op: Option<(OpKind, u64)>,
    /// What the first arrival of the op in flight asked for, and its group
    /// index (its input sits in `inputs` until the publish): every later
    /// arrival must match it.
    first: Option<(Collective, usize)>,
    /// Global ranks parked `Pending` for this op's publish; drained (and
    /// woken through the executor) by the last arrival.
    parked_publish: Vec<DeviceId>,
    /// A reduce-scatter's published inputs while members sum their chunks
    /// (each reads them through its own handle, outside the lock), and how
    /// many have finished.
    combining: Option<Arc<[Pieces]>>,
    combined: usize,
    /// Ranks whose chunk is summed, parked until the last member finishes
    /// its own and drops the inputs.
    parked_combine: Vec<DeviceId>,
    /// Ranks parked waiting for the previous op's drain; woken by the last
    /// picker's reset.
    parked_drain: Vec<DeviceId>,
}

/// Shared state of one process group (all member handles point here).
///
/// The rendezvous has three distinct wait reasons, each with its own parked
/// list so a wake never reaches ranks parked for *another* reason:
/// Collect-phase waiters sit in `parked_publish` (woken once, by the last
/// arrival); members that have summed their reduce-scatter chunk sit in
/// `parked_combine` (woken once, by the last member to sum its own); and
/// next-op entrants draining a slot still in use sit in `parked_drain`
/// (woken once, by the last picker). Every spurious wake would cost a full
/// requeue/dispatch cycle.
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
                combining: None,
                combined: 0,
                parked_combine: Vec::new(),
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
        let combine = st.parked_combine.iter();
        let drain = st.parked_drain.iter();
        publish
            .map(|&r| (r, WakeKey::publish(shared)))
            .chain(combine.map(|&r| (r, WakeKey::combine(shared))))
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
    /// A reduce-scatter's last arrival publishes the inputs instead of the
    /// outputs: each member sums its own chunk outside the slot lock, and
    /// the last to finish drops the inputs and releases the others, so no
    /// rank resumes while a peer still holds its input's handles.
    /// On [`Stream::Main`] the arrival clock is the main clock; on
    /// [`Stream::Comm`] it is `max(main, comm)` and only the comm clock
    /// advances, so compute may keep accruing behind the collective.
    ///
    /// A rank that must wait returns [`Poll::Pending`] with the wake key of
    /// the edge it needs (publish, combine or drain), after registering
    /// itself in the slot's parked list *under the slot lock*, so the waking
    /// rank cannot miss it. Spurious re-polls re-check the phase and re-park.
    /// The blocking [`Group::collective`] drives this same method, which
    /// is what keeps closure and task ranks bitwise identical.
    ///
    /// Members that disagree on the op, its root, dim or (for every op
    /// but the rooted broadcast) input shape would silently compute
    /// whatever the last arrival asked for; the second arrival of such a
    /// pair panics instead, naming both ranks. A one-rank group runs the
    /// same rendezvous: its one arrival is the last.
    ///
    /// When tracing is enabled, every rank emits a [`SpanKind::Collective`]
    /// span (on its device or comm-stream track) from its arrival to the
    /// group-wide completion, and the last arrival additionally emits the
    /// group-track span(s) — one per op, or one per phase of a multi-phase
    /// all-reduce schedule.
    pub fn poll_collective(&self, ctx: &DeviceCtx, op: &mut CollectiveOp) -> Poll<Tensor> {
        ctx.check_abort();
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
        let shared = &*self.shared;
        let mut st = shared.slot.lock();
        if matches!(op.stage, CollStage::Enter) {
            if st.phase != Phase::Collect {
                // previous op not fully drained: park until the last picker
                // resets the slot
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
                debug_assert!(
                    st.combining.is_none() && st.combined == 0,
                    "stale reduce-scatter inputs entering Collect"
                );
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
                    if first.op != op.desc.op
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
                // last arrival: combine (or, a reduce-scatter, hand the
                // inputs to the members' own sums) and publish
                let inputs = st.inputs.iter_mut().map(|i| i.take().unwrap()).collect();
                let (published, done) = finish_spec(op.desc, ctx, self.members(), inputs);
                let bytes = done.elements * ELEMENT_BYTES;
                match published {
                    Published::Outputs(outputs) => {
                        assert_eq!(outputs.len(), p, "finish must produce one output per rank");
                        st.outputs = outputs.into_iter().map(Some).collect();
                        st.phase = Phase::Distribute;
                    }
                    Published::Inputs(inputs) => {
                        st.outputs = vec![None; p];
                        st.combining = Some(inputs);
                        st.phase = Phase::Combine;
                    }
                }
                st.t_done = st.t_max + done.cost;
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
                // fall through to sum our chunk or pick our output
            } else {
                st.parked_publish.push(ctx.rank());
                return Poll::Pending(WakeKey::publish(&self.shared));
            }
        } else if st.phase == Phase::Collect {
            // spurious resume: the publish we are waiting for has not
            // happened yet — re-park (a waiter's predicate re-check)
            if !st.parked_publish.contains(&ctx.rank()) {
                st.parked_publish.push(ctx.rank());
            }
            return Poll::Pending(WakeKey::publish(&self.shared));
        }
        if st.phase == Phase::Combine && matches!(op.stage, CollStage::AwaitPublish) {
            // a reduce-scatter's inputs are out: sum this rank's chunk
            // through a handle of our own, with the lock free for peers
            // doing the same
            let inputs = Arc::clone(st.combining.as_ref().expect("published inputs"));
            drop(st);
            let Op::ReduceScatter { dim } = op.desc.op else {
                unreachable!("only a reduce-scatter publishes its inputs")
            };
            let mine = reduce_scatter_chunk(&inputs, dim, self.my_index);
            // let go before counting ourselves done, so the last member to
            // finish holds the last handle
            drop(inputs);
            st = shared.slot.lock();
            st.outputs[self.my_index] = Some(mine);
            st.combined += 1;
            op.stage = CollStage::AwaitCombined;
            if st.combined == p {
                // last to finish: every rank's input drops here, before any
                // rank resumes
                st.combining = None;
                st.combined = 0;
                st.phase = Phase::Distribute;
                for r in std::mem::take(&mut st.parked_combine) {
                    ctx.tasks.wake(r);
                }
            }
        }
        if st.phase == Phase::Combine {
            // our chunk is summed, a peer's is not (or a spurious resume):
            // park until the last member finishes
            if !st.parked_combine.contains(&ctx.rank()) {
                st.parked_combine.push(ctx.rank());
            }
            return Poll::Pending(WakeKey::combine(&self.shared));
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
            ctx.trace_span_as(
                ctx.rank(),
                self.device_track(ctx, stream),
                SpanKind::Collective { kind, bytes, group },
                t_arrive,
                t_done,
            );
        }
        Poll::Ready(out)
    }

    /// Starts `desc` on this rank's input `t` (a tensor, or [`Pieces`]) as
    /// a resumable op; advance it with [`Group::poll_collective`]. This is
    /// the one way a collective begins — [`Group::collective`] and every
    /// named wrapper go through it — so heap [`crate::RankTask`]s get every
    /// op, width and stream, and the same argument checks: a root outside
    /// the group or a `dim` the input does not have panics here, naming the
    /// op, instead of deep in the last arrival's combine on some other rank.
    pub fn start(&self, desc: Collective, t: impl Into<Pieces>) -> CollectiveOp {
        let t = t.into();
        // (root, axis this rank's input must have); rootless ops pass for 0
        let (root, dim) = match desc.op {
            Op::Broadcast { root } | Op::ReduceSum { root } => (root, None),
            Op::AllGather { dim } | Op::ReduceScatter { dim } => (0, Some(dim)),
            Op::AllReduce { .. } => (0, None),
        };
        assert!(
            root < self.size(),
            "{desc}: root out of range for a group of {}",
            self.size()
        );
        assert!(
            dim.is_none_or(|d| d < t.dims().len()),
            "{desc}: dim out of range for input {}",
            bracketed(t.dims())
        );
        CollectiveOp {
            desc,
            input: Some(t),
            t_arrive: None,
            stage: CollStage::Enter,
        }
    }

    /// Runs `desc` to completion and returns this rank's output: the
    /// blocking form for closure ranks, polling the op and sleeping on the
    /// rank's own thread whenever the poll returns `Pending` — the same
    /// state machine a heap task advances by hand.
    pub fn collective(&self, ctx: &DeviceCtx, desc: Collective, t: impl Into<Pieces>) -> Tensor {
        let mut op = self.start(desc, t);
        ctx.block_until(|| self.poll_collective(ctx, &mut op))
    }

    // ---- named forms: main stream --------------------------------------

    /// [`Group::start`] of a sum all-reduce.
    pub fn start_all_reduce(&self, t: Tensor) -> CollectiveOp {
        self.start(Op::AllReduce { max: false }.into(), t)
    }

    /// [`Group::start`] of an all-gather along `dim`.
    pub fn start_all_gather_cat(&self, t: Tensor, dim: usize) -> CollectiveOp {
        self.start(Op::AllGather { dim }.into(), t)
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

    /// [`Op::ReduceSum`].
    pub fn reduce_sum(&self, ctx: &DeviceCtx, t: Tensor, root: usize) -> Tensor {
        self.collective(ctx, Op::ReduceSum { root }.into(), t)
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

    /// Emits this op's group-track span(s): one per (launch-free) phase of
    /// the all-reduce schedule that ran (hierarchical RS/AR/AG, tree
    /// reduce/broadcast, halving-doubling RS/AG, one for the flat ring),
    /// tiling the op interval contiguously — the last span ends at the op's
    /// end, so it carries the launch — and one span for every other op.
    fn trace_group_phases(&self, ctx: &DeviceCtx, done: &Done, bytes: u64, start: f64, end: f64) {
        let Some(schedule) = &done.schedule else {
            self.trace_group_span(ctx, done.kind, bytes, start, end);
            return;
        };
        let kinds = phase_kinds(schedule.algo);
        let mut t = start;
        for (i, (&kind, &dt)) in kinds.iter().zip(schedule.phases()).enumerate() {
            // the last phase snaps to the op's end so float rounding never
            // leaves a gap in the tiling
            let stop = if i + 1 == kinds.len() { end } else { t + dt };
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
/// do not depend on the blocking — nor on where an input's pieces break:
/// each is read in place, and padding takes part as the zeros it stands for.
fn reduce_rank_ordered_into(
    out: &mut Vec<f32>,
    inputs: &[Pieces],
    range: Range<usize>,
    take: impl Fn(&mut [f32], &[f32]),
) {
    for start in range.clone().step_by(REDUCE_BLOCK) {
        let block = start..range.end.min(start + REDUCE_BLOCK);
        let filled = out.len();
        inputs[0].for_each_run(block.clone(), |_, run| out.extend_from_slice(run));
        let acc = &mut out[filled..];
        for x in &inputs[1..] {
            x.for_each_run(block.clone(), |at, run| {
                take(&mut acc[at..at + run.len()], run)
            });
        }
    }
}

/// The rendezvous inputs (one shape, checked at arrival) concatenated
/// along `dim` in rank order, each read in place: one pooled buffer
/// extended in output order.
fn gather_rank_ordered(inputs: &[Pieces], dim: usize) -> Tensor {
    let dims = inputs[0].dims();
    let outer: usize = dims[..dim].iter().product();
    let part = inputs[0].numel() / outer.max(1);
    let mut out = pool::take_buffer(inputs.len() * inputs[0].numel());
    for o in 0..outer {
        for x in inputs {
            x.for_each_run(o * part..(o + 1) * part, |_, run| {
                out.extend_from_slice(run)
            });
        }
    }
    let shape = Shape::from(dims).with_dim(dim, dims[dim] * inputs.len());
    Tensor::from_vec(shape, out)
}

/// `acc[i] += x[i]`: the step of a rank-ordered sum.
fn add_rank(acc: &mut [f32], x: &[f32]) {
    axpy_slices(acc, 1.0, x);
}

/// Rank `r`'s chunk along `dim` of the rank-ordered sum of the rendezvous
/// inputs (whose `dim` extent the last arrival checked divides by p):
/// `outer` strips of the flat elements (one when `dim` is 0), each summed
/// straight into the buffer r alone will own, so r may scale it in place —
/// nothing sums the whole vector and copies chunks out of it. Each member
/// sums its own, so the p chunks are summed side by side.
fn reduce_scatter_chunk(inputs: &[Pieces], dim: usize, r: usize) -> Tensor {
    let (p, dims) = (inputs.len(), inputs[0].dims());
    let outer: usize = dims[..dim].iter().product();
    let strip = inputs[0].numel() / (outer * p).max(1);
    let mut out = pool::take_buffer(outer * strip);
    for o in 0..outer {
        let start = (o * p + r) * strip;
        reduce_rank_ordered_into(&mut out, inputs, start..start + strip, add_rank);
    }
    Tensor::from_vec(Shape::from(dims).with_dim(dim, dims[dim] / p), out)
}

/// Elementwise sum (or, with `max`, maximum — exact, but reduced in the
/// same ascending-rank order for uniformity) of the rank-ordered rendezvous
/// inputs: a fresh pooled buffer, or the input itself on a one-rank group.
fn reduce_rank_ordered(mut inputs: Vec<Pieces>, max: bool) -> Tensor {
    if inputs.len() == 1 {
        return inputs.swap_remove(0).into_tensor();
    }
    let n = inputs[0].numel();
    let mut out = pool::take_buffer(n);
    if max {
        reduce_rank_ordered_into(&mut out, &inputs, 0..n, |acc, x| {
            for (a, &b) in acc.iter_mut().zip(x) {
                *a = a.max(b);
            }
        });
    } else {
        reduce_rank_ordered_into(&mut out, &inputs, 0..n, add_rank);
    }
    Tensor::from_vec(inputs[0].dims(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;
    use crate::world::World;
    use colossalai_tensor::meter;
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

    /// Each tensor as a one-piece input.
    fn whole(inputs: &[Tensor]) -> Vec<Pieces> {
        inputs.iter().cloned().map(Pieces::from).collect()
    }

    /// Every rank's reduce-scatter chunk along dim 0, summed by one caller.
    fn every_chunk(inputs: &[Pieces]) -> Vec<Tensor> {
        (0..inputs.len())
            .map(|r| reduce_scatter_chunk(inputs, 0, r))
            .collect()
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
                    bits(&reduce_rank_ordered(whole(&inputs), false)),
                    bits(&sum),
                    "sum, p {p}, n {n}"
                );
                assert_eq!(
                    bits(&reduce_rank_ordered(whole(&inputs), true)),
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
    fn combining_pieces_in_place_equals_the_flat_combine_bitwise() {
        // ragged parameter sizes: pieces straddle the shard and block
        // boundaries, an empty piece sits mid-list, and every bucket is
        // zero-padded past its last piece
        let sizes = [4095, 0, 7, 4099, 1, 2 * 4096 + 3, 13];
        let total: usize = sizes.iter().sum();
        let (mut straddled, mut padded) = (false, false);
        for p in [1, 2, 3, 8] {
            for extra in [0, 1, 4096 + 5] {
                let len = (total + extra).div_ceil(p) * p;
                let mut inputs = mixed_magnitudes(p, len);
                // negative zeros, and the padding each rank really sends
                for (r, x) in inputs.iter_mut().enumerate() {
                    let data = x.data_mut();
                    data[r * 3] = -0.0;
                    data[total..].fill(0.0);
                }
                // each rank cuts its own values into the parameter sizes
                let pieces: Vec<Pieces> = inputs
                    .iter()
                    .map(|x| {
                        let mut at = 0;
                        let parts = sizes.map(|n| {
                            at += n;
                            Tensor::from_slice([n], &x.data()[at - n..at])
                        });
                        Pieces::padded(parts.to_vec(), len)
                    })
                    .collect();
                let shard = len / p;
                let mut at = 0;
                for n in sizes {
                    straddled |= p > 1 && at / shard != (at + n).saturating_sub(1) / shard;
                    at += n;
                }
                padded |= len > total;
                for max in [false, true] {
                    assert_eq!(
                        bits(&reduce_rank_ordered(pieces.clone(), max)),
                        bits(&reduce_rank_ordered(whole(&inputs), max)),
                        "max {max}, p {p}, len {len}"
                    );
                }
                let flat = every_chunk(&whole(&inputs));
                let got = every_chunk(&pieces);
                for (r, (got, want)) in got.iter().zip(&flat).enumerate() {
                    assert_eq!(bits(got), bits(want), "p {p}, len {len}, shard {r}");
                }
                // and through the rendezvous, as a gradient bucket crosses,
                // each member summing its own chunk: as closures and as heap
                // tasks
                let scatter = Collective::from(Op::ReduceScatter { dim: 0 });
                for tasks in [false, true] {
                    let world = World::new(system_i());
                    let out = if tasks {
                        let pieces = &pieces;
                        world.run_tasks(p, |r| OneOp::new(p, scatter, pieces[r].clone()))
                    } else {
                        world.run_on(p, |ctx| {
                            let g = ctx.world_group(p);
                            g.collective(ctx, scatter, pieces[g.rank()].clone())
                        })
                    };
                    for (r, (got, want)) in out.iter().zip(&flat).enumerate() {
                        let what = format!("rendezvous, tasks {tasks}, p {p}, shard {r}");
                        assert_eq!(bits(got), bits(want), "{what}");
                    }
                }
            }
        }
        assert!(straddled && padded, "the sweep missed a case it claims");
    }

    #[test]
    fn every_wait_edge_is_reported_by_name() {
        // what a deadlock report reads: each parked list under its edge
        let shared = Arc::new(GroupShared::new(vec![4, 5, 6]));
        {
            let mut st = shared.slot.lock();
            st.parked_publish.push(4);
            st.parked_combine.push(5);
            st.parked_drain.push(6);
        }
        let got: Vec<String> = GroupShared::parked(&shared)
            .iter()
            .map(|(rank, key)| format!("{rank} {key:?}"))
            .collect();
        let want = [
            "4 publish(group [4,5,6])",
            "5 combine(group [4,5,6])",
            "6 drain(group [4,5,6])",
        ];
        assert_eq!(got, want);
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
            let clocks = world.run_on(8, |ctx| {
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
    const EVERY_OP: [Op; 6] = [
        Op::AllReduce { max: false },
        Op::AllReduce { max: true },
        Op::AllGather { dim: 0 },
        Op::ReduceScatter { dim: 0 },
        Op::Broadcast { root: 1 },
        Op::ReduceSum { root: 1 },
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
    fn every_op_runs_on_either_stream() {
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
            let mut cost = 0.0;
            for stream in [Stream::Main, Stream::Comm] {
                let desc = Collective { op, stream };
                let (out, stats) = run(desc);
                assert_eq!(stats.ops, 1, "{desc:?}");
                assert_eq!(stats.elements, base_stats.elements, "{desc:?}");
                assert_eq!(stats.bytes, 4 * stats.elements, "{desc:?}");
                for ((t, main, comm), (want, ..)) in out.iter().zip(&base) {
                    // the stream only changes which clock pays, never the payload
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
            // the cost layer's price of the 12 f32 elements on the 4-rank
            // group, launch included
            assert_eq!(cost, op.price(&system_i(), &[0, 1, 2, 3], 12), "{op:?}");
            assert!(cost > cost::COLLECTIVE_LAUNCH_SECONDS, "{op:?}");
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

            world.run_on(8, |ctx| {
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
        // and still charge nothing, not even a launch
        let world = World::new(system_i());
        world.set_tracing(true);
        world.run_on(1, |ctx| {
            let g = ctx.world_group(1);
            ctx.advance(1e-3);
            let _ = g.all_reduce(ctx, Tensor::full([3], 7.0));
            assert_eq!(ctx.clock(), 1e-3);
            ctx.advance(2e-3);
            let _ = g.broadcast(ctx, Tensor::full([3], 7.0), 0);
            assert_eq!(ctx.clock(), 1e-3 + 2e-3);
        });
        let stats = world.stats();
        assert_eq!(stats.ops_of(OpKind::AllReduce), 1);
        assert_eq!(stats.elements_of(OpKind::AllReduce), 0);
        assert_eq!(stats.ops_of(OpKind::Broadcast), 1);
        assert_eq!(stats.bytes, 0);
        // each op is one zero-length span at its arrival clock on the
        // device track and one on the group track
        let span = |track: Track, kind: OpKind, at: f64| Span {
            rank: 0,
            track,
            kind: SpanKind::Collective {
                kind,
                bytes: 0,
                group: vec![0],
            },
            start: at,
            end: at,
        };
        let group = || Track::Group(group_track_name(&[0]));
        let t_broadcast = 1e-3 + 2e-3;
        assert_eq!(
            world.trace(),
            vec![
                span(Track::Device(0), OpKind::AllReduce, 1e-3),
                span(Track::Device(0), OpKind::Broadcast, t_broadcast),
                span(group(), OpKind::AllReduce, 1e-3),
                span(group(), OpKind::Broadcast, t_broadcast),
            ]
        );
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
        let expected =
            cost::allreduce_time_with(AllReduceAlgo::Hierarchical, &cluster, &group, bytes);
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
        // m = 4 nodes of l = 4 ranks: two intra-node ring passes move
        // 2m(l-1)n hops and the leader ring 2(m-1)n/l
        let (m, l, n) = (4, 4, n as u64);
        let hops = 2 * m * (l - 1) * n + 2 * (m - 1) * n / l;
        assert_eq!(world.stats().elements_of(OpKind::AllReduce), hops);
        assert!(hops < 2 * 15 * n, "fewer hops than the flat ring");
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
        let time = |algo| cost::allreduce_time_with(algo, &cluster, &group, (n * 4) as u64);
        let tree_t = time(AllReduceAlgo::Tree);
        let rhd_t = time(AllReduceAlgo::RecursiveHalvingDoubling);
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
        let time = |algo| cost::allreduce_time_with(algo, &cluster, &group, bytes);
        let tree_t = time(AllReduceAlgo::Tree);
        let rhd_t = time(AllReduceAlgo::RecursiveHalvingDoubling);
        assert!(
            (tree[0].1 - tree_t).abs() < 1e-12,
            "{} vs {tree_t}",
            tree[0].1
        );
        assert!((rhd[0].1 - rhd_t).abs() < 1e-12, "{} vs {rhd_t}", rhd[0].1);
        assert_eq!(flat[0].0.data(), tree[0].0.data());
        assert_eq!(flat[0].0.data(), rhd[0].0.data());
        // all three lossless schedules move every contribution to every
        // rank exactly once each way: 2 * 7 * 101 hops, 4 bytes each
        let hops = 2 * 7 * n as u64;
        for stats in [&flat_stats, &tree_stats, &rhd_stats] {
            assert_eq!(stats.elements_of(OpKind::AllReduce), hops);
            assert_eq!(stats.bytes, hops * 4);
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
        stream: Stream::Comm,
    };

    #[test]
    fn comm_stream_allreduce_overlaps_compute() {
        let world = World::new(system_ii());
        let n: usize = 1 << 20;
        let comm_t = cost::allreduce_time(&system_ii(), &(0..4).collect::<Vec<_>>(), 4 * n as u64);
        // metered compute that outlasts the collective ten times over
        let gpu = system_ii().gpu(0).clone();
        let flops = (10.0 * comm_t * gpu.peak_flops_f32 * gpu.sustained_fraction) as u64;
        let compute_t = gpu.compute_time_f32(flops);
        assert!(compute_t > 9.0 * comm_t);
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let red = g.collective(ctx, ALL_REDUCE_COMM, Tensor::zeros([n]));
            let launched = ctx.clock();
            meter::record(flops);
            ctx.comm_sync();
            (red, launched, ctx.clock(), ctx.comm_clock())
        });
        for (red, launched, clock, comm_clock) in &out {
            assert_eq!(red.numel(), n);
            assert_eq!(*launched, 0.0, "launch must not advance the main clock");
            // the collective fully hides behind compute
            assert_eq!(*clock, compute_t);
            assert_eq!(clock, comm_clock, "comm_sync joins the streams");
        }
        // blocking baseline: compute + collective serialize
        let world2 = World::new(system_ii());
        let blocking = world2.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let _ = g.all_reduce(ctx, Tensor::zeros([n]));
            meter::record(flops);
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
        input: Option<Pieces>,
        op: Option<CollectiveOp>,
    }

    impl OneOp {
        fn new(n: usize, desc: Collective, input: impl Into<Pieces>) -> OneOp {
            OneOp {
                n,
                desc,
                input: Some(input.into()),
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
        let all_reduce = Collective::from(Op::AllReduce { max: false });
        let broadcast = |root| Collective::from(Op::Broadcast { root });
        let gather = Collective::from(Op::AllGather { dim: 0 });
        // (rank 0's op and input length, rank 1's, the two descriptors):
        // op, root and shape mismatches
        let cases = [
            (
                (all_reduce, 4),
                (gather, 4),
                "rank 0 all_reduce[4] vs rank 1 all_gather(dim 0)[4]",
            ),
            (
                (broadcast(0), 4),
                (broadcast(1), 0),
                "rank 0 broadcast(root 0)[4] vs rank 1 broadcast(root 1)[0]",
            ),
            (
                (all_reduce, 4),
                (all_reduce, 8),
                "rank 0 all_reduce[4] vs rank 1 all_reduce[8]",
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
    fn ragged_all_gather_is_a_mismatch() {
        // the op bills every rank at rank 0's size, so members must agree
        let gather = Collective::from(Op::AllGather { dim: 0 });
        for tasks in [false, true] {
            let msg = panic_of(2, tasks, |rank| {
                OneOp::new(2, gather, Tensor::zeros([rank + 1]))
            });
            let want = "collective mismatch on group [0,1]: \
                        rank 0 all_gather(dim 0)[1] vs rank 1 all_gather(dim 0)[2]";
            assert!(msg.contains(want), "tasks={tasks}: {msg}");
        }
    }

    #[test]
    fn start_rejects_bad_roots_and_dims_naming_the_op() {
        let cases = [
            (
                Collective::from(Op::Broadcast { root: 2 }),
                "broadcast(root 2): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::ReduceSum { root: 3 }).on(Stream::Comm),
                "reduce_sum(root 3): root out of range for a group of 2",
            ),
            (
                Collective::from(Op::AllGather { dim: 1 }),
                "all_gather(dim 1): dim out of range for input [4]",
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
        // ops with no `start_*` wrapper, and one on the comm stream:
        // reachable from a heap task only through `start`
        let ops = [
            Collective::from(Op::ReduceScatter { dim: 0 }),
            Collective::from(Op::ReduceSum { root: 2 }),
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
}
