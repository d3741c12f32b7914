//! The simulated multi-device world: per-device virtual clocks, a shared
//! cluster model, global traffic stats, and the two ways to launch ranks
//! on the one executor (`crate::sched`): closures ([`World::run_on`]) and
//! resumable tasks ([`World::run_tasks`]).

use crate::group::{Group, GroupShared};
use crate::sched::{AbortRun, Baton, TaskWaker};
use crate::stats::{CommStats, ELEMENT_BYTES};
use crate::task::{Poll, RankTask, WakeKey};
use crate::trace::{self, RankRollup, Span, SpanKind, Tracer, Track};
use colossalai_tensor::{meter, Tensor};
use colossalai_topology::{AllReduceAlgo, Cluster, DeviceId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One point-to-point mailbox: the FIFO for a single `(from, to, tag)` key
/// plus that key's *own* parked receiver.
///
/// The per-key wake target is the core of the wakeup discipline: a delivery
/// wakes only the receiver parked on this exact key, so a message in a
/// 4096-rank world requeues one rank — not every parked receiver
/// world-wide.
#[derive(Default)]
struct MailSlot {
    /// Messages in flight: payload and virtual arrival time. The receiver
    /// traces the payload's f32 bytes, which is what the sender charged.
    queue: VecDeque<(Tensor, f64)>,
    /// Global rank of the receiver parked `Pending` on this key (set under
    /// the mailbox lock). The sender takes it and wakes the rank through
    /// the run's [`TaskWaker`].
    parked_task: Option<DeviceId>,
}

/// Point-to-point mailboxes keyed by (from, to, tag).
type Mailbox = HashMap<(DeviceId, DeviceId, u64), MailSlot>;

/// Wakeup-discipline observability counters (see [`WakeStats`]).
///
/// These measure *host* scheduling behavior — how many times ranks were
/// resumed after parking — and are deliberately **not** part of
/// [`CommStats`]: wake counts may vary across pool sizes and runs (spurious
/// wakeups, abort races), so they must never enter the bitwise parity
/// surface that `tests/world_backend_parity.rs` compares.
#[derive(Default)]
struct WakeCounters {
    /// Point-to-point messages delivered into a mailbox.
    p2p_msgs: AtomicU64,
    /// Times a receiver was resumed after parking on a mailbox key.
    p2p_wakes: AtomicU64,
}

/// Snapshot of the world's wakeup counters ([`World::wake_stats`]).
///
/// With per-`(from, to, tag)` wake targets, one delivery wakes at most one
/// receiver, so `p2p_wakes / p2p_msgs` stays ~1 at any world size — that
/// ratio is the regression guard for the O(world) wake-everyone herd this
/// design replaced. Host-timing-dependent; excluded from the
/// deterministic [`CommStats`] parity surface.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WakeStats {
    /// Point-to-point messages delivered.
    pub p2p_msgs: u64,
    /// Resumes observed by receivers parked on a mailbox key.
    pub p2p_wakes: u64,
}

impl WakeStats {
    /// Mailbox wakeups per delivered message (0 when no messages flowed).
    /// ~1 under the keyed wake discipline; O(world) under a broadcast
    /// herd.
    pub fn wakeups_per_msg(&self) -> f64 {
        if self.p2p_msgs == 0 {
            0.0
        } else {
            self.p2p_wakes as f64 / self.p2p_msgs as f64
        }
    }
}

/// OS-thread gauge behind [`ThreadStats`]: how many worker/rank threads
/// runs on this world spawned, kept live, and parked in blocking waits.
/// Relaxed atomics — a gauge, not a synchronization edge; peaks are exact
/// because every transition pairs `fetch_add` with `fetch_max`.
#[derive(Default)]
pub(crate) struct ThreadCounters {
    spawned: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
    parked: AtomicU64,
    peak_parked: AtomicU64,
}

impl ThreadCounters {
    /// Runs the `body` of a spawned rank/worker thread under the live
    /// gauge. Bodies catch their rank's panics, so they always return.
    fn live(&self, body: impl FnOnce()) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
        body();
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Runs `sleep` (a rank thread waiting to be dispatched, a worker
    /// waiting for a ready rank) under the parked gauge.
    pub(crate) fn parked(&self, sleep: impl FnOnce()) {
        let parked = self.parked.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_parked.fetch_max(parked, Ordering::Relaxed);
        sleep();
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Snapshot of the OS-thread gauge ([`World::thread_stats`]): turns the
/// "`run_tasks` needs O(pool) OS threads" claim into a measured number
/// instead of an assertion. Host-behavioral, like [`WakeStats`] — never
/// part of the bitwise parity surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Rank/worker threads spawned by runs since the last reset.
    pub spawned: u64,
    /// Peak number of those threads alive at once.
    pub peak_live: u64,
    /// Peak number simultaneously parked in a blocking wait.
    pub peak_parked: u64,
}

impl ThreadStats {
    /// One-line summary for table footers.
    pub fn summary(&self) -> String {
        format!(
            "spawned={} peak_live={} peak_parked={}",
            self.spawned, self.peak_live, self.peak_parked
        )
    }
}

/// Executor sizing for a world's runs. One variant: there is one executor;
/// what remains to choose is how many ranks may run at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldBackend {
    /// `pool` running slots (0 = host cores): worker threads polling heap
    /// [`RankTask`]s under [`World::run_tasks`], or slot tokens passed
    /// between the rank threads of [`World::run_on`] closures.
    Stackless {
        /// Number of ranks running at once (0 = host cores).
        pool: usize,
    },
}

/// Stack of a `run_on` rank thread: enough for the simulated workloads
/// while keeping a 4096-rank world around 4 GiB of (mostly uncommitted)
/// reservations.
const RANK_STACK_BYTES: usize = 1 << 20;

/// Shared state behind a [`World`].
pub(crate) struct WorldInner {
    pub(crate) cluster: Cluster,
    pub(crate) stats: Mutex<CommStats>,
    pub(crate) tracer: Tracer,
    /// When set, every all-reduce uses this schedule instead of consulting
    /// the cost-model selector (benches and tests pin the algorithm).
    forced_algo: Mutex<Option<AllReduceAlgo>>,
    groups: Mutex<HashMap<Vec<DeviceId>, Arc<GroupShared>>>,
    mailbox: Mutex<Mailbox>,
    /// Wakeup observability (never part of the parity surface).
    wakes: WakeCounters,
    /// OS-thread observability (never part of the parity surface); every
    /// run's executor marks its sleeps here.
    threads: Arc<ThreadCounters>,
    /// The pool size [`World::set_backend`] pinned; `None` runs one slot
    /// per host core.
    backend: Mutex<Option<WorldBackend>>,
}

impl WorldInner {
    /// `rank r blocked on <wake key>` for every rank registered in a
    /// mailbox or rendezvous parked list, by rank — the body of a deadlock
    /// report. Read after the run has quiesced.
    fn blocked_ranks(&self) -> String {
        let mut blocked: Vec<(DeviceId, WakeKey)> = self
            .mailbox
            .lock()
            .iter()
            .filter_map(|(&(from, _, tag), slot)| {
                Some((slot.parked_task?, WakeKey::mail(from, tag)))
            })
            .collect();
        for group in self.groups.lock().values() {
            blocked.extend(GroupShared::parked(group));
        }
        blocked.sort_by_key(|&(rank, _)| rank);
        let lines: Vec<String> = blocked
            .iter()
            .map(|(rank, key)| format!("rank {rank} blocked on {key:?}"))
            .collect();
        lines.join("; ")
    }
}

/// A simulated cluster execution context.
///
/// [`World::run_on`] launches one task per participating device and hands each
/// a [`DeviceCtx`]. Collectives exchange real tensors through shared memory
/// while charging virtual time according to the cluster's link model, so
/// results are numerically real and timings follow the modeled hardware.
///
/// # Examples
///
/// ```
/// use colossalai_comm::World;
/// use colossalai_tensor::Tensor;
/// use colossalai_topology::systems::system_i;
///
/// let world = World::new(system_i());
/// let sums = world.run_on(4, |ctx| {
///     let group = ctx.world_group(4);
///     group.all_reduce(ctx, Tensor::scalar(ctx.rank() as f32)).item()
/// });
/// assert_eq!(sums, vec![6.0; 4]); // 0 + 1 + 2 + 3 on every rank
/// ```
pub struct World {
    inner: Arc<WorldInner>,
}

impl World {
    /// Creates a world over `cluster`.
    pub fn new(cluster: Cluster) -> World {
        World {
            inner: Arc::new(WorldInner {
                cluster,
                stats: Mutex::new(CommStats::default()),
                tracer: Tracer::default(),
                forced_algo: Mutex::new(None),
                groups: Mutex::new(HashMap::new()),
                mailbox: Mutex::new(HashMap::new()),
                wakes: WakeCounters::default(),
                threads: Arc::default(),
                backend: Mutex::new(None),
            }),
        }
    }

    /// The cluster model.
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// Pins the executor's pool size for this world (`None` restores the
    /// default, one slot per host core). Results are identical either way;
    /// this exists for benches and the parity tests.
    pub fn set_backend(&self, backend: Option<WorldBackend>) {
        *self.inner.backend.lock() = backend;
    }

    /// The executor sizing the next run will use, with `pool = 0` already
    /// resolved to the host core count.
    pub fn backend(&self) -> WorldBackend {
        let pool = match *self.inner.backend.lock() {
            Some(WorldBackend::Stackless { pool }) if pool > 0 => pool,
            _ => std::thread::available_parallelism().map_or(4, |n| n.get()),
        };
        WorldBackend::Stackless { pool }
    }

    /// Runs `f` on the first `n` devices of the cluster and returns the
    /// per-rank results ordered by rank.
    ///
    /// Each closure is a *stackful* rank of the executor: it keeps its own
    /// OS thread as its resumable state, but at most `pool` of the `n`
    /// threads run at any instant, admitted in `(virtual_time, rank)`
    /// order; a rank that blocks in a `recv` or a collective passes its
    /// slot straight to the next ready rank's thread. Panics in any rank
    /// abort the run and propagate with the lowest panicking rank's message
    /// (`"device thread panicked: rank r: ..."`), so test assertions inside
    /// device closures work as usual; a run in which no rank can make
    /// progress panics with `"deadlock: ..."` naming every blocked rank.
    pub fn run_on<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&DeviceCtx) -> R + Send + Sync,
    {
        let WorldBackend::Stackless { pool } = self.backend();
        let run = Run::new(&self.inner, n, pool, true);
        std::thread::scope(|scope| {
            for rank in 0..n {
                let (run, f) = (&run, &f);
                std::thread::Builder::new()
                    .name(format!("colossal-rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        run.inner.threads.live(|| {
                            run.waker.wait_dispatched(rank);
                            run.dispatch(rank, |ctx| Poll::Ready(f(ctx)));
                        })
                    })
                    .expect("spawn rank thread");
            }
            run.waker.start_stackful();
        });
        run.join()
    }

    /// Runs one [`RankTask`] per rank (built by `make`, which receives the
    /// rank) and returns the per-rank outputs ordered by rank.
    ///
    /// The tasks are *heap* ranks of the executor: `pool` worker threads
    /// poll them, and a task that returns `Pending` is simply not requeued
    /// until its wake key fires — no OS thread parks on its behalf, so peak
    /// thread count is `pool` however large `n` is (measured by
    /// [`World::thread_stats`]). Results, stats, traces and the panic and
    /// deadlock contracts are those of [`World::run_on`].
    pub fn run_tasks<T, F>(&self, n: usize, make: F) -> Vec<T::Output>
    where
        T: RankTask,
        F: Fn(DeviceId) -> T + Send + Sync,
    {
        let WorldBackend::Stackless { pool } = self.backend();
        let pool = pool.min(n);
        let run = Run::new(&self.inner, n, pool, false);
        // per-task mutexes are uncontended (the executor hands each rank to
        // exactly one worker at a time); they exist to move tasks across
        // worker threads safely
        let tasks: Vec<Mutex<Option<T>>> =
            (0..n).map(|rank| Mutex::new(Some(make(rank)))).collect();
        std::thread::scope(|scope| {
            for w in 0..pool {
                let (run, tasks) = (&run, &tasks);
                std::thread::Builder::new()
                    .name(format!("colossal-task-{w}"))
                    .spawn_scoped(scope, move || {
                        run.inner.threads.live(|| {
                            while let Some(rank) = run.waker.next_ready() {
                                if let Some(next) = run.waker.next_hint() {
                                    prefetch_for_poll(&tasks[next]);
                                    prefetch_for_poll(&run.ctxs[next]);
                                }
                                run.dispatch(rank, |ctx| {
                                    let mut slot = tasks[rank].lock();
                                    let task = slot.as_mut().expect("task polled after completion");
                                    let polled = task.poll(ctx);
                                    if matches!(polled, Poll::Ready(_)) {
                                        *slot = None;
                                    }
                                    polled
                                });
                            }
                        })
                    })
                    .expect("spawn task worker");
            }
        });
        run.join()
    }

    /// Snapshot of the accumulated communication statistics.
    pub fn stats(&self) -> CommStats {
        self.inner.stats.lock().clone()
    }

    /// Clears accumulated statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&self) {
        *self.inner.stats.lock() = CommStats::default();
    }

    /// Snapshot of the wakeup-discipline counters: messages delivered and
    /// receiver resumes observed. `wakeups_per_msg()` ~1 proves keyed
    /// per-`(from, to, tag)` wakeups; O(world) means the herd is back.
    /// Host-timing-dependent — never compared for parity.
    pub fn wake_stats(&self) -> WakeStats {
        WakeStats {
            p2p_msgs: self.inner.wakes.p2p_msgs.load(Ordering::Relaxed),
            p2p_wakes: self.inner.wakes.p2p_wakes.load(Ordering::Relaxed),
        }
    }

    /// Clears the wakeup counters (e.g. after a warm-up phase).
    pub fn reset_wake_stats(&self) {
        self.inner.wakes.p2p_msgs.store(0, Ordering::Relaxed);
        self.inner.wakes.p2p_wakes.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the OS-thread gauge: threads spawned by runs on this
    /// world, the peak alive at once, and the peak simultaneously parked in
    /// blocking waits. Under [`World::run_tasks`] `peak_live` stays at the
    /// pool size no matter the rank count; under [`World::run_on`] it is the
    /// world size (one thread per closure, no workers besides).
    /// Host-behavioral — never compared for parity.
    pub fn thread_stats(&self) -> ThreadStats {
        ThreadStats {
            spawned: self.inner.threads.spawned.load(Ordering::Relaxed),
            peak_live: self.inner.threads.peak_live.load(Ordering::Relaxed),
            peak_parked: self.inner.threads.peak_parked.load(Ordering::Relaxed),
        }
    }

    /// Clears the thread gauge (e.g. after a warm-up run).
    pub fn reset_thread_stats(&self) {
        self.inner.threads.spawned.store(0, Ordering::Relaxed);
        self.inner.threads.live.store(0, Ordering::Relaxed);
        self.inner.threads.peak_live.store(0, Ordering::Relaxed);
        self.inner.threads.parked.store(0, Ordering::Relaxed);
        self.inner.threads.peak_parked.store(0, Ordering::Relaxed);
    }

    /// Pins the all-reduce schedule for every group in this world, or
    /// restores per-call cost-model selection with `None`. Data results are
    /// identical either way (the reduction order is canonical); only the
    /// charged time, element-hop stats and trace phases differ.
    pub fn force_allreduce_algo(&self, algo: Option<AllReduceAlgo>) {
        *self.inner.forced_algo.lock() = algo;
    }

    // ---- tracing --------------------------------------------------------

    /// Turns span recording on or off (off by default; the disabled path
    /// costs one relaxed atomic load per potential span).
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracer.set_enabled(on);
    }

    /// Whether spans are currently being recorded.
    pub fn tracing(&self) -> bool {
        self.inner.tracer.enabled()
    }

    /// Snapshot of all recorded spans in canonical lane order (device
    /// tracks by rank, comm-stream tracks by rank, then group tracks by
    /// name; within a lane, recording order). The snapshot is
    /// bitwise-identical across rank forms and pool sizes.
    pub fn trace(&self) -> Vec<Span> {
        self.inner.tracer.snapshot()
    }

    /// Drops all recorded spans (e.g. after a warm-up step).
    pub fn clear_trace(&self) {
        self.inner.tracer.clear();
    }

    /// Chrome/Perfetto `trace_events` JSON of the recorded spans: one track
    /// per simulated device plus one per collective group. Load the output
    /// at `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn trace_json(&self) -> String {
        trace::chrome_trace_json(&self.trace())
    }

    /// Per-rank rollup of the recorded leaf spans: seconds in compute,
    /// communication, memory movement and idle.
    pub fn trace_rollup(&self) -> Vec<RankRollup> {
        trace::rollup(&self.trace())
    }

    /// The rollup formatted as a fixed-width table. At 64 ranks and above
    /// the per-rank rows collapse into min/median/max summary lines (the
    /// per-rank numbers stay in [`World::trace_rollup`]). A footer reports
    /// this world's OS-thread gauge next to the process-wide pool/par ones.
    pub fn rollup_table(&self) -> String {
        let mut table = trace::rollup_table(&self.trace_rollup());
        table.push_str(&format!("threads: {}\n", self.thread_stats().summary()));
        table
    }
}

/// Hints the CPU to pull the first cache lines of `v` toward L1. At 16k
/// ranks the per-rank task and ctx structs cannot all stay cache-resident,
/// so each dispatch would stall on cold loads; prefetching the *next* ready
/// rank's state while the current poll runs overlaps that miss latency with
/// useful work. Advisory only — correctness never depends on it.
#[inline]
fn prefetch_for_poll<V>(v: &V) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = v as *const V as *const i8;
        // pull up to four lines — enough for a task state machine or a
        // DeviceCtx without flooding the load queue
        let lines = std::mem::size_of::<V>().div_ceil(64).min(4);
        for l in 0..lines {
            // SAFETY: prefetch is a hint; it never faults, and `p + l *
            // 64` stays within (or one line past) the live borrow.
            unsafe { _mm_prefetch(p.add(l * 64), _MM_HINT_T0) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = v;
}

/// One `run_on` / `run_tasks` call: the executor, the per-rank contexts,
/// and what the ranks leave behind.
struct Run<'w, O> {
    inner: &'w Arc<WorldInner>,
    waker: Arc<TaskWaker>,
    ctxs: Vec<DeviceCtx>,
    results: Vec<Mutex<Option<O>>>,
    /// (rank, message) of every rank that panicked on its own (peers
    /// unwound by the abort marker are not recorded).
    panics: Mutex<Vec<(usize, String)>>,
}

impl<'w, O> Run<'w, O> {
    /// A `stackful` run (`run_on`) opens its ranks' wake-up pipes here,
    /// before any rank thread exists; they close when the run is dropped.
    fn new(inner: &'w Arc<WorldInner>, n: usize, pool: usize, stackful: bool) -> Run<'w, O> {
        assert!(
            n >= 1 && n <= inner.cluster.n_devices(),
            "cannot run on {n} devices of a {}-device cluster",
            inner.cluster.n_devices()
        );
        let batons = stackful.then(|| Baton::open(n));
        let waker = TaskWaker::new(n, pool, batons, Arc::clone(&inner.threads));
        Run {
            inner,
            ctxs: (0..n)
                .map(|rank| DeviceCtx::new(Arc::clone(inner), rank, &waker))
                .collect(),
            waker,
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            panics: Mutex::new(Vec::new()),
        }
    }

    /// One dispatch of `rank` on the calling thread's slot: polls its body,
    /// then parks or retires it. The first real panic aborts the run —
    /// every parked rank is requeued, observes the flag at its next op and
    /// unwinds via [`AbortRun`]. There is deliberately no abort check
    /// *before* the poll: a rank dispatched ahead of the panicking one (in
    /// heap order) must still reach its own panic, however late its thread
    /// wakes, or which message is "the lowest rank's" would depend on
    /// timing.
    ///
    /// The thread's compute meter starts the poll at zero and is drained
    /// into `rank`'s clock before the rank parks or retires, so a pool
    /// worker charges each heap rank only its own FLOPs.
    fn dispatch(&self, rank: usize, poll: impl FnOnce(&DeviceCtx) -> Poll<O>) {
        let ctx = &self.ctxs[rank];
        meter::take();
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let polled = poll(ctx);
            ctx.clock(); // drains the meter
            polled
        }));
        match polled {
            Ok(Poll::Pending(_)) => return self.waker.park(rank),
            Ok(Poll::Ready(out)) => *self.results[rank].lock() = Some(out),
            Err(payload) => {
                if !payload.is::<AbortRun>() {
                    // as_ref, not &payload: the latter would unsize the
                    // Box itself into `dyn Any`
                    let msg = panic_message(payload.as_ref());
                    self.panics.lock().push((rank, msg));
                    self.waker.abort_all();
                }
            }
        }
        self.waker.finish(rank);
    }

    /// The per-rank results once every rank thread or worker has exited.
    /// An aborted run instead re-raises the lowest-ranked primary panic, or
    /// reports the deadlock, after dropping the half-finished rendezvous
    /// and mailbox state so the world stays usable.
    fn join(self) -> Vec<O> {
        let primary = self.panics.into_inner().into_iter().min_by_key(|&(r, _)| r);
        let report = match primary {
            Some((rank, msg)) => format!("device thread panicked: rank {rank}: {msg}"),
            None if self.waker.deadlocked.load(Ordering::SeqCst) => {
                format!("deadlock: {}", self.inner.blocked_ranks())
            }
            None => {
                return self
                    .results
                    .into_iter()
                    .map(|r| r.into_inner().expect("rank produced no result"))
                    .collect()
            }
        };
        self.inner.groups.lock().clear();
        self.inner.mailbox.lock().clear();
        panic!("{report}");
    }
}

/// Human-readable text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-device execution context handed to the closure of [`World::run_on`].
///
/// Holds the device's virtual clock. Compute reaches it one way: the
/// kernels record their FLOPs on the thread's [`meter`], and every read of
/// the clock first drains the meter at the GPU's FP32 rate
/// ([`DeviceCtx::clock`]). Communication is charged by the collectives of
/// [`Group`] and by send / recv; [`DeviceCtx::advance`] is for modeled
/// time that is neither (PCIe legs, host CPU work).
/// Cloning a `DeviceCtx` yields a handle to the *same* device: clones share
/// the clocks, so layers and optimizers can each hold one.
#[derive(Clone)]
pub struct DeviceCtx {
    pub(crate) world: Arc<WorldInner>,
    pub(crate) rank: DeviceId,
    /// The run's executor; resource code (mailbox, rendezvous) wakes every
    /// rank it takes off a parked list through it. It also holds this
    /// rank's main virtual clock (in its contiguous per-rank array), so the
    /// ready heap can order requeues by `(vtime, rank)` without reaching
    /// back into the ctx.
    pub(crate) tasks: Arc<TaskWaker>,
    /// The communication stream's clock: `async` collectives accrue here
    /// while compute keeps running on the main clock;
    /// [`DeviceCtx::comm_sync`] joins the two.
    comm_clock: Arc<AtomicU64>,
}

impl DeviceCtx {
    fn new(world: Arc<WorldInner>, rank: DeviceId, waker: &Arc<TaskWaker>) -> DeviceCtx {
        DeviceCtx {
            world,
            rank,
            tasks: Arc::clone(waker),
            comm_clock: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }

    /// Global device id of this context.
    pub fn rank(&self) -> DeviceId {
        self.rank
    }

    /// The cluster model.
    pub fn cluster(&self) -> &Cluster {
        &self.world.cluster
    }

    /// Current virtual time in seconds, after charging the FLOPs this
    /// rank's kernels recorded since the last read: one
    /// `compute_time_f32` of their sum, traced as one `gemm` compute span.
    /// Every clock observation goes through here (send, recv, collectives,
    /// `comm_sync`, phase bounds), the executor drains before a rank parks
    /// or retires, and none of those points depends on whether tracing is
    /// on — so a traced run ends on the same clock bits as an untraced one.
    ///
    /// The clock is only ever written by its own rank, so relaxed atomics
    /// are sufficient — it lives in the executor's shared array so that
    /// clones of the ctx (held by layers, optimizers, schedules) see one
    /// clock and wakers can read it as a heap key, not for cross-thread
    /// communication.
    pub fn clock(&self) -> f64 {
        let t = f64::from_bits(self.tasks.clock_bits(self.rank));
        let flops = meter::take();
        if flops == 0 {
            return t;
        }
        let end = t + self.world.cluster.gpu(self.rank).compute_time_f32(flops);
        self.set_clock(end);
        if self.tracing() {
            let label = "gemm".to_string();
            let track = Track::Device(self.rank);
            self.trace_span_as(self.rank, track, SpanKind::Compute { label }, t, end);
        }
        end
    }

    fn set_clock(&self, t: f64) {
        self.tasks.set_clock_bits(self.rank, t.to_bits());
    }

    /// Advances the virtual clock by `dt` seconds.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0, "negative time step");
        self.set_clock(self.clock() + dt);
    }

    /// Forces the clock to at least `t` (used when receiving messages).
    pub(crate) fn advance_to(&self, t: f64) {
        if t > self.clock() {
            self.set_clock(t);
        }
    }

    /// Unwinds (silently) when the run is aborting after another rank's
    /// panic or a deadlock.
    pub(crate) fn check_abort(&self) {
        if self.tasks.abort.load(Ordering::Relaxed) {
            std::panic::resume_unwind(Box::new(AbortRun));
        }
    }

    /// Drives a resumable task to completion on the calling rank's own
    /// thread — the stackful way to wait: on each `Pending` the rank (whose
    /// op has registered it for the wake) hands its running slot to the
    /// next ready rank and sleeps until the executor dispatches it again.
    /// `recv` and the blocking collectives are this over the same ops a
    /// [`RankTask`] polls by hand, which is why both rank forms are bitwise
    /// identical. Panics inside a heap task, which has no thread of its own
    /// to sleep on.
    pub fn block_on<T: RankTask>(&self, mut task: T) -> T::Output {
        self.block_until(|| task.poll(self))
    }

    /// [`DeviceCtx::block_on`] over a bare poll function.
    pub(crate) fn block_until<T>(&self, mut poll: impl FnMut() -> Poll<T>) -> T {
        loop {
            match poll() {
                Poll::Ready(out) => return out,
                Poll::Pending(_) => {
                    // drain the meter: the ready heap keys a parked rank
                    // by its clock
                    self.clock();
                    self.tasks.block(self.rank);
                }
            }
            self.check_abort();
        }
    }

    // ---- comm stream ----------------------------------------------------

    /// Current virtual time of the communication stream in seconds. Lags
    /// the main clock while no async collective is in flight.
    pub fn comm_clock(&self) -> f64 {
        f64::from_bits(self.comm_clock.load(Ordering::Relaxed))
    }

    fn set_comm_clock(&self, t: f64) {
        self.comm_clock.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Earliest virtual time a newly launched async collective can start on
    /// this rank: the later of the two streams (compute must have produced
    /// the payload; the comm stream must have drained prior ops).
    pub(crate) fn comm_ready(&self) -> f64 {
        self.clock().max(self.comm_clock())
    }

    /// Forces the comm-stream clock to at least `t`.
    pub(crate) fn comm_advance_to(&self, t: f64) {
        if t > self.comm_clock() {
            self.set_comm_clock(t);
        }
    }

    /// Joins the comm stream into the main clock: both become
    /// `max(main, comm)`. Call before consuming the result of an async
    /// collective (e.g. before `optimizer.step`); a no-op when the comm
    /// stream is already behind the main clock.
    pub fn comm_sync(&self) {
        let t = self.comm_ready();
        self.set_clock(t);
        self.set_comm_clock(t);
    }

    /// The world-wide pinned all-reduce schedule, if any (see
    /// [`World::force_allreduce_algo`]).
    pub(crate) fn forced_allreduce_algo(&self) -> Option<AllReduceAlgo> {
        *self.world.forced_algo.lock()
    }

    /// Records traffic into the world-level stats (one call per group op).
    pub(crate) fn record_stats(&self, kind: crate::stats::OpKind, elements: u64, bytes: u64) {
        self.world.stats.lock().record(kind, elements, bytes);
    }

    // ---- tracing --------------------------------------------------------

    /// Whether the world is recording spans (cheap; callers may skip span
    /// bookkeeping entirely when false).
    pub fn tracing(&self) -> bool {
        self.world.tracer.enabled()
    }

    /// Records a span on this device's track from `start` to the current
    /// clock (which it reads, tracing or not). No-op unless tracing is
    /// enabled.
    pub fn trace_span(&self, kind: SpanKind, start: f64) {
        let end = self.clock();
        self.trace_span_as(self.rank, Track::Device(self.rank), kind, start, end);
    }

    /// Records a span attributed to `rank` on an arbitrary track: this
    /// device's for its own track, the group's first member for a
    /// group-track span (so traces don't depend on arrival order). No-op
    /// unless tracing is enabled.
    pub(crate) fn trace_span_as(
        &self,
        rank: DeviceId,
        track: Track,
        kind: SpanKind,
        start: f64,
        end: f64,
    ) {
        if self.tracing() {
            self.world.tracer.record(Span {
                rank,
                track,
                kind,
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a [`SpanKind::Phase`] span named `name`. Phase spans
    /// nest over the leaf spans `f` records. The clock is read at entry and
    /// exit whether or not tracing is on, so the compute `f` meters is
    /// charged at the same points either way.
    pub fn trace_phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.clock();
        let out = f();
        let end = self.clock();
        if self.tracing() {
            let kind = SpanKind::Phase {
                name: name.to_string(),
            };
            self.trace_span_as(self.rank, Track::Device(self.rank), kind, start, end);
        }
        out
    }

    /// Obtains (or creates) the process group over `members`.
    ///
    /// Every member must call with the *same* member list (order included);
    /// the calling device must itself be a member.
    pub fn group(&self, members: &[DeviceId]) -> Group {
        assert!(
            members.contains(&self.rank),
            "device {} is not in group {:?}",
            self.rank,
            members
        );
        let mut dedup = members.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            members.len(),
            "duplicate members in {members:?}"
        );
        let shared = {
            let mut groups = self.world.groups.lock();
            Arc::clone(
                groups
                    .entry(members.to_vec())
                    .or_insert_with(|| Arc::new(GroupShared::new(members.to_vec()))),
            )
        };
        Group::new(shared, self.rank)
    }

    /// The group of all devices participating in runs of size `n`
    /// (devices `0..n`).
    pub fn world_group(&self, n: usize) -> Group {
        let members: Vec<DeviceId> = (0..n).collect();
        self.group(&members)
    }

    // ---- point-to-point -------------------------------------------------

    /// Sends `t` to device `to` under `tag`, billing 4 bytes per element.
    /// Synchronous-send model: the sender's clock advances by the full
    /// transfer time and the message becomes visible to the receiver at the
    /// sender's post-send clock.
    pub fn send(&self, to: DeviceId, tag: u64, t: Tensor) {
        assert_ne!(to, self.rank, "send to self");
        self.check_abort();
        let bytes = t.numel() as u64 * ELEMENT_BYTES;
        let dt = self.world.cluster.p2p_time(self.rank, to, bytes);
        let t_start = self.clock();
        self.advance(dt);
        self.trace_span(
            SpanKind::P2p {
                peer: to,
                tag,
                bytes,
                is_send: true,
            },
            t_start,
        );
        let arrival = self.clock();
        self.record_stats(crate::stats::OpKind::SendRecv, t.numel() as u64, bytes);
        let mut mb = self.world.mailbox.lock();
        let slot = mb.entry((self.rank, to, tag)).or_default();
        slot.queue.push_back((t, arrival));
        self.world.wakes.p2p_msgs.fetch_add(1, Ordering::Relaxed);
        // Keyed wakeup: only the receiver parked on this exact (from, to,
        // tag) is woken, and only if one is actually parked. The flag is
        // read under the mailbox lock, so a receiver that has not parked
        // yet will instead find the message when it checks the queue.
        let parked = slot.parked_task.take();
        drop(mb);
        if let Some(receiver) = parked {
            self.tasks.wake(receiver);
        }
    }

    /// Starts a receive from `from` under `tag` as a resumable op (see
    /// [`RecvOp`]); advance it with [`RecvOp::poll`] or hand it to
    /// [`DeviceCtx::block_on`].
    pub fn start_recv(&self, from: DeviceId, tag: u64) -> RecvOp {
        assert_ne!(from, self.rank, "recv from self");
        RecvOp {
            from,
            tag,
            t_start: None,
            parked: false,
        }
    }

    /// Receives the next message from `from` under `tag`, blocking until it
    /// arrives. The receiver's clock advances to at least the message's
    /// arrival time; the traced byte count is what the sender charged.
    pub fn recv(&self, from: DeviceId, tag: u64) -> Tensor {
        self.block_on(self.start_recv(from, tag))
    }
}

/// An in-flight point-to-point receive: the resumable form of
/// [`DeviceCtx::recv`], created by [`DeviceCtx::start_recv`]. Also a
/// [`RankTask`] over its payload, so a whole rank program can be "just a
/// recv".
pub struct RecvOp {
    from: DeviceId,
    tag: u64,
    /// Receiver's clock at the first poll — the traced span start, latched
    /// so re-polls after `Pending` keep the original wait origin.
    t_start: Option<f64>,
    /// Set when the previous poll returned `Pending`: the next poll counts
    /// one observed mailbox wakeup.
    parked: bool,
}

impl RecvOp {
    /// Checks the mailbox once: `Ready(payload)` if a message is queued,
    /// else `Pending` on the `(from, to, tag)` key. The rank is registered
    /// for the sender's wake under the mailbox lock *before* this returns,
    /// so a send racing the park is latched, never lost.
    pub fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Tensor> {
        ctx.check_abort();
        if self.parked {
            self.parked = false;
            ctx.world.wakes.p2p_wakes.fetch_add(1, Ordering::Relaxed);
        }
        let t_start = *self.t_start.get_or_insert_with(|| ctx.clock());
        let key = (self.from, ctx.rank, self.tag);
        let mut mb = ctx.world.mailbox.lock();
        let slot = mb.entry(key).or_default();
        if let Some((t, arrival)) = slot.queue.pop_front() {
            slot.parked_task = None;
            // Drained slots are garbage-collected: per-step tags mean the
            // key space grows O(ranks * steps), and a map of dead entries
            // turns every probe into cold-cache bucket walks at 16k ranks.
            // Only the receiver itself can be registered on its own key, so
            // an empty queue with no parked receiver has no observers.
            if slot.queue.is_empty() {
                mb.remove(&key);
            }
            drop(mb);
            ctx.advance_to(arrival);
            ctx.trace_span(
                SpanKind::P2p {
                    peer: self.from,
                    tag: self.tag,
                    bytes: t.numel() as u64 * ELEMENT_BYTES,
                    is_send: false,
                },
                t_start,
            );
            return Poll::Ready(t);
        }
        self.parked = true;
        slot.parked_task = Some(ctx.rank);
        Poll::Pending(WakeKey::mail(self.from, self.tag))
    }
}

impl RankTask for RecvOp {
    type Output = Tensor;

    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Tensor> {
        RecvOp::poll(self, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_topology::systems::system_i;

    #[test]
    fn run_returns_rank_ordered_results() {
        let world = World::new(system_i());
        let ranks = world.run_on(8, |ctx| ctx.rank());
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn run_on_subset() {
        let world = World::new(system_i());
        let out = world.run_on(3, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn clock_advances_with_flops() {
        let world = World::new(system_i());
        let clocks = world.run_on(2, |ctx| {
            meter::record(1_000_000_000_000);
            ctx.clock()
        });
        // 1 TFLOP on a 19.5 TFLOPS A100 at 40% MFU: ~0.128s
        assert!(clocks[0] > 0.1 && clocks[0] < 0.2, "clock {}", clocks[0]);
        assert_eq!(clocks[0], clocks[1]);
    }

    #[test]
    fn p2p_moves_data_and_time() {
        let world = World::new(system_i());
        let out = world.run_on(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, Tensor::from_vec([3], vec![1., 2., 3.]));
                ctx.clock()
            } else {
                let t = ctx.recv(0, 0);
                assert_eq!(t.data(), &[1., 2., 3.]);
                ctx.clock()
            }
        });
        assert!(out[0] > 0.0);
        assert!(out[1] >= out[0]);
    }

    #[test]
    fn p2p_fifo_per_tag() {
        let world = World::new(system_i());
        world.run_on(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, Tensor::scalar(1.0));
                ctx.send(1, 7, Tensor::scalar(2.0));
                ctx.send(1, 9, Tensor::scalar(3.0));
            } else {
                // tag 9 can be drained before tag 7
                assert_eq!(ctx.recv(0, 9).item(), 3.0);
                assert_eq!(ctx.recv(0, 7).item(), 1.0);
                assert_eq!(ctx.recv(0, 7).item(), 2.0);
            }
        });
    }

    #[test]
    fn p2p_bills_four_bytes_per_element() {
        // a send charges 4 bytes/element in link time, stats bytes and the
        // wakeup-count denominator alike; the receive traces the same bytes
        let world = World::new(system_i());
        world.set_tracing(true);
        let clocks = world.run_on(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, Tensor::from_vec([4], vec![1.0; 4]));
            } else {
                assert_eq!(ctx.recv(0, 0).numel(), 4);
            }
            ctx.clock()
        });
        assert!((clocks[0] - system_i().p2p_time(0, 1, 16)).abs() < 1e-12);
        let stats = world.stats();
        assert_eq!(stats.bytes, 16);
        assert_eq!(stats.elements_of(crate::stats::OpKind::SendRecv), 4);
        assert_eq!(world.wake_stats().p2p_msgs, 1);
        let mut p2p: Vec<_> = world
            .trace()
            .into_iter()
            .filter_map(|s| match s.kind {
                SpanKind::P2p { bytes, is_send, .. } => Some((is_send, bytes)),
                _ => None,
            })
            .collect();
        p2p.sort();
        assert_eq!(p2p, [(false, 16), (true, 16)]);
    }

    #[test]
    #[should_panic(expected = "device thread panicked")]
    fn group_requires_membership() {
        let world = World::new(system_i());
        world.run_on(2, |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.group(&[1]);
            }
        });
    }

    #[test]
    fn pool_resolution_prefers_explicit_setting() {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool: 3 }));
        assert_eq!(world.backend(), WorldBackend::Stackless { pool: 3 });
        // pool 0 resolves to the host core count
        world.set_backend(Some(WorldBackend::Stackless { pool: 0 }));
        let WorldBackend::Stackless { pool } = world.backend();
        assert!(pool >= 1);
    }

    /// Minimal multi-resumption task: sends to the next rank, receives from
    /// the previous one, returns the payload — exercises Pending/wake on
    /// the mailbox key.
    struct RingTask {
        rank: usize,
        n: usize,
        sent: bool,
        recv: Option<RecvOp>,
    }

    impl RankTask for RingTask {
        type Output = f32;

        fn poll(&mut self, ctx: &DeviceCtx) -> Poll<f32> {
            if !self.sent {
                self.sent = true;
                let to = (self.rank + 1) % self.n;
                ctx.send(to, 9, Tensor::scalar(self.rank as f32));
            }
            let op = self.recv.get_or_insert_with(|| {
                let from = (self.rank + self.n - 1) % self.n;
                ctx.start_recv(from, 9)
            });
            match op.poll(ctx) {
                Poll::Ready(t) => Poll::Ready(t.item()),
                Poll::Pending(key) => Poll::Pending(key),
            }
        }
    }

    #[test]
    fn thread_gauge_is_pool_for_tasks_and_world_size_for_closures() {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool: 2 }));
        let out = world.run_tasks(4, |rank| RingTask {
            rank,
            n: 4,
            sent: false,
            recv: None,
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
        let threads = world.thread_stats();
        assert_eq!(threads.spawned, 2, "{threads:?}");
        assert!(threads.peak_live <= 2, "{threads:?}");
        world.reset_thread_stats();
        assert_eq!(world.thread_stats(), ThreadStats::default());
        // closures: one thread each and no worker besides
        world.run_on(6, |ctx| {
            ctx.world_group(6).all_reduce(ctx, Tensor::scalar(0.0))
        });
        let threads = world.thread_stats();
        assert_eq!((threads.spawned, threads.peak_live), (6, 6), "{threads:?}");
    }

    #[test]
    fn rollup_footer_reports_thread_gauge() {
        let world = World::new(system_i());
        world.set_tracing(true);
        world.run_on(2, |_| meter::record(1_000_000));
        assert!(
            world.rollup_table().contains("threads: spawned="),
            "{}",
            world.rollup_table()
        );
    }

    /// Peers park in an all-reduce that can never complete; the abort must
    /// requeue and unwind them — as heap tasks and as closures.
    struct BoomTask {
        op: Option<crate::group::CollectiveOp>,
    }

    impl RankTask for BoomTask {
        type Output = ();
        fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
            if ctx.rank() == 2 {
                panic!("rank two exploded");
            }
            let g = ctx.world_group(4);
            let op = self
                .op
                .get_or_insert_with(|| g.start_all_reduce(Tensor::scalar(0.0)));
            match g.poll_collective(ctx, op) {
                Poll::Ready(_) => Poll::Ready(()),
                Poll::Pending(key) => Poll::Pending(key),
            }
        }
    }

    #[test]
    fn panic_reports_rank_and_message_and_leaves_the_world_usable() {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool: 2 }));
        for closures in [false, true] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if closures {
                    world.run_on(4, |ctx| ctx.block_on(BoomTask { op: None }));
                } else {
                    world.run_tasks(4, |_| BoomTask { op: None });
                }
            }))
            .expect_err("run must propagate the panic");
            let msg = panic_message(err.as_ref());
            assert!(msg.contains("device thread panicked"), "{msg}");
            assert!(msg.contains("rank 2"), "{msg}");
            assert!(msg.contains("rank two exploded"), "{msg}");
            // the half-finished all-reduce is gone: the same group works again
            world.run_on(4, |ctx| {
                ctx.world_group(4).all_reduce(ctx, Tensor::scalar(0.0))
            });
        }
    }
}
