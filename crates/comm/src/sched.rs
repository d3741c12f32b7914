//! The rank executor: every `World::run_on` / `World::run_tasks` call runs
//! its `n` ranks on `pool` *running slots* through one [`TaskWaker`].
//!
//! A rank is **ready** (one entry in a heap ordered by `(virtual_time,
//! rank)`), **running** (it holds a slot), **blocked** (parked on a
//! [`crate::task::WakeKey`] with its slot handed on) or **done**. The
//! earliest ready rank gets the next free slot, so execution follows
//! virtual-time order like a discrete-event simulator's event loop.
//!
//! Rank bodies come in two forms that share every queue, state byte and
//! latch below:
//!
//! * a **heap** body is a [`crate::task::RankTask`] struct; the slots are
//!   `pool` worker threads that pop a rank, call its `poll`, and park or
//!   retire it. Peak OS threads is `pool`, whatever `n` is.
//! * a **stackful** body is a `run_on` closure; its resumable state is its
//!   own OS thread, so a slot is a token passed between the `n` rank
//!   threads. Each rank thread sleeps on its own [`Baton`], a pipe. A rank
//!   thread that blocks pops the next ready rank and writes one byte to
//!   *that* rank's pipe (or keeps running if it popped itself); a wake that
//!   finds a free slot writes to the woken rank's pipe. No worker sits in
//!   between, so one block/resume cycle costs one pipe write and read.
//!
//! # Why a pipe and not `Thread::unpark`
//!
//! A pipe write is a *synchronous* wake-up: the kernel may run the reader
//! on the writer's core, which the writer is about to leave for its own
//! read. A futex wake (`unpark`) let the woken rank queue behind the rank
//! running on the other core while the blocker's core idled until a
//! load-balance tick. On `tp_modes` (8 rank threads on 2 slots, 177
//! hand-offs per step) 7 % of hand-offs waited 200 µs – 5 ms from `unpark`
//! to running, 3.5 % after a pipe write, and the hand-off wait per step
//! fell from 8.4 to 4.7 ms (DESIGN.md §11.2).
//!
//! # Wake protocol
//!
//! There is one way to wait. An op that cannot proceed registers its rank
//! in the resource's parked list *under the resource lock* and returns
//! `Pending`; whoever changes the resource drains that list and calls
//! [`TaskWaker::wake`]. `wake` sets the rank's `notified` latch, then CASes
//! `BLOCKED -> QUEUED`; only the CAS winner queues the rank, so a rank
//! never has two heap entries. The slot holder that saw `Pending` stores
//! `BLOCKED` and *then* re-checks the latch: a wake that raced the park
//! (the rank was still `RUNNING`, so the CAS failed) is thereby converted
//! into an immediate requeue. Wakes may be spurious — ops re-check their
//! predicate on every poll — but are never lost.
//!
//! Lock order: resource (mailbox / group slot) → `ready`. The ready lock
//! is a leaf; no executor path acquires a resource lock.
//!
//! # Determinism
//!
//! Scheduling never touches data: collectives reduce in canonical rank
//! order behind a rendezvous barrier, mailboxes are keyed FIFO per
//! `(from, to, tag)`, and per-device clocks are pure functions of the work
//! charged. The executor only decides *when* each rank runs, so losses,
//! clocks, traffic stats and trace snapshots are bitwise identical for
//! both body forms and every pool size
//! (`tests/world_backend_parity.rs`).
//!
//! # Panics and deadlocks
//!
//! A panicking rank raises the abort flag and requeues every blocked rank;
//! each observes the flag at its next poll and unwinds with the silent
//! [`AbortRun`] marker. When the last slot goes idle with the heap empty
//! and ranks still live, no wake can ever come: the run is aborted the
//! same way and reported as a deadlock.

use crate::world::ThreadCounters;
use parking_lot::{Condvar, Mutex};
use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Unwind payload used to abort peer ranks after one rank panicked. Raised
/// with `resume_unwind` so the panic hook stays silent; the run recognizes
/// it and reports only the original panic.
pub(crate) struct AbortRun;

/// The rank is in the ready heap (exactly one entry), waiting for a slot.
const TASK_QUEUED: u8 = 0;
/// The rank holds a running slot.
const TASK_RUNNING: u8 = 1;
/// The rank returned `Pending` and sits parked on its wake key.
const TASK_BLOCKED: u8 = 2;
/// The rank completed (or unwound); it never runs again.
const TASK_DONE: u8 = 3;

/// A 4-ary min-heap of `(clock bits, rank)` ready keys. The ordering is
/// total, so the pop sequence is identical to any binary heap's — heap
/// shape cannot affect determinism — but the wider fan-out halves the tree
/// depth and packs all four children of a node into one cache line
/// (4 x 16 bytes). With 16k ranks queued the heap array outgrows L1/L2,
/// and sift-downs walk scattered child pairs in a binary heap; here each
/// level costs one line touch, which keeps per-activation dispatch flat
/// as worlds grow.
struct ReadyHeap {
    items: Vec<(u64, usize)>,
}

impl ReadyHeap {
    fn push(&mut self, key: (u64, usize)) {
        self.items.push(key);
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.items[parent] <= self.items[i] {
                break;
            }
            self.items.swap(i, parent);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.items.is_empty() {
            return None;
        }
        let min = self.items.swap_remove(0);
        let mut i = 0;
        loop {
            let first = i * 4 + 1;
            if first >= self.items.len() {
                break;
            }
            let mut smallest = first;
            for c in first + 1..(first + 4).min(self.items.len()) {
                if self.items[c] < self.items[smallest] {
                    smallest = c;
                }
            }
            if self.items[i] <= self.items[smallest] {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
        Some(min)
    }
}

/// A stackful rank's wake-up line: a pipe whose read end its own thread
/// sleeps on. Whoever hands the rank a slot writes one byte. A byte is
/// only a hint — the reader re-checks its state and sleeps again unless it
/// is `TASK_RUNNING` — so a byte that arrives after the rank already saw
/// its slot is a spurious wake at its next sleep, never a run without one.
pub(crate) struct Baton {
    rx: PipeReader,
    tx: PipeWriter,
}

impl Baton {
    /// One baton per rank of an `n`-rank `run_on`, opened before any rank
    /// thread exists. Panics, naming `n` and the OS error, if the process
    /// is out of file descriptors; the pipes opened so far are closed.
    pub(crate) fn open(n: usize) -> Box<[Baton]> {
        (0..n)
            .map(|_| std::io::pipe().map(|(rx, tx)| Baton { rx, tx }))
            .collect::<std::io::Result<_>>()
            .unwrap_or_else(|e| panic!("run_on({n}): cannot open the {n} rank wake-up pipes: {e}"))
    }

    /// Wakes the rank sleeping in [`Baton::sleep`].
    fn hand(&self) {
        (&self.tx)
            .write_all(&[1])
            .expect("write to a rank's wake-up pipe");
    }

    /// Sleeps until some byte arrives, taking every byte already there in
    /// the same read: stale bytes never pile up behind the next real one.
    fn sleep(&self) {
        match (&self.rx).read(&mut [0u8; 64]) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("read from a rank's wake-up pipe: {e}"),
        }
    }
}

/// What the ready lock guards.
struct Ready {
    /// Ready ranks, min-first by `(clock bits, rank)`.
    heap: ReadyHeap,
    /// Running slots nobody holds: workers waiting on `ready_cv` (heap
    /// bodies) or slots handed back by rank threads (stackful bodies).
    idle: usize,
}

pub(crate) struct TaskWaker {
    ready: Mutex<Ready>,
    /// Idle workers of a heap-body run park here.
    ready_cv: Condvar,
    /// Number of running slots.
    pool: usize,
    state: Vec<AtomicU8>,
    /// Latched wake: set before the requeue CAS, re-checked by the slot
    /// holder after parking, so wake-vs-park races resolve toward a
    /// (harmless) spurious poll instead of a lost wakeup.
    notified: Vec<AtomicBool>,
    /// Each rank's virtual clock — written by its `DeviceCtx`, read by
    /// wakers to key the heap entry. One contiguous array (8 adjacent
    /// ranks per cache line) rather than per-rank `Arc` cells: wakes and
    /// clock updates in big worlds then walk warm lines instead of 16k
    /// scattered allocations.
    clocks: Box<[AtomicU64]>,
    /// Rank `r`'s baton, handed when `r` gets a slot; `None` for heap
    /// bodies. Dropped, closing every pipe, with the run's last handle.
    batons: Option<Box<[Baton]>>,
    /// Raised once any rank panics or the run deadlocks; every poll entry
    /// checks it.
    pub(crate) abort: AtomicBool,
    /// Raised when every slot idled with ranks still live: no rank could
    /// ever be woken, and the run was aborted for it.
    pub(crate) deadlocked: AtomicBool,
    /// Ranks not yet `TASK_DONE`; workers exit when it hits zero.
    live: AtomicUsize,
    /// The world's OS-thread gauge; every sleep below is marked on it.
    gauge: Arc<ThreadCounters>,
}

impl TaskWaker {
    /// Creates the executor for `n` ranks on `pool` slots, all ranks ready
    /// at virtual time 0 in rank order: a stackful run when `batons` holds
    /// one [`Baton`] per rank, a heap-body run when it is `None`. The slots
    /// start held: by the workers about to call [`TaskWaker::next_ready`],
    /// or by the caller of [`TaskWaker::start_stackful`].
    pub(crate) fn new(
        n: usize,
        pool: usize,
        batons: Option<Box<[Baton]>>,
        gauge: Arc<ThreadCounters>,
    ) -> Arc<TaskWaker> {
        assert!(batons.as_ref().is_none_or(|b| b.len() == n));
        // keys (0, rank) in rank order already satisfy the heap property
        let heap = ReadyHeap {
            items: (0..n).map(|rank| (0u64, rank)).collect(),
        };
        Arc::new(TaskWaker {
            ready: Mutex::new(Ready { heap, idle: 0 }),
            ready_cv: Condvar::new(),
            pool,
            state: (0..n).map(|_| AtomicU8::new(TASK_QUEUED)).collect(),
            notified: (0..n).map(|_| AtomicBool::new(false)).collect(),
            clocks: (0..n).map(|_| AtomicU64::new(0.0f64.to_bits())).collect(),
            batons,
            abort: AtomicBool::new(false),
            deadlocked: AtomicBool::new(false),
            live: AtomicUsize::new(n),
            gauge,
        })
    }

    /// Current clock bits of `rank` (the heap key a wake would use).
    pub(crate) fn clock_bits(&self, rank: usize) -> u64 {
        self.clocks[rank].load(Ordering::Relaxed)
    }

    /// Sets `rank`'s clock bits — called only by `rank`'s own `DeviceCtx`.
    pub(crate) fn set_clock_bits(&self, rank: usize, bits: u64) {
        self.clocks[rank].store(bits, Ordering::Relaxed);
    }

    /// Wakes `rank`: requeues it if parked, or latches the notification if
    /// it is running (the slot holder converts the latch into a requeue
    /// when it tries to park). Safe to call with a resource lock held and
    /// for any rank state — including spuriously.
    pub(crate) fn wake(&self, rank: usize) {
        self.notified[rank].store(true, Ordering::SeqCst);
        if self.unblock(rank) {
            self.enqueue(&mut self.ready.lock(), rank);
        }
    }

    /// BLOCKED → QUEUED; the CAS winner owns the (single) heap entry.
    fn unblock(&self, rank: usize) -> bool {
        let won = self.state[rank]
            .compare_exchange(
                TASK_BLOCKED,
                TASK_QUEUED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if won {
            self.notified[rank].store(false, Ordering::SeqCst);
        }
        won
    }

    /// Queues `rank` and, if a slot is free, fills it: an idle worker is
    /// woken to pop for itself, or the earliest ready rank's baton is
    /// handed.
    fn enqueue(&self, q: &mut Ready, rank: usize) {
        q.heap.push((self.clock_bits(rank), rank));
        if q.idle == 0 {
            return;
        }
        match &self.batons {
            None => {
                self.ready_cv.notify_one();
            }
            Some(batons) => {
                let next = self.take_ready(q).expect("a rank was just queued");
                q.idle -= 1;
                batons[next].hand();
            }
        }
    }

    /// Pops the earliest ready rank and marks it running.
    fn take_ready(&self, q: &mut Ready) -> Option<usize> {
        let (_, rank) = q.heap.pop()?;
        self.state[rank].store(TASK_RUNNING, Ordering::SeqCst);
        Some(rank)
    }

    /// A slot found no ready rank. If it was the last one running while
    /// ranks are still live, nobody is left to wake them: flag the deadlock
    /// and abort, which requeues them to unwind.
    fn slot_idles(&self, q: &mut Ready) {
        q.idle += 1;
        if q.idle == self.pool
            && self.live.load(Ordering::SeqCst) > 0
            && !self.abort.load(Ordering::SeqCst)
        {
            self.deadlocked.store(true, Ordering::SeqCst);
            self.abort.store(true, Ordering::SeqCst);
            self.requeue_blocked(q);
        }
    }

    fn requeue_blocked(&self, q: &mut Ready) {
        for rank in 0..self.state.len() {
            if self.unblock(rank) {
                self.enqueue(q, rank);
            }
        }
    }

    /// A worker's slot takes the earliest ready rank, parking while none is
    /// ready. Returns `None` once every rank is done.
    pub(crate) fn next_ready(&self) -> Option<usize> {
        let mut q = self.ready.lock();
        loop {
            if let Some(rank) = self.take_ready(&mut q) {
                return Some(rank);
            }
            if self.live.load(Ordering::SeqCst) == 0 {
                return None;
            }
            self.slot_idles(&mut q);
            while q.heap.items.is_empty() && self.live.load(Ordering::SeqCst) > 0 {
                self.gauge.parked(|| self.ready_cv.wait(&mut q));
            }
            q.idle -= 1;
        }
    }

    /// The rank most likely to be dispatched next (the current heap
    /// minimum), so a worker can prefetch its cold task state while the
    /// current poll runs. Purely advisory: wakes and other workers may pop
    /// a different rank first, and a stale hint costs one wasted prefetch.
    pub(crate) fn next_hint(&self) -> Option<usize> {
        self.ready.lock().heap.items.first().map(|&(_, rank)| rank)
    }

    /// Parks `rank` after a `Pending` poll. The op registered itself under
    /// the resource lock before returning, so any wake since then either
    /// lost the requeue CAS (we were still RUNNING) and left `notified`
    /// set — converted into an immediate requeue here — or arrives later
    /// and wins the CAS itself. The rank's clock — its heap key — must
    /// already hold every FLOP it metered.
    pub(crate) fn park(&self, rank: usize) {
        let undrained = colossalai_tensor::meter::take();
        assert_eq!(undrained, 0, "rank {rank} yields with undrained FLOPs");
        self.state[rank].store(TASK_BLOCKED, Ordering::SeqCst);
        if (self.notified[rank].load(Ordering::SeqCst) || self.abort.load(Ordering::SeqCst))
            && self.unblock(rank)
        {
            self.enqueue(&mut self.ready.lock(), rank);
        }
    }

    /// Retires `rank` after `Ready` (or an unwind). A stackful rank passes
    /// its slot on; when the last rank retires, every idle worker is woken
    /// to exit.
    pub(crate) fn finish(&self, rank: usize) {
        self.state[rank].store(TASK_DONE, Ordering::SeqCst);
        let last = self.live.fetch_sub(1, Ordering::SeqCst) == 1;
        if self.batons.is_some() {
            self.pass_slot(None);
        } else if last {
            // lock-then-notify: serializes against a worker between its
            // empty-heap check and its wait
            drop(self.ready.lock());
            self.ready_cv.notify_all();
        }
    }

    /// Raises the abort flag and requeues every parked rank so its next
    /// poll observes the flag and unwinds.
    pub(crate) fn abort_all(&self) {
        self.abort.store(true, Ordering::SeqCst);
        self.requeue_blocked(&mut self.ready.lock());
    }

    // ---- stackful bodies ---------------------------------------------------

    /// Hands out the `pool` slots of a stackful run to the earliest ready
    /// ranks.
    pub(crate) fn start_stackful(&self) {
        for _ in 0..self.pool {
            self.pass_slot(None);
        }
    }

    /// Gives the caller's slot to the earliest ready rank — handing its
    /// baton unless it is `me`, who then simply keeps running — or idles
    /// the slot. The byte is written after the ready lock is dropped: the
    /// rank is already `TASK_RUNNING`, and a late byte is only a spurious
    /// wake.
    fn pass_slot(&self, me: Option<usize>) {
        let batons = self.batons.as_ref().expect("stackful run");
        let next = {
            let mut q = self.ready.lock();
            let next = self.take_ready(&mut q);
            if next.is_none() {
                self.slot_idles(&mut q);
            }
            next
        };
        if let Some(next) = next.filter(|&next| Some(next) != me) {
            batons[next].hand();
        }
    }

    /// Sleeps on `rank`'s baton until `rank` holds a slot.
    pub(crate) fn wait_dispatched(&self, rank: usize) {
        let baton = &self.batons.as_ref().expect("stackful run")[rank];
        while self.state[rank].load(Ordering::SeqCst) != TASK_RUNNING {
            self.gauge.parked(|| baton.sleep());
        }
    }

    /// The stackful form of returning `Pending`: parks `rank`, passes its
    /// slot on, and sleeps on the rank's own thread until it is dispatched
    /// again. Panics for a heap body, whose `poll` must return `Pending`
    /// instead of blocking its pool worker.
    pub(crate) fn block(&self, rank: usize) {
        assert!(
            self.batons.is_some(),
            "blocking wait inside a heap rank task: return Poll::Pending instead"
        );
        self.park(rank);
        self.pass_slot(Some(rank));
        self.wait_dispatched(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_waker_orders_by_time_then_rank() {
        let w = TaskWaker::new(3, 1, None, Arc::default());
        // all three seeded at t=0: pop in rank order
        assert_eq!(w.next_ready(), Some(0));
        assert_eq!(w.next_ready(), Some(1));
        assert_eq!(w.next_ready(), Some(2));
        // park 0 at t=2.0 and 1 at t=1.0; wake both: 1 runs first
        w.set_clock_bits(0, 2.0f64.to_bits());
        w.set_clock_bits(1, 1.0f64.to_bits());
        w.park(0);
        w.park(1);
        w.wake(0);
        w.wake(1);
        assert_eq!(w.next_ready(), Some(1), "t=1 beats t=2");
        assert_eq!(w.next_ready(), Some(0));
    }

    #[test]
    fn task_waker_latches_wake_during_poll() {
        // a wake that lands while the rank is RUNNING (mid-poll) must not
        // be lost: park() converts the latched notify into a requeue
        let w = TaskWaker::new(1, 1, None, Arc::default());
        assert_eq!(w.next_ready(), Some(0)); // now RUNNING
        w.wake(0); // CAS fails (not BLOCKED); latch stays set
        w.park(0); // Pending observed: latch -> immediate requeue
        assert_eq!(w.next_ready(), Some(0), "wake was latched");
    }

    #[test]
    fn task_waker_single_heap_entry_per_task() {
        let w = TaskWaker::new(1, 1, None, Arc::default());
        assert_eq!(w.next_ready(), Some(0));
        w.park(0);
        for _ in 0..5 {
            w.wake(0); // only the first CAS wins; the rest are no-ops
        }
        assert_eq!(w.next_ready(), Some(0));
        assert!(w.ready.lock().heap.items.is_empty(), "duplicate entries");
    }

    #[test]
    fn task_waker_workers_exit_when_all_done() {
        let w = TaskWaker::new(2, 1, None, Arc::default());
        assert_eq!(w.next_ready(), Some(0));
        w.finish(0);
        assert_eq!(w.next_ready(), Some(1));
        w.finish(1);
        assert_eq!(w.next_ready(), None);
        // an idle worker parked on the cv is woken by the last finish
        let w2 = TaskWaker::new(1, 2, None, Arc::default());
        assert_eq!(w2.next_ready(), Some(0));
        let w2c = Arc::clone(&w2);
        let h = std::thread::spawn(move || w2c.next_ready());
        w2.finish(0);
        assert_eq!(h.join().unwrap(), None);
        assert!(!w2.deadlocked.load(Ordering::SeqCst));
    }

    #[test]
    fn task_waker_abort_requeues_parked_tasks() {
        let w = TaskWaker::new(2, 2, None, Arc::default());
        assert_eq!(w.next_ready(), Some(0));
        assert_eq!(w.next_ready(), Some(1));
        w.park(0);
        w.park(1);
        w.abort_all();
        // both parked ranks come back so their next poll sees the flag
        assert_eq!(w.next_ready(), Some(0));
        assert_eq!(w.next_ready(), Some(1));
        // a rank parking *after* the abort is immediately requeued too
        w.park(0);
        assert_eq!(w.next_ready(), Some(0));
    }

    #[test]
    fn last_idle_slot_with_live_ranks_flags_deadlock() {
        let w = TaskWaker::new(2, 1, None, Arc::default());
        assert_eq!(w.next_ready(), Some(0));
        w.park(0);
        assert_eq!(w.next_ready(), Some(1));
        w.finish(1);
        // rank 0 is blocked, nothing is ready, the only slot idles: the
        // detector aborts, which hands rank 0 back to unwind
        assert_eq!(w.next_ready(), Some(0));
        assert!(w.deadlocked.load(Ordering::SeqCst) && w.abort.load(Ordering::SeqCst));
    }

    /// A stackful run over `n` ranks, all driven from the test's thread:
    /// the bytes handed to their batons are only read by tests that sleep.
    fn stackful(n: usize, pool: usize) -> Arc<TaskWaker> {
        let w = TaskWaker::new(n, pool, Some(Baton::open(n)), Arc::default());
        w.start_stackful();
        w
    }

    fn states(w: &TaskWaker) -> Vec<u8> {
        w.state.iter().map(|s| s.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn a_held_slot_keeps_the_deadlock_detector_quiet() {
        // rank 0 stays RUNNING (say, blocked on something outside the
        // executor) while rank 1 parks and idles its slot: not a deadlock
        // until rank 0 gives its slot up too
        let w = stackful(2, 2);
        w.park(1);
        w.pass_slot(Some(1));
        assert!(!w.deadlocked.load(Ordering::SeqCst));
        w.park(0);
        w.pass_slot(Some(0));
        assert!(w.deadlocked.load(Ordering::SeqCst));
        // ... which aborts: both ranks are dispatched again to unwind
        assert_eq!(states(&w), [TASK_RUNNING, TASK_RUNNING]);
    }

    #[test]
    fn stackful_slots_pass_directly_between_rank_threads() {
        // one slot over 3 ranks: start grants rank 0 only; blocking passes
        // the slot to rank 1 without touching rank 2
        let w = stackful(3, 1);
        assert_eq!(states(&w), [TASK_RUNNING, TASK_QUEUED, TASK_QUEUED]);
        w.park(0);
        w.pass_slot(Some(0));
        assert_eq!(states(&w), [TASK_BLOCKED, TASK_RUNNING, TASK_QUEUED]);
        // rank 1 wakes 0 (no free slot: it queues), then blocks itself and
        // pops rank 0 — earlier rank wins the tie at t=0 — for its slot
        w.wake(0);
        assert_eq!(states(&w)[0], TASK_QUEUED);
        w.park(1);
        w.pass_slot(Some(1));
        assert_eq!(states(&w), [TASK_RUNNING, TASK_BLOCKED, TASK_QUEUED]);
        w.finish(0); // retiring passes the slot on too
        assert_eq!(states(&w), [TASK_DONE, TASK_BLOCKED, TASK_RUNNING]);
        // a rank that pops itself keeps running
        w.park(2);
        w.wake(2);
        w.pass_slot(Some(2));
        assert_eq!(states(&w), [TASK_DONE, TASK_BLOCKED, TASK_RUNNING]);
    }

    #[test]
    fn a_passed_slot_resumes_exactly_the_next_rank_thread() {
        // two real rank threads on one slot, as `run_on` runs them; rank 1's
        // pipe holds a stray byte before its thread exists
        let w = TaskWaker::new(2, 1, Some(Baton::open(2)), Arc::default());
        w.batons.as_ref().unwrap()[1].hand();
        w.start_stackful();
        let ran = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (w, ran) = (&w, &ran);
            s.spawn(move || {
                w.wait_dispatched(0);
                ran.lock().push(0);
                // rank 1's thread wakes on the stray byte, re-checks its
                // state and sleeps again: were it to run without the slot,
                // this pause gives it the time to show
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert_eq!(states(w), [TASK_RUNNING, TASK_QUEUED]);
                // blocking hands the one slot to rank 1 and sleeps until
                // rank 1's wake and retirement hand it back
                w.block(0);
                ran.lock().push(0);
                w.finish(0);
            });
            s.spawn(move || {
                w.wait_dispatched(1);
                ran.lock().push(1);
                assert_eq!(states(w), [TASK_BLOCKED, TASK_RUNNING]);
                w.wake(0); // no free slot: rank 0 queues
                assert_eq!(states(w), [TASK_QUEUED, TASK_RUNNING]);
                w.finish(1); // retiring passes the slot to rank 0
            });
        });
        assert_eq!(*ran.lock(), [0, 1, 0]);
        assert_eq!(states(&w), [TASK_DONE, TASK_DONE]);
        assert!(!w.deadlocked.load(Ordering::SeqCst));
    }

    #[test]
    fn stackful_wake_fills_a_free_slot() {
        let w = stackful(2, 2);
        w.park(0);
        w.pass_slot(Some(0)); // nothing ready: the slot idles
        assert_eq!((states(&w)[0], w.ready.lock().idle), (TASK_BLOCKED, 1));
        w.wake(0); // rank 1 (still running) wakes 0 straight into that slot
        assert_eq!((states(&w)[0], w.ready.lock().idle), (TASK_RUNNING, 0));
    }
}
