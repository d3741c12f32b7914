//! Persistent, deterministic intra-op parallel runtime.
//!
//! Before this module, the only intra-op parallelism in the workspace was
//! the row-panel GEMM split — and it paid a fresh `std::thread::scope`
//! spawn (stack mmap + clone + join) on **every** threaded GEMM call, while
//! every element-wise, normalization and optimizer kernel ran serial. This
//! module replaces per-call spawning with one lazily-initialized,
//! process-global pool of parked worker threads that every kernel shares.
//!
//! # Determinism contract
//!
//! The repo-wide arithmetic-equivalence contract (serial == DP == TP ==
//! ZeRO, bitwise) extends to thread count: **results never depend on the
//! thread budget or on scheduling**. The pool guarantees this structurally:
//!
//! * [`partition`] derives chunk boundaries from `(len, budget, min_chunk)`
//!   only — never from timing, queue depth or worker count at runtime;
//! * each chunk is processed by exactly one executor running the exact
//!   serial code over that chunk, and chunks are disjoint;
//! * every parallelized kernel is element-independent (map/zip/optimizer)
//!   or row-independent (softmax/layernorm), or — for the rank-ordered
//!   collective reductions — keeps the per-element accumulation order
//!   fixed while splitting *across* elements.
//!
//! Which OS thread executes which chunk is decided by an atomic ticket and
//! *does* vary run to run; since chunks are disjoint and the per-chunk code
//! is pure, that never changes a single bit.
//!
//! # Scheduling
//!
//! Workers park on a condvar and wake when a job is published to the shared
//! slot; chunk indices are handed out by `fetch_add` so an early-finishing
//! worker simply grabs the next chunk. The *submitting* thread always
//! participates (it is one of the `budget` executors), so a job can finish
//! even if every worker is busy elsewhere. One job runs at a time: a
//! submitter that finds the pool busy — e.g. 16 simulated-device rank
//! threads all hitting a big kernel at once — falls back to running its
//! chunks serially inline, which is (a) bitwise-identical by the contract
//! above, (b) deadlock-free by construction (nobody ever blocks waiting for
//! a slot), and (c) the right call on an oversubscribed host anyway.
//! Nested submissions from inside a pool task hit the same path and run
//! serially.
//!
//! # Budget
//!
//! The executor budget is [`crate::kernel_threads`] (`compute.threads` /
//! `set_kernel_threads`, 0 clamping to 1). At budget 1 every entry point
//! degrades to the plain serial loop with no pool interaction at all — the
//! serial reference the bitwise tests compare against.
//!
//! Small tensors stay serial: callers gate on [`par_eligible`], whose
//! element cutoff is [`DEFAULT_PAR_CUTOFF`].

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, TryLockError};

/// Element cutoff below which parallelized element-wise kernels stay
/// serial: under ~32Ki elements the wake/join round-trip costs more than
/// the sweep itself.
pub const DEFAULT_PAR_CUTOFF: usize = 32 * 1024;

/// Default minimum chunk granularity (elements) for [`par_chunks_static`]
/// callers that have no natural unit of their own.
pub const MIN_CHUNK: usize = 4096;

/// Hard cap on spawned workers, a backstop against absurd budgets; the
/// effective helper count is `min(budget - 1, tasks - 1, MAX_WORKERS)`.
pub const MAX_WORKERS: usize = 64;

static PAR_CUTOFF: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_CUTOFF);

/// Test handle, not a tuning knob: lowers the [`par_eligible`] cutoff
/// (clamped to at least 1) so the bitwise serial-vs-parallel suites reach
/// the parallel path on small shapes. No config key lands here.
pub fn set_par_cutoff(n: usize) {
    PAR_CUTOFF.store(n.max(1), Ordering::Relaxed);
}

/// The element cutoff below which parallelized kernels stay serial:
/// [`DEFAULT_PAR_CUTOFF`] unless a test moved it with [`set_par_cutoff`].
pub fn par_cutoff() -> usize {
    PAR_CUTOFF.load(Ordering::Relaxed)
}

/// True when a kernel over `numel` elements should take its parallel path:
/// the thread budget exceeds 1 and the tensor is at least [`par_cutoff`]
/// elements. Callers keep their original serial
/// loop for the `false` case, so small tensors pay zero overhead.
#[inline]
pub fn par_eligible(numel: usize) -> bool {
    numel >= par_cutoff() && crate::kernel::kernel_threads() > 1
}

// -------------------------------------------------------------------------
// Stats (busy/idle counters surfaced as `par_util%` in the trace rollup)
// -------------------------------------------------------------------------

static JOBS: AtomicU64 = AtomicU64::new(0);
static SERIAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static CONTENDED_FALLBACKS: AtomicU64 = AtomicU64::new(0);
/// Busy counter: task units executed by pool workers.
static TASKS_ON_WORKERS: AtomicU64 = AtomicU64::new(0);
/// Total task units submitted (pooled + serial); `total - on_workers` is
/// the idle-pool share (units the submitting threads ran themselves).
static TASKS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's atomic busy/idle counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Jobs executed through the worker pool.
    pub jobs: u64,
    /// `run_tasks` calls that ran serially (budget 1 or a single task).
    pub serial_fallbacks: u64,
    /// `run_tasks` calls that ran serially because another thread held the
    /// pool (e.g. two rank threads hitting big kernels simultaneously).
    pub contended_fallbacks: u64,
    /// Always 0: a contended submitter never waits, it inlines. The field
    /// stays because readers of the snapshot name it.
    pub contended_waits: u64,
    /// Task units executed by pool workers (the busy counter).
    pub tasks_on_workers: u64,
    /// Task units submitted in total (pooled and serial paths).
    pub tasks_total: u64,
    /// Worker threads spawned so far (they park forever once idle).
    pub workers: usize,
}

impl ParStats {
    /// Pool utilization: the share of submitted task units that pool
    /// workers (rather than the submitting threads) executed. 0 when
    /// everything ran serially; approaches `(budget-1)/budget` when the
    /// pool absorbs every eligible kernel.
    pub fn util(&self) -> f64 {
        if self.tasks_total == 0 {
            0.0
        } else {
            self.tasks_on_workers as f64 / self.tasks_total as f64
        }
    }

    /// One-line human-readable summary (rollup-table footer).
    pub fn summary(&self) -> String {
        format!(
            "jobs={} serial={} contended={} worker_tasks={}/{} ({:.1}% util) workers={}",
            self.jobs,
            self.serial_fallbacks,
            self.contended_fallbacks,
            self.tasks_on_workers,
            self.tasks_total,
            self.util() * 100.0,
            self.workers
        )
    }
}

/// Current counter snapshot.
pub fn stats() -> ParStats {
    ParStats {
        jobs: JOBS.load(Ordering::Relaxed),
        serial_fallbacks: SERIAL_FALLBACKS.load(Ordering::Relaxed),
        contended_fallbacks: CONTENDED_FALLBACKS.load(Ordering::Relaxed),
        contended_waits: 0,
        tasks_on_workers: TASKS_ON_WORKERS.load(Ordering::Relaxed),
        tasks_total: TASKS_TOTAL.load(Ordering::Relaxed),
        workers: shared().workers.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters (benchmarks call this between phases).
pub fn reset_stats() {
    JOBS.store(0, Ordering::Relaxed);
    SERIAL_FALLBACKS.store(0, Ordering::Relaxed);
    CONTENDED_FALLBACKS.store(0, Ordering::Relaxed);
    TASKS_ON_WORKERS.store(0, Ordering::Relaxed);
    TASKS_TOTAL.store(0, Ordering::Relaxed);
}

// -------------------------------------------------------------------------
// The pool
// -------------------------------------------------------------------------

/// One submitted job: a borrowed task closure plus distribution state. The
/// `'static` on `f` is a lie told to the type system — see the SAFETY
/// comment in [`run_tasks`]; the submitter blocks until `pending` hits 0,
/// so the borrow outlives every call through it.
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    /// Next task index to hand out.
    next: AtomicUsize,
    /// Tasks not yet completed; the submitter waits for 0.
    pending: AtomicUsize,
    /// Set when a task panicked (the submitter re-raises).
    poisoned: AtomicBool,
    done_m: Mutex<()>,
    done_cv: Condvar,
}

struct Shared {
    /// `(generation, current job)`: bumping the generation under the lock
    /// is what wakes a parked worker exactly once per job.
    slot: Mutex<(u64, Option<Arc<Job>>)>,
    cv: Condvar,
    /// Spawned worker count (monotonic; workers never exit).
    workers: AtomicUsize,
    /// Serializes submitters; `try_lock` failure = serial fallback, so no
    /// thread ever blocks on pool admission (deadlock-free by construction).
    submit: Mutex<()>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        slot: Mutex::new((0, None)),
        cv: Condvar::new(),
        workers: AtomicUsize::new(0),
        submit: Mutex::new(()),
    })
}

/// Grabs and runs chunks of `job` until the ticket counter is exhausted.
fn execute(job: &Job, on_worker: bool) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.tasks {
            return;
        }
        // A panicking task must still decrement `pending`, or the submitter
        // would wait forever; the flag re-raises on the submitting thread.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.f)(i)));
        if r.is_err() {
            job.poisoned.store(true, Ordering::Relaxed);
        }
        if on_worker {
            TASKS_ON_WORKERS.fetch_add(1, Ordering::Relaxed);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = job.done_m.lock().unwrap();
            job.done_cv.notify_all();
        }
    }
}

fn worker_loop() {
    let sh = shared();
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut s = sh.slot.lock().unwrap();
            loop {
                if s.0 != seen_gen {
                    seen_gen = s.0;
                    if let Some(j) = s.1.clone() {
                        break j;
                    }
                }
                s = sh.cv.wait(s).unwrap();
            }
        };
        execute(&job, true);
    }
}

/// Lazily grows the pool to at least `n` parked workers (capped at
/// [`MAX_WORKERS`]; workers are never torn down — they park between jobs
/// and cost nothing while idle).
fn ensure_workers(n: usize) {
    let sh = shared();
    let want = n.min(MAX_WORKERS);
    while sh.workers.load(Ordering::Relaxed) < want {
        let id = sh.workers.fetch_add(1, Ordering::Relaxed);
        if id >= want {
            sh.workers.fetch_sub(1, Ordering::Relaxed);
            break;
        }
        std::thread::Builder::new()
            .name(format!("colossal-par-{id}"))
            .spawn(worker_loop)
            .expect("spawn pool worker");
    }
}

/// Runs `f(0), f(1), .., f(tasks - 1)`, each exactly once, across the
/// submitting thread plus up to `kernel_threads() - 1` pool workers;
/// returns only when every call has completed. Falls back to the plain
/// serial loop (same calls, ascending order) when the budget is 1, there
/// is at most one task, or another thread holds the pool — all
/// bitwise-equivalent because tasks touch disjoint data.
pub fn run_tasks(tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    TASKS_TOTAL.fetch_add(tasks as u64, Ordering::Relaxed);
    let budget = crate::kernel::kernel_threads();
    if tasks <= 1 || budget <= 1 {
        SERIAL_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    let sh = shared();
    let _guard = match sh.submit.try_lock() {
        Ok(g) => g,
        // another rank's job, or a nested submission from one of this
        // job's own tasks (the pool is wedged until the outer job drains):
        // never wait, run the chunks inline
        Err(TryLockError::WouldBlock) => {
            CONTENDED_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // a submitter that re-panics after a poisoned job unwinds with the
        // guard held; the () payload carries no state, so just keep going
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
    };
    ensure_workers((budget - 1).min(tasks - 1));
    // SAFETY: `f` is only ever called between the job publication below and
    // the `pending == 0` wait before this function returns; the submitter
    // holds the submit lock for that whole window and workers call `f` only
    // through tickets drawn before `next` exhausts. A worker may keep its
    // `Arc<Job>` (and thus this dangling reference) alive after we return,
    // but can never call it again — `next >= tasks` permanently.
    let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let job = Arc::new(Job {
        f: f_static,
        tasks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(tasks),
        poisoned: AtomicBool::new(false),
        done_m: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    {
        let mut s = sh.slot.lock().unwrap();
        s.0 += 1;
        s.1 = Some(job.clone());
    }
    sh.cv.notify_all();
    // the submitter is one of the executors — the job completes even if
    // every worker is wedged behind someone else's work
    execute(&job, false);
    {
        let mut g = job.done_m.lock().unwrap();
        while job.pending.load(Ordering::Acquire) != 0 {
            g = job.done_cv.wait(g).unwrap();
        }
    }
    {
        // drop the pool's handle so the borrowed closure is not reachable
        // from the slot after this call returns
        let mut s = sh.slot.lock().unwrap();
        s.1 = None;
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    if job.poisoned.load(Ordering::Relaxed) {
        panic!("a parallel task panicked (see stderr for the original panic)");
    }
}

// -------------------------------------------------------------------------
// Deterministic partitioning primitives
// -------------------------------------------------------------------------

/// The deterministic partition rule: splits `units` work units into
/// `(chunks, units_per_chunk)` where the chunk count depends only on
/// `(units, budget, min_units)` — never on timing. Chunk `i` covers units
/// `[i * per, min((i + 1) * per, units))`; the last chunk may be ragged.
pub fn partition(units: usize, budget: usize, min_units: usize) -> (usize, usize) {
    if units == 0 {
        return (0, 0);
    }
    let max_chunks = units.div_ceil(min_units.max(1)).max(1);
    let chunks = budget.clamp(1, max_chunks);
    let per = units.div_ceil(chunks);
    // renormalize so no chunk is empty (ceil twice can overshoot: 100 units
    // over 64 chunks gives per = 2, which only needs 50 chunks)
    (units.div_ceil(per), per)
}

/// A `Vec` of per-task items handed out once each across executors. Safety
/// rests on [`run_tasks`] calling each index exactly once.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: each slot is accessed by exactly one executor (the unique owner
// of that task index), so there is never a concurrent access to one cell.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(items: Vec<T>) -> Self {
        Slots(
            items
                .into_iter()
                .map(|t| UnsafeCell::new(Some(t)))
                .collect(),
        )
    }

    /// # Safety
    /// Each index may be taken at most once, from one thread.
    unsafe fn take(&self, i: usize) -> T {
        unsafe { (*self.0[i].get()).take().expect("slot taken twice") }
    }

    /// # Safety
    /// Each index may be stored at most once, from one thread.
    unsafe fn put(&self, i: usize, v: T) {
        unsafe { *self.0[i].get() = Some(v) };
    }
}

/// Runs `f(i, item_i)` for every item, distributing items across the pool.
/// Items typically carry `&mut` chunk borrows produced by a deterministic
/// split, which is what makes multi-slice kernels (optimizer updates over
/// param/moment/grad triples) expressible safely.
pub fn par_items<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let slots = Slots::new(items);
    run_tasks(n, &|i| {
        // SAFETY: run_tasks hands out each index exactly once.
        let item = unsafe { slots.take(i) };
        f(i, item);
    });
}

/// Like [`par_items`] but collects each call's return value, in item order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let slots = Slots::new(items);
    let out: Slots<R> = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
    run_tasks(n, &|i| {
        // SAFETY: run_tasks hands out each index exactly once, so both the
        // input take and the output store are uniquely owned by this call.
        let item = unsafe { slots.take(i) };
        let r = f(i, item);
        unsafe { out.put(i, r) };
    });
    out.0
        .into_iter()
        .map(|c| c.into_inner().expect("par_map task skipped"))
        .collect()
}

/// Splits `data` into contiguous chunks whose boundaries are multiples of
/// `unit` elements (rows of a row-wise kernel) and runs
/// `f(element_offset, chunk)` on each, possibly in parallel. The partition
/// follows [`partition`]`(len / unit, kernel_threads(), min_elems / unit)`,
/// so it depends only on the length and the budget — results are
/// bitwise-identical to the serial sweep for any unit-independent `f`.
pub fn par_chunks_unit<F>(data: &mut [f32], unit: usize, min_elems: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let unit = unit.max(1);
    let units = data.len() / unit;
    debug_assert_eq!(data.len() % unit, 0, "data not a whole number of units");
    let min_units = min_elems.div_ceil(unit).max(1);
    let (chunks, per) = partition(units, crate::kernel::kernel_threads(), min_units);
    if chunks <= 1 {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    let mut items: Vec<(usize, &mut [f32])> = Vec::with_capacity(chunks);
    let mut off = 0;
    let mut rest = data;
    while !rest.is_empty() {
        let take = (per * unit).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        items.push((off, head));
        rest = tail;
        off += take;
    }
    par_items(items, |_, (off, chunk)| f(off, chunk));
}

/// The core primitive of the runtime: splits `data` into contiguous chunks
/// of at least `min_chunk` elements — the partition a pure function of
/// `(len, budget)` as required by the determinism contract — and runs
/// `f(element_offset, chunk)` on each across the pool.
pub fn par_chunks_static<F>(data: &mut [f32], min_chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_chunks_unit(data, 1, min_chunk, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_pure_and_covers() {
        for units in [0usize, 1, 5, 100, 4096, 100_000] {
            for budget in [1usize, 2, 3, 7, 64] {
                for min_units in [1usize, 8, 1000] {
                    let (chunks, per) = partition(units, budget, min_units);
                    // identical inputs always give identical partitions
                    assert_eq!((chunks, per), partition(units, budget, min_units));
                    if units == 0 {
                        assert_eq!(chunks, 0);
                        continue;
                    }
                    assert!(chunks >= 1 && chunks <= budget.max(1));
                    assert!(per * chunks >= units, "chunks must cover the range");
                    assert!(per * (chunks - 1) < units, "no empty chunk");
                }
            }
        }
    }

    #[test]
    fn run_tasks_runs_each_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(items, |i, v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_sweep_touches_every_element_once() {
        let mut data = vec![0.0f32; 10_000];
        par_chunks_static(&mut data, 16, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (off + i) as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn nested_submission_inlines() {
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let inner: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        // a task that submits again finds the pool held by its own outer
        // job and must run inline, not block for it
        run_tasks(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                run_tasks(inner.len(), &|j| {
                    inner[j].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(inner.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unit_chunks_respect_row_boundaries() {
        let unit = 7;
        let mut data = vec![0.0f32; unit * 61];
        par_chunks_unit(&mut data, unit, 1, |off, chunk| {
            assert_eq!(off % unit, 0);
            assert_eq!(chunk.len() % unit, 0);
            for v in chunk.iter_mut() {
                *v = 1.0;
            }
        });
        assert!(data.iter().all(|&v| v == 1.0));
    }
}
