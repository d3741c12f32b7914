//! Parity contract of the rank executor: a rank written as a blocking
//! `run_on` closure and the same rank written as a resumable
//! [`colossalai_comm::RankTask`] — at ANY pool size — produce
//! bitwise-identical losses, byte-identical traffic stats and identical
//! trace span sequences, equal to the fingerprints frozen from the
//! thread-per-rank backend before it was deleted. Scheduling decides only
//! *when* ranks execute and the rank form only *what holds their state while
//! they wait*, never what they compute. The panic contract rides along: the
//! lowest panicking rank is re-raised and the world stays usable.

use colossalai_comm::workload::{run_hybrid, HybridSpec};
use colossalai_comm::{
    CommStats, DeviceCtx, HybridTask, Poll, RankTask, RecvOp, Span, World, WorldBackend,
};
use colossalai_topology::systems::{fat_tree_512, system_iii};
use std::sync::atomic::{AtomicUsize, Ordering};

const SPEC: HybridSpec = HybridSpec {
    dp: 2,
    tp: 4,
    pp: 2,
    elems: 512,
    steps: 3,
};

/// Golden fingerprints of [`SPEC`], frozen from the thread-per-rank backend
/// before it was deleted (PR 12): FNV-1a 64 over the loss bits and over the
/// `Debug` text of the stats breakdown (op kinds sorted) and of every trace
/// span. `Debug` prints an `f64` as its shortest round-trip decimal, so the
/// text is one-to-one with the bits. The trace golden was re-pinned twice:
/// when every collective started paying the cost model's launch term (the
/// span times moved, the span list with its times stripped did not), and
/// when the workload's FLOPs moved onto the compute meter (the times moved,
/// and each drain added a `gemm` compute span; without those the stripped
/// list is unchanged).
const GOLDEN_LOSSES: u64 = 0x2938_4388_c344_7af5;
const GOLDEN_STATS: u64 = 0xbb7f_688e_c7b3_c8bb;
const GOLDEN_TRACE: u64 = 0x8f5f_6647_f0e6_739a;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(losses, stats, trace)` fingerprints of one run.
fn fingerprint(losses: &[Vec<f32>], stats: &CommStats, trace: &[Span]) -> (u64, u64, u64) {
    let loss_bytes = losses
        .iter()
        .flatten()
        .flat_map(|l| l.to_bits().to_le_bytes());
    let mut by_op: Vec<_> = stats.by_op.iter().collect();
    by_op.sort_by_key(|(kind, _)| kind.name());
    let stats_text = format!("{} {} {} {by_op:?}", stats.ops, stats.elements, stats.bytes);
    (
        fnv1a(loss_bytes),
        fnv1a(stats_text.bytes()),
        fnv1a(format!("{trace:?}").bytes()),
    )
}

/// Runs the canonical 16-rank hybrid DP x TP x PP workload on `world`, as
/// heap tasks or as closures, and fingerprints what it left behind.
fn run_spec(world: &World, tasks: bool) -> (u64, u64, u64) {
    world.reset_stats();
    world.clear_trace();
    world.set_tracing(true);
    let losses = if tasks {
        world.run_tasks(SPEC.ranks(), |_rank| HybridTask::new(SPEC))
    } else {
        world.run_on(SPEC.ranks(), |ctx| run_hybrid(ctx, &SPEC))
    };
    assert!(losses.iter().flatten().all(|l| l.is_finite()));
    fingerprint(&losses, &world.stats(), &world.trace())
}

fn pooled(cluster: colossalai_topology::Cluster, pool: usize) -> World {
    let world = World::new(cluster);
    world.set_backend(Some(WorldBackend::Stackless { pool }));
    world
}

#[test]
fn both_rank_forms_reproduce_the_golden_fingerprints_at_every_pool() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    for pool in [1, 2, cores] {
        for tasks in [false, true] {
            assert_eq!(
                run_spec(&pooled(system_iii(), pool), tasks),
                (GOLDEN_LOSSES, GOLDEN_STATS, GOLDEN_TRACE),
                "(losses, stats, trace) diverged at pool={pool}, tasks={tasks}"
            );
        }
    }
}

#[test]
fn worlds_far_larger_than_the_pool_make_progress_on_one_slot() {
    // one running slot: every rendezvous and p2p wait must hand it on
    let spec = |dp, tp, pp| HybridSpec {
        dp,
        tp,
        pp,
        elems: 64,
        steps: 2,
    };
    // 64 closures: one thread each and no worker besides
    let world = pooled(fat_tree_512(), 1);
    let small = spec(4, 4, 4);
    let losses = world.run_on(small.ranks(), |ctx| run_hybrid(ctx, &small));
    assert_eq!(losses.len(), 64);
    assert!(losses.iter().flatten().all(|l| l.is_finite()));
    assert_eq!(world.thread_stats().peak_live, 64);
    // 256 heap tasks: never a second thread
    let world = pooled(fat_tree_512(), 1);
    let big = spec(4, 8, 8);
    let losses = world.run_tasks(big.ranks(), move |_rank| HybridTask::new(big));
    assert_eq!(losses.len(), 256);
    assert!(losses.iter().flatten().all(|l| l.is_finite()));
    assert_eq!(world.thread_stats().peak_live, 1);
}

/// Ranks 0 and 1 meet at a host barrier on their first poll, which needs
/// two workers alive at once: `peak_live` is then exactly the pool. A rank
/// waiting *outside* the executor keeps its slot, so this is also the case
/// the deadlock detector must leave alone.
#[test]
fn task_runs_keep_exactly_pool_threads_alive() {
    struct Meet<'a>(&'a std::sync::Barrier);
    impl RankTask for Meet<'_> {
        type Output = ();
        fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
            if ctx.rank() < 2 {
                self.0.wait();
            }
            Poll::Ready(())
        }
    }
    let barrier = std::sync::Barrier::new(2);
    let world = pooled(system_iii(), 2);
    world.run_tasks(16, |_rank| Meet(&barrier));
    let threads = world.thread_stats();
    assert_eq!((threads.spawned, threads.peak_live), (2, 2), "{threads:?}");
}

/// Ranks 2 and 5 panic; everyone else parks forever on a message that never
/// comes, so only the abort can release them.
struct Boom {
    op: Option<RecvOp>,
}

impl RankTask for Boom {
    type Output = ();
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
        match ctx.rank() {
            2 => panic!("rank two exploded"),
            5 => panic!("rank five exploded"),
            _ => {
                let op = self.op.get_or_insert_with(|| ctx.start_recv(2, 99));
                match op.poll(ctx) {
                    Poll::Ready(_) => unreachable!("no message is sent under tag 99"),
                    Poll::Pending(key) => Poll::Pending(key),
                }
            }
        }
    }
}

/// When several ranks panic, the run re-raises the lowest panicking rank —
/// deterministic regardless of interleaving — for both rank forms; and the
/// world (with the storage pool under it) then runs the canonical workload
/// to the golden fingerprints.
#[test]
fn lowest_rank_panic_is_reraised_and_the_world_stays_usable() {
    for pool in [1, 2] {
        for tasks in [false, true] {
            let world = pooled(system_iii(), pool);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if tasks {
                    world.run_tasks(8, |_rank| Boom { op: None });
                } else {
                    world.run_on(8, |ctx| ctx.block_on(Boom { op: None }));
                }
            }))
            .expect_err("a rank panic must abort the run");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("device thread panicked"), "{msg}");
            assert!(
                msg.contains("rank 2") && msg.contains("rank two exploded"),
                "lowest panicking rank must win at pool={pool}, tasks={tasks}: {msg}"
            );
            assert_eq!(
                run_spec(&world, tasks),
                (GOLDEN_LOSSES, GOLDEN_STATS, GOLDEN_TRACE),
                "second run on the aborted world, pool={pool}, tasks={tasks}"
            );
        }
    }
}

/// [`HybridTask`] that counts its polls into `polls[rank]` and, on rank
/// `kill.0`, panics at the start of poll number `kill.1` (counted from 1) —
/// i.e. at every yield point the rank has, one run at a time.
struct Killable<'a> {
    inner: HybridTask,
    polls: &'a [AtomicUsize],
    kill: Option<(usize, usize)>,
}

impl RankTask for Killable<'_> {
    type Output = Vec<f32>;
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Vec<f32>> {
        let rank = ctx.rank();
        let nth = self.polls[rank].fetch_add(1, Ordering::Relaxed) + 1;
        if self.kill == Some((rank, nth)) {
            panic!("injected kill at poll {nth}");
        }
        self.inner.poll(ctx)
    }
}

/// Systematic kill injection: for every rank `r` of the 16-rank [`SPEC`] and
/// every `k` up to the polls `r` makes in a clean run, kill `r` at its
/// `k`-th poll. The run must return (never hang), re-raise `r`'s panic by
/// rank, and leave the same `World` able to reproduce the goldens. A
/// watchdog turns a hang into a failure that names the injection.
#[test]
fn killing_any_rank_at_any_poll_aborts_cleanly_and_the_world_recovers() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let at = std::sync::Arc::new(std::sync::Mutex::new((0, 0, 0)));
    let progress = at.clone();
    let injector = std::thread::spawn(move || {
        for pool in [1, 2] {
            let world = pooled(system_iii(), pool);
            let polls: Vec<AtomicUsize> = (0..SPEC.ranks()).map(|_| AtomicUsize::new(0)).collect();
            let run = |kill| {
                polls.iter().for_each(|p| p.store(0, Ordering::Relaxed));
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    world.run_tasks(SPEC.ranks(), |_rank| Killable {
                        inner: HybridTask::new(SPEC),
                        polls: &polls,
                        kill,
                    })
                }))
            };
            run(None).expect("clean run");
            let clean: Vec<usize> = polls.iter().map(|p| p.load(Ordering::Relaxed)).collect();
            assert!(clean.iter().all(|&n| n > 1), "every rank yields: {clean:?}");
            for (r, &n) in clean.iter().enumerate() {
                for k in 1..=n {
                    *progress.lock().unwrap() = (pool, r, k);
                    match run(Some((r, k))) {
                        Err(err) => {
                            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                            assert!(
                                msg.contains(&format!("rank {r}: injected kill at poll {k}")),
                                "pool={pool} r={r} k={k}: {msg}"
                            );
                        }
                        // wake-ups may coalesce differently from the clean
                        // run: the kill is skipped only if r finished first
                        Ok(_) => assert!(
                            polls[r].load(Ordering::Relaxed) < k,
                            "pool={pool} r={r} k={k}: the kill fired but the run returned"
                        ),
                    }
                    assert_eq!(
                        run_spec(&world, true),
                        (GOLDEN_LOSSES, GOLDEN_STATS, GOLDEN_TRACE),
                        "world after killing rank {r} at poll {k}, pool={pool}"
                    );
                }
            }
        }
        done_tx.send(()).unwrap();
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("hung at (pool, rank, poll) = {:?}", at.lock().unwrap())
        }
        // finished, or dropped the sender on a failed assert: join re-raises it
        _ => injector
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e)),
    }
}

#[test]
fn closure_panic_reaches_peers_parked_in_a_rendezvous() {
    let world = pooled(system_iii(), 2);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run_on(8, |ctx| {
            if ctx.rank() == 3 {
                panic!("rank three exploded");
            }
            // peers park in an all-reduce that can never complete; the
            // abort must wake and unwind them instead of hanging the run
            let g = ctx.world_group(8);
            let _ = g.all_reduce(ctx, colossalai_tensor::Tensor::scalar(0.0));
        });
    }))
    .expect_err("a rank panic must abort the run");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("device thread panicked"), "{msg}");
    assert!(msg.contains("rank 3"), "{msg}");
    assert!(msg.contains("rank three exploded"), "{msg}");
}
