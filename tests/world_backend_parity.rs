//! Backend-parity contract of the rank execution backends: the scheduler
//! backend — at ANY pool size — the stackless task executor — at ANY pool
//! size — and the legacy thread-per-rank backend produce bitwise-identical
//! losses, byte-identical traffic stats and identical trace span sequences
//! for the same workload. Scheduling decides only *when* ranks execute,
//! never *what* they compute; and driving a rank as a resumable
//! [`colossalai_comm::RankTask`] instead of a blocking closure decides only
//! *how it waits*, never what it computes.

use colossalai_comm::workload::{run_hybrid, HybridSpec};
use colossalai_comm::{CommStats, HybridTask, Span, World, WorldBackend};
use colossalai_topology::systems::system_iii;

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
/// text is one-to-one with the bits.
const GOLDEN_LOSSES: u64 = 0x2938_4388_c344_7af5;
const GOLDEN_STATS: u64 = 0xbb7f_688e_c7b3_c8bb;
const GOLDEN_TRACE: u64 = 0xa3a4_4a27_7993_74fc;

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

#[test]
fn threads_backend_reproduces_golden_fingerprints() {
    let (losses, stats, trace) = run_under(WorldBackend::Threads);
    assert_eq!(
        fingerprint(&losses, &stats, &trace),
        (GOLDEN_LOSSES, GOLDEN_STATS, GOLDEN_TRACE)
    );
}

/// Runs the canonical 16-rank hybrid DP x TP x PP workload under `backend`
/// and returns (per-rank per-step losses, stats, trace).
fn run_under(backend: WorldBackend) -> (Vec<Vec<f32>>, CommStats, Vec<Span>) {
    let world = World::new(system_iii());
    world.set_backend(Some(backend));
    world.enable_tracing();
    let losses = world.run_on(SPEC.ranks(), |ctx| run_hybrid(ctx, &SPEC));
    (losses, world.stats(), world.trace())
}

#[test]
fn scheduler_pools_match_threads_backend_bitwise() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (ref_losses, ref_stats, ref_trace) = run_under(WorldBackend::Threads);
    assert!(
        ref_losses.iter().flatten().all(|l| l.is_finite()),
        "workload must produce real losses"
    );
    assert!(ref_stats.ops > 0 && !ref_trace.is_empty());
    for pool in [1, 2, cores] {
        let (losses, stats, trace) = run_under(WorldBackend::Sched { pool });
        assert_eq!(
            losses, ref_losses,
            "losses diverged from threads backend at pool={pool}"
        );
        assert_eq!(
            stats, ref_stats,
            "traffic stats diverged from threads backend at pool={pool}"
        );
        assert_eq!(
            trace, ref_trace,
            "trace spans diverged from threads backend at pool={pool}"
        );
    }
}

/// Runs the same workload as [`run_under`] but through the task path:
/// one [`HybridTask`] state machine per rank via `World::run_tasks`.
fn run_tasks_under(backend: WorldBackend) -> (Vec<Vec<f32>>, CommStats, Vec<Span>) {
    let world = World::new(system_iii());
    world.set_backend(Some(backend));
    world.enable_tracing();
    let losses = world.run_tasks(SPEC.ranks(), |_rank| HybridTask::new(SPEC));
    (losses, world.stats(), world.trace())
}

/// The tentpole parity claim: the stackless executor — ranks as resumable
/// heap tasks multiplexed on a fixed worker pool, zero parked rank threads
/// — reproduces the thread-per-rank backend bit for bit at every pool
/// size.
#[test]
fn stackless_pools_match_threads_backend_bitwise() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (ref_losses, ref_stats, ref_trace) = run_under(WorldBackend::Threads);
    for pool in [1, 2, cores] {
        let (losses, stats, trace) = run_tasks_under(WorldBackend::Stackless { pool });
        assert_eq!(
            losses, ref_losses,
            "losses diverged from threads backend at stackless pool={pool}"
        );
        assert_eq!(
            stats, ref_stats,
            "traffic stats diverged from threads backend at stackless pool={pool}"
        );
        assert_eq!(
            trace, ref_trace,
            "trace spans diverged from threads backend at stackless pool={pool}"
        );
    }
}

/// `run_tasks` and `run_on` are two drivers of the same protocol: a
/// [`HybridTask`] polled to completion by `block_on` on a rank thread
/// (threads/scheduler backends) must equal the blocking `run_hybrid`
/// closure bitwise.
#[test]
fn run_tasks_matches_run_on_under_thread_backends() {
    let (ref_losses, ref_stats, ref_trace) = run_under(WorldBackend::Threads);
    for backend in [WorldBackend::Threads, WorldBackend::Sched { pool: 2 }] {
        let (losses, stats, trace) = run_tasks_under(backend);
        assert_eq!(losses, ref_losses, "losses diverged under {backend:?}");
        assert_eq!(stats, ref_stats, "stats diverged under {backend:?}");
        assert_eq!(trace, ref_trace, "trace diverged under {backend:?}");
    }
}

#[test]
fn scheduler_handles_worlds_larger_than_its_pool() {
    // 64 ranks multiplexed onto 4 running slots: the scheduler must keep
    // making progress through rendezvous and p2p waits
    let spec = HybridSpec {
        dp: 4,
        tp: 4,
        pp: 4,
        elems: 64,
        steps: 2,
    };
    let world = World::new(colossalai_topology::systems::fat_tree_512());
    world.set_backend(Some(WorldBackend::Sched { pool: 4 }));
    let losses = world.run_on(spec.ranks(), |ctx| run_hybrid(ctx, &spec));
    assert_eq!(losses.len(), 64);
    assert!(losses.iter().flatten().all(|l| l.is_finite()));
}

#[test]
fn stackless_runs_worlds_far_larger_than_its_pool_on_one_thread() {
    // 256 ranks as heap tasks on a single worker slot: the executor must
    // make progress through every rendezvous and p2p wait without ever
    // spawning a second thread
    let spec = HybridSpec {
        dp: 4,
        tp: 8,
        pp: 8,
        elems: 64,
        steps: 2,
    };
    let world = World::new(colossalai_topology::systems::fat_tree_512());
    world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
    let losses = world.run_tasks(spec.ranks(), move |_rank| HybridTask::new(spec));
    assert_eq!(losses.len(), 256);
    assert!(losses.iter().flatten().all(|l| l.is_finite()));
    assert_eq!(
        world.thread_stats().peak_live,
        1,
        "a 1-slot pool must never have more than one live rank thread"
    );
}

/// When several stackless tasks panic, the run re-raises the lowest
/// panicking rank — deterministic regardless of worker interleaving,
/// matching the thread backends.
#[test]
fn stackless_reraises_lowest_rank_panic() {
    use colossalai_comm::{DeviceCtx, Poll, RankTask, RecvOp};

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
                    // parks forever on a message that never comes; only
                    // the abort wake can release it
                    let op = self.op.get_or_insert_with(|| ctx.start_recv(2, 99));
                    match op.poll(ctx) {
                        Poll::Ready(_) => unreachable!("no message is sent under tag 99"),
                        Poll::Pending(key) => Poll::Pending(key),
                    }
                }
            }
        }
    }

    for pool in [1, 2] {
        let world = World::new(system_iii());
        world.set_backend(Some(WorldBackend::Stackless { pool }));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            world.run_tasks(8, |_rank| Boom { op: None });
        }))
        .expect_err("a task panic must abort the run");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("device thread panicked"), "{msg}");
        assert!(
            msg.contains("rank 2") && msg.contains("rank two exploded"),
            "lowest panicking rank must win at pool={pool}: {msg}"
        );
    }
}

#[test]
fn scheduler_propagates_rank_panics_with_rank_and_message() {
    let world = World::new(system_iii());
    world.set_backend(Some(WorldBackend::Sched { pool: 2 }));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run_on(8, |ctx| {
            if ctx.rank() == 3 {
                panic!("rank three exploded");
            }
            // peers park in a barrier that can never complete; the abort
            // must wake and unwind them instead of hanging the run
            let g = ctx.world_group(8);
            g.barrier(ctx);
        });
    }))
    .expect_err("a rank panic must abort the run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("device thread panicked"), "{msg}");
    assert!(msg.contains("rank 3"), "{msg}");
    assert!(msg.contains("rank three exploded"), "{msg}");
}
