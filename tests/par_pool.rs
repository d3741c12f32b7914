//! Cross-crate bitwise serial-vs-pool parity for the ops the `tensor::par`
//! runtime accelerates outside the tensor crate: fused optimizer updates
//! and the rank-ordered reductions inside `comm::Group` collectives — the
//! latter also through bucketed gradient sync, whose copies into and out of
//! the buckets are serial.
//!
//! Same contract as `crates/tensor/tests/par_props.rs`: the pool may change
//! wall-clock, never bits. Budget/cutoff are process globals, so every test
//! holds [`budget_lock`] and restores defaults before releasing it.

use colossalai_autograd::optim::{adamw_update, sgd_momentum_update};
use colossalai_autograd::{Gelu, Layer, Linear, Sequential};
use colossalai_comm::World;
use colossalai_parallel::data_parallel::flatten_grads;
use colossalai_parallel::BucketedGradSync;
use colossalai_tensor::par::{self, DEFAULT_PAR_CUTOFF};
use colossalai_tensor::{init, pool, set_kernel_threads, Tensor};
use colossalai_topology::systems::system_i;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn restore_defaults() {
    set_kernel_threads(1);
    par::set_par_cutoff(DEFAULT_PAR_CUTOFF);
}

/// Big enough that MIN_CHUNK (4096) yields many chunks at every budget.
const N: usize = 64 * 1024;

fn rand_vec(seed: u64) -> Vec<f32> {
    init::uniform([N], -1.0, 1.0, &mut init::rng(seed))
        .data()
        .to_vec()
}

#[test]
fn sgd_momentum_is_bitwise_across_budgets() {
    let _g = budget_lock();
    restore_defaults();
    let p0 = rand_vec(1);
    let v0 = rand_vec(2);
    let grad = rand_vec(3);

    let run = |_| {
        let mut p = p0.clone();
        let mut v = v0.clone();
        for _ in 0..3 {
            sgd_momentum_update(&mut p, &mut v, &grad, 0.05, 0.9);
        }
        (p, v)
    };
    let serial = run(1usize);
    par::set_par_cutoff(1);
    for threads in [2usize, 3, 7] {
        set_kernel_threads(threads);
        assert_eq!(serial, run(threads), "sgd bits moved at budget {threads}");
    }
    restore_defaults();
}

#[test]
fn adamw_is_bitwise_across_budgets() {
    let _g = budget_lock();
    restore_defaults();
    let p0 = rand_vec(11);
    let grad = rand_vec(12);
    let m0 = rand_vec(13);
    let v0: Vec<f32> = rand_vec(14).iter().map(|x| x.abs()).collect();

    let run = |_| {
        let mut p = p0.clone();
        let mut m = m0.clone();
        let mut v = v0.clone();
        for t in 1..=3u64 {
            adamw_update(
                &mut p, &grad, &mut m, &mut v, t, 1e-3, 0.9, 0.999, 1e-8, 0.01,
            );
        }
        (p, m, v)
    };
    let serial = run(1usize);
    par::set_par_cutoff(1);
    for threads in [2usize, 3, 7] {
        set_kernel_threads(threads);
        assert_eq!(serial, run(threads), "adamw bits moved at budget {threads}");
    }
    restore_defaults();
}

fn make_model(seed: u64) -> Sequential {
    let mut rng = init::rng(seed);
    Sequential::new(vec![
        Box::new(Linear::from_rng("l1", 16, 32, true, &mut rng)),
        Box::new(Gelu::new()),
        Box::new(Linear::from_rng("l2", 32, 8, true, &mut rng)),
    ])
}

/// Runs a P-rank bucketed data-parallel gradient sync (blocking and
/// overlapped) and returns each rank's flattened synced gradients.
fn bucket_sync_grads(overlapped: bool) -> Vec<Vec<f32>> {
    let p = 4;
    let world = World::new(system_i());
    world.run_on(p, |ctx| {
        let g = ctx.world_group(p);
        let mut model = make_model(50);
        let mut rng = init::rng(60 + g.rank() as u64);
        let x = init::uniform([2, 16], -1.0, 1.0, &mut rng);
        let y = model.forward(&x);
        let dy = Tensor::ones(y.shape().clone());
        let mut sync = BucketedGradSync::new(&mut model, 64);
        if overlapped {
            let _ = sync.backward_overlapped(ctx, &g, &mut model, &dy);
        } else {
            let _ = model.backward(&dy);
            sync.sync_blocking(ctx, &g, &mut model);
        }
        flatten_grads(&mut model).data().to_vec()
    })
}

#[test]
fn bucket_flatten_and_writeback_are_bitwise_under_pool() {
    let _g = budget_lock();
    restore_defaults();
    let want_blocking = bucket_sync_grads(false);
    let want_overlap = bucket_sync_grads(true);
    assert_eq!(want_blocking, want_overlap, "overlap is bitwise-neutral");

    // the two runs above parked the working set: from here on the storage
    // pool must serve more than 90% of in-range requests from parked buffers
    pool::reset_stats();
    par::set_par_cutoff(1);
    for threads in [2usize, 4] {
        set_kernel_threads(threads);
        assert_eq!(
            want_blocking,
            bucket_sync_grads(false),
            "blocking sync bits moved at budget {threads}"
        );
        assert_eq!(
            want_overlap,
            bucket_sync_grads(true),
            "overlapped sync bits moved at budget {threads}"
        );
    }
    let stats = pool::stats();
    assert!(stats.hit_rate() > 0.9, "steady-state pool: {stats:?}");
    restore_defaults();
}

/// Each rank contributes a large distinct tensor; the rank-ordered chunked
/// reduction inside the collective must match the serial ascending-rank
/// fold bitwise, for both sum (all_reduce) and max (all_reduce_max).
fn collective_results() -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let p = 4;
    let world = World::new(system_i());
    let sums = world.run_on(p, |ctx| {
        let g = ctx.world_group(p);
        let t = init::uniform([N], -1.0, 1.0, &mut init::rng(70 + g.rank() as u64));
        g.all_reduce(ctx, t).data().to_vec()
    });
    let world = World::new(system_i());
    let maxes = world.run_on(p, |ctx| {
        let g = ctx.world_group(p);
        let t = init::uniform([N], -1.0, 1.0, &mut init::rng(80 + g.rank() as u64));
        g.all_reduce_max(ctx, t).data().to_vec()
    });
    (sums, maxes)
}

#[test]
fn group_reductions_are_bitwise_under_pool() {
    let _g = budget_lock();
    restore_defaults();
    let (want_sums, want_maxes) = collective_results();
    for r in 1..want_sums.len() {
        assert_eq!(want_sums[0], want_sums[r], "ranks agree serially");
    }

    par::set_par_cutoff(1);
    for threads in [2usize, 4] {
        set_kernel_threads(threads);
        let (sums, maxes) = collective_results();
        assert_eq!(want_sums, sums, "all_reduce bits moved at budget {threads}");
        assert_eq!(
            want_maxes, maxes,
            "all_reduce_max bits moved at budget {threads}"
        );
    }
    restore_defaults();
}

/// A rank that dies right after a pooled reduction aborts the run with its
/// peers parked in a barrier; the intra-op pool, the storage pool and the
/// world must all serve the next run as if nothing had happened.
#[test]
fn rank_panic_after_a_pooled_reduction_leaves_the_pools_usable() {
    let _g = budget_lock();
    restore_defaults();
    let (want_sums, _) = collective_results();
    par::set_par_cutoff(1);
    set_kernel_threads(4);
    let world = World::new(system_i());
    let run = |boom: bool| {
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = init::uniform([N], -1.0, 1.0, &mut init::rng(70 + g.rank() as u64));
            let sum = g.all_reduce(ctx, t);
            if boom && ctx.rank() == 1 {
                panic!("injected device failure");
            }
            g.barrier(ctx);
            sum.data().to_vec()
        })
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(true)))
        .expect_err("the injected failure must surface");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("rank 1: injected device failure"), "{msg}");
    assert_eq!(
        run(false),
        want_sums,
        "second run on the same world and pools"
    );
    restore_defaults();
}
