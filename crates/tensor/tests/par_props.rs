//! Bitwise serial-vs-pool identity for every `tensor::par`-parallelized op,
//! plus concurrency stress on the persistent worker pool.
//!
//! The determinism contract (see `par` module docs / DESIGN.md §10) says
//! results never depend on the thread budget. These tests pin that down the
//! blunt way: run each op serially (budget 1), then at budgets {2, 3, 7},
//! and require `==` on the raw f32 bits.
//!
//! The thread budget and element cutoff are process-global, so every test
//! that touches them serializes on [`budget_lock`] and restores the
//! defaults before releasing it.

use colossalai_tensor::ops::{
    add_bias_gelu, gelu_backward_cached, gelu_with_tanh, layernorm_fused, softmax_inplace,
};
use colossalai_tensor::par::{self, DEFAULT_PAR_CUTOFF};
use colossalai_tensor::{init, set_kernel_threads, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // a panicking holder doesn't invalidate the guarded globals: the next
    // test resets them anyway
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn restore_defaults() {
    set_kernel_threads(1);
    par::set_par_cutoff(DEFAULT_PAR_CUTOFF);
}

fn rand_t(shape: [usize; 2], seed: u64) -> Tensor {
    init::uniform(shape, -2.0, 2.0, &mut init::rng(seed))
}

/// Runs `op` serially, then under pool budgets {2, 3, 7} with the cutoff
/// floored so the tensors actually take the parallel path, asserting the
/// raw output bits never move.
fn assert_bitwise_across_budgets<R: PartialEq + std::fmt::Debug>(label: &str, op: impl Fn() -> R) {
    let _g = budget_lock();
    restore_defaults();
    let serial = op();
    par::set_par_cutoff(1);
    for threads in [2usize, 3, 7] {
        set_kernel_threads(threads);
        let pooled = op();
        assert_eq!(serial, pooled, "{label}: budget {threads} changed bits");
    }
    restore_defaults();
}

#[test]
fn map_is_bitwise_across_budgets() {
    let x = rand_t([64, 1024], 11);
    assert_bitwise_across_budgets("map", || {
        x.map(|v| (v * 1.3).sin() + 0.5 * v).data().to_vec()
    });
}

#[test]
fn map_inplace_is_bitwise_across_budgets() {
    let x = rand_t([64, 1024], 12);
    assert_bitwise_across_budgets("map_inplace", || {
        let mut y = x.clone();
        y.map_inplace(|v| v.tanh() * 0.9 + 0.1);
        y.data().to_vec()
    });
}

#[test]
fn zip_is_bitwise_across_budgets() {
    let a = rand_t([64, 1024], 13);
    let b = rand_t([64, 1024], 14);
    assert_bitwise_across_budgets("zip", || {
        a.zip(&b, |x, y| x * y + (x - y).exp()).data().to_vec()
    });
}

#[test]
fn cat_is_bitwise_across_budgets() {
    // dim-1 cat exercises the row-strided parallel path, dim-0 the
    // per-tensor segment path
    let a = rand_t([64, 300], 15);
    let b = rand_t([64, 200], 16);
    let c = rand_t([64, 524], 17);
    assert_bitwise_across_budgets("cat dim=1", || {
        Tensor::cat(&[a.clone(), b.clone(), c.clone()], 1)
            .data()
            .to_vec()
    });
    let d = rand_t([40, 1024], 18);
    let e = rand_t([24, 1024], 19);
    assert_bitwise_across_budgets("cat dim=0", || {
        Tensor::cat(&[d.clone(), e.clone()], 0).data().to_vec()
    });
}

#[test]
fn add_bias_gelu_and_backward_are_bitwise_across_budgets() {
    let x = rand_t([64, 1024], 21);
    let bias = init::uniform([1024], -1.0, 1.0, &mut init::rng(22));
    let dy = rand_t([64, 1024], 23);
    assert_bitwise_across_budgets("add_bias_gelu(+backward)", || {
        let (h, y, t) = add_bias_gelu(x.clone(), &bias);
        let dx = gelu_backward_cached(&h, &t, &dy);
        let (layer_y, layer_t) = gelu_with_tanh(&h);
        assert_eq!((y.data(), t.data()), (layer_y.data(), layer_t.data()));
        [h, y, t, dx].map(|v| v.data().to_vec())
    });
}

#[test]
fn softmax_is_bitwise_across_budgets() {
    let x = rand_t([128, 512], 31);
    assert_bitwise_across_budgets("softmax_inplace", || {
        let mut y = x.clone();
        softmax_inplace(&mut y);
        y.data().to_vec()
    });
}

#[test]
fn layernorm_is_bitwise_across_budgets() {
    let x = rand_t([96, 768], 41);
    let gamma = init::uniform([768], 0.5, 1.5, &mut init::rng(42));
    let beta = init::uniform([768], -0.5, 0.5, &mut init::rng(43));
    assert_bitwise_across_budgets("layernorm_fused", || {
        let (y, means, inv_stds) = layernorm_fused(&x, &gamma, &beta, 1e-5);
        (y.data().to_vec(), means, inv_stds)
    });
}

#[test]
fn ragged_shapes_are_bitwise_across_budgets() {
    // odd extents so chunk boundaries land mid-row-group and the last
    // chunk is ragged
    let x = rand_t([37, 173], 51);
    assert_bitwise_across_budgets("ragged map+softmax", || {
        let m = x.map(|v| v * v - 0.25);
        let mut s = x.clone();
        softmax_inplace(&mut s);
        (m.data().to_vec(), s.data().to_vec())
    });
}

#[test]
fn budget_zero_clamps_to_one_including_pool() {
    let _g = budget_lock();
    restore_defaults();
    set_kernel_threads(0); // documented clamp: 0 means serial, never "no work"
    assert_eq!(colossalai_tensor::kernel_threads(), 1);
    par::set_par_cutoff(1);
    let before = par::stats();
    let x = rand_t([64, 1024], 61);
    let y = x.map(|v| v + 1.0);
    assert_eq!(y.data()[0], x.data()[0] + 1.0);
    // a direct submission at budget 1 takes the counted serial fallback
    par::run_tasks(4, &|_| {});
    let after = par::stats();
    // budget 1 short-circuits to the serial path: no pool jobs ran
    assert_eq!(
        before.jobs, after.jobs,
        "budget 1 must not submit pool jobs"
    );
    assert!(after.serial_fallbacks > before.serial_fallbacks);
    restore_defaults();
}

#[test]
fn par_cutoff_zero_clamps_to_one() {
    let _g = budget_lock();
    restore_defaults();
    par::set_par_cutoff(0);
    assert_eq!(par::par_cutoff(), 1, "cutoff 0 clamps like every knob");
    restore_defaults();
}

/// 16 simulated "device" rank threads hammer the pool concurrently, each on
/// its own data. Proves (a) no deadlock — contended submitters fall back to
/// inline serial execution rather than queueing, (b) no cross-rank result
/// coupling — every rank's outputs match the serial references computed
/// up front.
#[test]
fn sixteen_rank_threads_hammer_the_pool() {
    const RANKS: usize = 16;
    const ITERS: usize = 8;
    let _g = budget_lock();
    restore_defaults();

    let inputs: Vec<Tensor> = (0..RANKS)
        .map(|r| rand_t([48, 1024], 100 + r as u64))
        .collect();
    // serial references, one per rank, before any parallelism is enabled
    let expected: Vec<(Vec<f32>, Vec<f32>)> = inputs
        .iter()
        .map(|x| {
            let m = x.map(|v| (v * 0.7).cos() + v);
            let mut s = x.clone();
            softmax_inplace(&mut s);
            (m.data().to_vec(), s.data().to_vec())
        })
        .collect();

    set_kernel_threads(4);
    par::set_par_cutoff(1);
    std::thread::scope(|scope| {
        for (x, want) in inputs.iter().zip(&expected) {
            scope.spawn(move || {
                for _ in 0..ITERS {
                    let m = x.map(|v| (v * 0.7).cos() + v);
                    let mut s = x.clone();
                    softmax_inplace(&mut s);
                    assert_eq!(m.data(), &want.0[..], "cross-rank coupling in map");
                    assert_eq!(s.data(), &want.1[..], "cross-rank coupling in softmax");
                }
            });
        }
    });
    restore_defaults();
}

/// A panic inside a pool task propagates to the submitter instead of
/// wedging the pool, and the pool keeps working afterwards.
#[test]
fn pool_survives_a_panicking_task() {
    let _g = budget_lock();
    restore_defaults();
    set_kernel_threads(4);
    par::set_par_cutoff(1);
    let boom = std::panic::catch_unwind(|| {
        par::run_tasks(8, &|i| {
            if i == 3 {
                panic!("task boom");
            }
        });
    });
    assert!(boom.is_err(), "task panic must reach the submitter");
    // the pool still runs jobs after the poisoned one
    let x = rand_t([64, 1024], 81);
    let serial = {
        set_kernel_threads(1);
        let s = x.map(|v| v - 2.0);
        set_kernel_threads(4);
        s
    };
    assert_eq!(serial.data(), x.map(|v| v - 2.0).data());
    restore_defaults();
}
