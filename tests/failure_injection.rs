//! Integration: failure injection — fp16 overflow recovery, OOM behaviour,
//! and misuse detection across the stack.

use colossalai::comm::{CollectiveOp, DeviceCtx, Poll, RankTask, RecvOp, World, WorldBackend};
use colossalai::core::{initialize, Config, OptimizerSpec};
use colossalai::memory::MemoryTracker;
use colossalai::models::TransformerConfig;
use colossalai::parallel::memcalc::{bert_step_bytes, SeqMode};
use colossalai::tensor::init;
use colossalai::tensor::ops::cross_entropy;
use colossalai::tensor::Tensor;
use colossalai::topology::systems::system_i;
use colossalai_autograd::{Gelu, Layer, Linear, Param, Sequential};

fn make_model(seed: u64) -> Box<dyn Layer> {
    let mut rng = init::rng(seed);
    Box::new(Sequential::new(vec![
        Box::new(Linear::from_rng("l1", 4, 8, true, &mut rng)),
        Box::new(Gelu::new()),
        Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
    ]))
}

#[test]
fn training_survives_injected_overflow() {
    // poison one backward with NaN grads mid-training; the loss scaler must
    // skip exactly that step, halve the scale, and training must recover
    let world = World::new(system_i());
    world.run_on(1, |ctx| {
        let cfg = Config::from_json(r#"{ "mixed_precision": true }"#).unwrap();
        let mut engine = initialize(
            ctx,
            &cfg,
            1,
            make_model(500),
            OptimizerSpec::AdamW {
                lr: 0.02,
                weight_decay: 0.0,
            },
        );
        let mut rng = init::rng(501);
        let x = init::uniform([6, 4], -1.0, 1.0, &mut rng);
        let t: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let mut losses = Vec::new();
        for step in 0..12 {
            engine.zero_grad();
            let logits = engine.forward(&x);
            let (loss, d) = cross_entropy(&logits, &t);
            let _ = engine.backward(&d);
            if step == 5 {
                // inject an overflow as if an fp16 kernel blew up
                engine.model_mut().visit_params(&mut |p: &mut Param| {
                    p.grad_mut().data_mut()[0] = f32::INFINITY;
                });
                assert!(!engine.step(), "poisoned step must be skipped");
            } else {
                assert!(engine.step(), "clean steps must apply");
                losses.push(loss);
            }
        }
        assert_eq!(engine.skipped_steps(), 1);
        assert_eq!(engine.steps(), 11);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "training must keep converging after the skip: {losses:?}"
        );
    });
}

#[test]
fn oom_search_matches_analytic_max_batch() {
    // drive the memory tracker with the analytic per-batch footprint and
    // find the OOM point empirically; it must agree with memcalc's search
    let cfg = TransformerConfig::bert_base();
    let capacity = 16u64 << 30;
    let p = 4;
    let analytic =
        colossalai::parallel::memcalc::max_batch(SeqMode::SequenceParallel, &cfg, 512, p, capacity);

    let mut tracker = MemoryTracker::new(capacity);
    let mut empirical = 0usize;
    for b in 1.. {
        let need = bert_step_bytes(SeqMode::SequenceParallel, &cfg, b, 512, p);
        match tracker.alloc(need) {
            Ok(()) => {
                tracker.free(need);
                empirical = b;
            }
            Err(oom) => {
                assert_eq!(oom.capacity, capacity);
                assert!(oom.requested > capacity);
                break;
            }
        }
    }
    assert_eq!(empirical, analytic, "tracker OOM point vs analytic search");
}

#[test]
fn dead_rank_failure_surfaces_to_the_caller() {
    // a rank that dies must abort the whole run loudly, not silently
    // produce partial results (peers parked in a collective are unwound by
    // the abort; a rank that merely never arrives is the deadlock below)
    let world = World::new(system_i());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run_on(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("injected device failure");
            }
            // rank 0 completes local-only work; the run must still fail
            Tensor::scalar(1.0).item()
        });
    }));
    assert!(result.is_err(), "the injected failure must surface");
}

#[test]
fn rank_panic_after_an_all_reduce_names_the_rank_and_the_world_recovers() {
    // rank 1 dies right after an all-reduce, with its peers parked in a
    // barrier: the failure names the rank, and the same world and storage
    // pool serve the next run bitwise
    let world = World::new(system_i());
    let run = |boom: bool| {
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let t = init::uniform([64 * 1024], -1.0, 1.0, &mut init::rng(70 + g.rank() as u64));
            let sum = g.all_reduce(ctx, t);
            if boom && ctx.rank() == 1 {
                panic!("injected device failure");
            }
            g.barrier(ctx);
            sum.data().to_vec()
        })
    };
    let want = run(false);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(true)))
        .expect_err("the injected failure must surface");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("rank 1: injected device failure"), "{msg}");
    assert_eq!(run(false), want, "second run on the same world and pool");
}

#[test]
fn scaler_rescues_scale_after_repeated_overflows() {
    let world = World::new(system_i());
    world.run_on(1, |ctx| {
        let cfg = Config::from_json(r#"{ "mixed_precision": true }"#).unwrap();
        let mut engine = initialize(
            ctx,
            &cfg,
            1,
            make_model(502),
            OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.0,
            },
        );
        // repeated poison: the scaler keeps halving instead of crashing
        for _ in 0..5 {
            engine.model_mut().visit_params(&mut |p: &mut Param| {
                p.accumulate_grad(&Tensor::full(p.value().shape().clone(), f32::NAN));
            });
            assert!(!engine.step());
        }
        assert_eq!(engine.skipped_steps(), 5);
        // a clean step still applies afterwards
        engine.model_mut().visit_params(&mut |p: &mut Param| {
            p.accumulate_grad(&Tensor::full(p.value().shape().clone(), 0.5));
        });
        assert!(engine.step());
    });
}

/// What the stuck ranks of [`stuck_world`] do, as a resumable task: rank 0
/// all-reduces over `[0,1]`, rank 1 skips it, rank 2 has nothing to do, and
/// rank 3 receives from rank 2, which never sends.
enum Stuck {
    Start,
    Reduce(colossalai::comm::Group, CollectiveOp),
    Recv(RecvOp),
}

impl RankTask for Stuck {
    type Output = ();
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
        loop {
            match std::mem::replace(self, Stuck::Start) {
                Stuck::Start => match ctx.rank() {
                    0 => {
                        let g = ctx.group(&[0, 1]);
                        let op = g.start_all_reduce(Tensor::scalar(1.0));
                        *self = Stuck::Reduce(g, op);
                    }
                    3 => *self = Stuck::Recv(ctx.start_recv(2, 7)),
                    _ => return Poll::Ready(()),
                },
                Stuck::Reduce(g, mut op) => match g.poll_collective(ctx, &mut op) {
                    Poll::Ready(_) => unreachable!("rank 1 never joins"),
                    Poll::Pending(key) => {
                        *self = Stuck::Reduce(g, op);
                        return Poll::Pending(key);
                    }
                },
                Stuck::Recv(mut op) => match op.poll(ctx) {
                    Poll::Ready(_) => unreachable!("rank 2 never sends"),
                    Poll::Pending(key) => {
                        *self = Stuck::Recv(op);
                        return Poll::Pending(key);
                    }
                },
            }
        }
    }
}

fn deadlock_message(n: usize, pool: usize, tasks: bool) -> String {
    let world = World::new(system_i());
    world.set_backend(Some(WorldBackend::Stackless { pool }));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if tasks {
            world.run_tasks(n, |_rank| Stuck::Start);
        } else {
            world.run_on(n, |ctx| match ctx.rank() {
                0 => {
                    ctx.group(&[0, 1]).all_reduce(ctx, Tensor::scalar(1.0));
                }
                3 => {
                    ctx.recv(2, 7);
                }
                _ => {}
            });
        }
    }))
    .expect_err("a run that cannot finish must panic, not hang");
    // the world is left usable
    assert_eq!(world.run_on(n, |ctx| ctx.rank()).len(), n);
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn rank_that_skips_a_collective_is_reported_not_waited_for() {
    for (pool, tasks) in [(1, false), (2, false), (1, true), (2, true)] {
        assert_eq!(
            deadlock_message(2, pool, tasks),
            "deadlock: rank 0 blocked on publish(group [0,1])",
            "pool={pool}, tasks={tasks}"
        );
    }
}

#[test]
fn recv_with_no_sender_is_reported_with_every_blocked_rank() {
    for (pool, tasks) in [(1, false), (4, false), (1, true), (4, true)] {
        assert_eq!(
            deadlock_message(4, pool, tasks),
            "deadlock: rank 0 blocked on publish(group [0,1]); \
             rank 3 blocked on recv(src=2, tag=7)",
            "pool={pool}, tasks={tasks}"
        );
    }
}

/// A rank waiting on something the executor cannot see keeps its running
/// slot, so the slots are never all idle and the detector must stay quiet
/// however long the wait — here until rank 1 has announced that it is about
/// to block on rank 0.
#[test]
fn rank_blocked_outside_the_executor_is_not_a_deadlock() {
    let world = World::new(system_i());
    world.set_backend(Some(WorldBackend::Stackless { pool: 2 }));
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let (tx, rx) = (std::sync::Mutex::new(tx), std::sync::Mutex::new(rx));
    let got = world.run_on(2, |ctx| {
        if ctx.rank() == 0 {
            rx.lock().unwrap().recv().unwrap();
            ctx.send(1, 1, Tensor::scalar(5.0));
            0.0
        } else {
            tx.lock().unwrap().send(()).unwrap();
            ctx.recv(0, 1).item()
        }
    });
    assert_eq!(got, vec![0.0, 5.0]);
}
