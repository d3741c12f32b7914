//! Integration: failure injection — fp16 overflow recovery, OOM behaviour,
//! and misuse detection across the stack.

use colossalai::comm::Op::ReduceScatter;
use colossalai::comm::{CollectiveOp, DeviceCtx, Poll, RankTask, RecvOp, World, WorldBackend};
use colossalai::core::{build_gpt, initialize, Config, OptimizerSpec};
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
fn an_overflow_in_one_tensor_parallel_shard_skips_the_step_on_every_rank() {
    // on 2 ranks of 1D tensor parallelism, rank 1 alone finds +inf in its
    // shard of a weight gradient. Both must skip and halve the scale, with
    // and without clipping: a rank that judged only its own shard skipped
    // alone, and its peer stepped (the replicas silently diverged) or
    // blocked in the clip all-reduce the skipper never joined
    let cfg = TransformerConfig {
        layers: 1,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 8,
        max_seq: 4,
    };
    for clip in ["0", "1.0"] {
        let config = Config::from_json(&format!(
            r#"{{ "mixed_precision": true, "grad_clip": {clip},
                 "parallel": {{ "tensor": {{ "size": 2, "mode": "1d" }} }} }}"#
        ))
        .unwrap();
        let world = World::new(system_i());
        let out = world.run_on(2, |ctx| {
            let model = build_gpt(ctx, &config, 2, &cfg, 503);
            let spec = OptimizerSpec::AdamW {
                lr: 0.01,
                weight_decay: 0.0,
            };
            let mut engine = initialize(ctx, &config, 2, model, spec);
            let tokens = Tensor::from_vec([2, 4], (0..8).map(|t| t as f32).collect());
            engine.zero_grad();
            let logits = engine.forward(&tokens);
            let _ = engine.backward(&logits);
            if ctx.rank() == 1 {
                engine.model_mut().visit_params(&mut |p: &mut Param| {
                    if p.name().ends_with("attn.q.weight") {
                        p.grad_mut().data_mut()[0] = f32::INFINITY;
                    }
                });
            }
            (engine.step(), engine.skipped_steps(), engine.loss_scale())
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(
                *got,
                (false, 1, Some(32768.0)),
                "grad_clip {clip}, rank {rank}"
            );
        }
    }
}

#[test]
fn oom_search_matches_analytic_max_batch() {
    // scan batch sizes up to the first per-batch footprint that exceeds the
    // device; the last one that fits must agree with memcalc's search
    let cfg = TransformerConfig::bert_base();
    let capacity = 16u64 << 30;
    let p = 4;
    let analytic =
        colossalai::parallel::memcalc::max_batch(SeqMode::SequenceParallel, &cfg, 512, p, capacity);

    let empirical = (1..)
        .take_while(|&b| bert_step_bytes(SeqMode::SequenceParallel, &cfg, b, 512, p) <= capacity)
        .last()
        .unwrap_or(0);
    assert!(empirical > 0, "one sequence fits a 16 GiB device");
    assert_eq!(empirical, analytic, "scanned OOM point vs analytic search");
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
    // second, scalar one: the failure names the rank, and the same world and storage
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
            let _ = g.all_reduce(ctx, Tensor::scalar(0.0));
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

/// Rank `rank`'s input to the reduce-scatters below.
fn scatter_input(rank: usize) -> Tensor {
    init::uniform([2 * 4096], -1.0, 1.0, &mut init::rng(90 + rank as u64))
}

/// One reduce-scatter over the 2-rank world group, in which rank 0 dies
/// when it is resumed after the publish, before summing its chunk. On one
/// slot the ranks run in rank order, so rank 0 parks first and rank 1, the
/// last arrival, publishes, sums its own chunk and parks on the combine
/// edge: rank 0 dies while its peer waits there. On two slots rank 0 may
/// arrive last and finish in one poll; it dies then instead.
struct DiesBeforeItsChunk {
    op: Option<(colossalai::comm::Group, CollectiveOp)>,
}

impl RankTask for DiesBeforeItsChunk {
    type Output = Tensor;
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Tensor> {
        let resumed = self.op.is_some();
        if resumed && ctx.rank() == 0 {
            panic!("injected failure in a reduce-scatter");
        }
        let (g, op) = self.op.get_or_insert_with(|| {
            let g = ctx.world_group(2);
            let op = g.start(ReduceScatter { dim: 0 }.into(), scatter_input(g.rank()));
            (g, op)
        });
        let polled = g.poll_collective(ctx, op);
        if ctx.rank() == 0 && matches!(polled, Poll::Ready(_)) {
            panic!("injected failure in a reduce-scatter");
        }
        polled
    }
}

#[test]
fn a_rank_that_dies_while_its_peer_waits_on_the_combine_edge_aborts_the_run() {
    for (pool, tasks) in [(1, false), (2, false), (1, true), (2, true)] {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool }));
        let task = |_rank| DiesBeforeItsChunk { op: None };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tasks {
                world.run_tasks(2, task);
            } else {
                world.run_on(2, |ctx| ctx.block_on(task(ctx.rank())));
            }
        }))
        .expect_err("the injected failure must surface, not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(
            msg, "device thread panicked: rank 0: injected failure in a reduce-scatter",
            "pool={pool}, tasks={tasks}"
        );
        // the world is left usable: a clean reduce-scatter completes
        let out = world.run_on(2, |ctx| {
            let g = ctx.world_group(2);
            g.reduce_scatter(ctx, scatter_input(g.rank()), 0)
        });
        let sum = &scatter_input(0) + &scatter_input(1);
        assert_eq!(out, sum.chunk(0, 2), "pool={pool}, tasks={tasks}");
    }
}

/// Ranks 0 and 1 of a 3-rank world reduce-scatter over all three; rank 2
/// skips it.
struct SkipsTheScatter(Option<CollectiveOp>);

impl RankTask for SkipsTheScatter {
    type Output = ();
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
        if ctx.rank() == 2 {
            return Poll::Ready(());
        }
        let g = ctx.world_group(3);
        let scatter = || g.start(ReduceScatter { dim: 0 }.into(), Tensor::zeros([6]));
        match g.poll_collective(ctx, self.0.get_or_insert_with(scatter)) {
            Poll::Ready(_) => Poll::Ready(()),
            Poll::Pending(key) => Poll::Pending(key),
        }
    }
}

#[test]
fn a_rank_that_never_reaches_a_reduce_scatter_is_reported_with_its_group() {
    // ranks 0 and 1 wait on the publish that rank 2's input would trigger
    for (pool, tasks) in [(1, false), (3, false), (1, true), (3, true)] {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool }));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tasks {
                world.run_tasks(3, |_rank| SkipsTheScatter(None));
            } else {
                world.run_on(3, |ctx| ctx.block_on(SkipsTheScatter(None)));
            }
        }))
        .expect_err("a run that cannot finish must panic, not hang");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(
            msg,
            "deadlock: rank 0 blocked on publish(group [0,1,2]); \
             rank 1 blocked on publish(group [0,1,2])",
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
