//! Integration: the unified virtual-clock tracer across the whole stack.
//!
//! A 4-rank hybrid-parallel step (2-way data x 2-way tensor parallelism with
//! pipeline-style point-to-point traffic) must leave every rank with compute,
//! collective AND p2p spans; per-rank leaf spans must be non-overlapping and
//! monotonic; and `World::trace_json()` must be valid Chrome-trace JSON.
//! Tracing observes the clock and never moves it: a traced GPT step ends on
//! the same clock bits as an untraced one. No rank's main track holds more
//! busy time than the makespan, so the rollup's idle clamp never hides a
//! double-counted span.

use colossalai::autograd::{Layer, Linear, Sequential};
use colossalai::comm::{DeviceCtx, Span, SpanKind, Track, World, WorldBackend};
use colossalai::core::{initialize, Config, OptimizerSpec};
use colossalai::models::{Gpt, SyntheticText, TransformerConfig};
use colossalai::parallel::pipeline::{PipelineStage, Schedule};
use colossalai::parallel::GradReducer;
use colossalai::tensor::ops::cross_entropy;
use colossalai::tensor::{init, matmul, Tensor};
use colossalai::topology::systems::{system_i, system_iii};
use serde_json::Value;

const P: usize = 4;

/// One hybrid step: a local matmul (metered compute), TP all-gather + DP
/// all-reduce collectives, and a ring exchange of activations over
/// send/recv.
fn hybrid_step(ctx: &DeviceCtx) {
    let rank = ctx.rank();
    let mut rng = init::rng(17 + rank as u64);
    let x = init::uniform([8, 16], -1.0, 1.0, &mut rng);
    let w = init::uniform([16, 8], -1.0, 1.0, &mut rng);
    let act = matmul(&x, &w);

    // tensor-parallel axis: ranks {0,1} and {2,3}
    let tp = ctx.group(&[rank / 2 * 2, rank / 2 * 2 + 1]);
    let gathered = tp.all_gather_cat(ctx, act, 0);
    assert_eq!(gathered.dims(), &[16, 8]);

    // pipeline-style ring: rank r sends to r+1, receives from r-1
    let next = (rank + 1) % P;
    let prev = (rank + P - 1) % P;
    ctx.send(next, 7, Tensor::scalar(rank as f32));
    let got = ctx.recv(prev, 7);
    assert_eq!(got.item(), prev as f32);

    // data-parallel axis: ranks {0,2} and {1,3} average gradients
    let dp = ctx.group(&[rank % 2, rank % 2 + 2]);
    let _ = dp.all_reduce(ctx, Tensor::ones([4, 4]));
}

fn leaf_spans_of(spans: &[Span], rank: usize) -> Vec<Span> {
    let mut out: Vec<Span> = spans
        .iter()
        .filter(|s| s.track == Track::Device(rank) && !s.kind.is_phase())
        .cloned()
        .collect();
    out.sort_by(|a, b| a.start.total_cmp(&b.start));
    out
}

fn run_traced_step() -> World {
    let world = World::new(system_i());
    world.set_tracing(true);
    world.run_on(P, hybrid_step);
    world
}

#[test]
fn every_rank_records_compute_collective_and_p2p_spans() {
    let world = run_traced_step();
    let spans = world.trace();
    for rank in 0..P {
        let mine = leaf_spans_of(&spans, rank);
        let has = |pred: &dyn Fn(&SpanKind) -> bool| mine.iter().any(|s| pred(&s.kind));
        assert!(
            has(&|k| matches!(k, SpanKind::Compute { .. })),
            "rank {rank} has no compute span"
        );
        assert!(
            has(&|k| matches!(k, SpanKind::Collective { .. })),
            "rank {rank} has no collective span"
        );
        assert!(
            has(&|k| matches!(k, SpanKind::P2p { .. })),
            "rank {rank} has no p2p span"
        );
    }
}

#[test]
fn per_rank_leaf_spans_are_monotonic_and_non_overlapping() {
    let world = run_traced_step();
    let spans = world.trace();
    for rank in 0..P {
        let mine = leaf_spans_of(&spans, rank);
        assert!(!mine.is_empty());
        for s in &mine {
            assert!(
                s.end >= s.start,
                "rank {rank}: span ends before it starts: {s:?}"
            );
        }
        for w in mine.windows(2) {
            assert!(
                w[1].start >= w[0].end - 1e-12,
                "rank {rank}: overlapping leaf spans {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn trace_json_is_valid_chrome_trace() {
    let world = run_traced_step();
    let json = world.trace_json();
    let v: Value = serde_json::from_str(&json).expect("trace_json must parse as JSON");
    let Some(Value::Seq(events)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());
    let num = |e: &Value, key: &str| match e.get(key) {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(n)) => *n as f64,
        other => panic!("{key} must be a non-negative number, got {other:?}"),
    };
    let is = |e: &Value, key: &str, want: &Value| e.get(key) == Some(want);
    // every event is either a complete span ("X") or metadata ("M"),
    // and complete spans carry non-negative timestamps and durations
    for e in events {
        if is(e, "ph", &Value::Str("X".into())) {
            assert!(e.get("name").is_some());
            assert!(num(e, "ts") >= 0.0);
            assert!(num(e, "dur") >= 0.0);
        } else if is(e, "ph", &Value::Str("M".into())) {
            assert!(e.get("args").is_some());
        } else {
            panic!("unexpected event phase {:?}", e.get("ph"));
        }
    }
    // complete spans exist for every device track
    for rank in 0..P {
        let found = events.iter().any(|e| {
            is(e, "ph", &Value::Str("X".into()))
                && is(e, "pid", &Value::UInt(0))
                && is(e, "tid", &Value::UInt(rank as u64))
        });
        assert!(found, "no complete span for device track {rank}");
    }
}

#[test]
fn clearing_resets_the_trace() {
    let world = run_traced_step();
    assert!(!world.trace().is_empty());
    world.clear_trace();
    assert!(world.trace().is_empty());
}

/// Every rank's final clock after two data-parallel GPT engine steps on
/// System III, with or without tracing.
fn gpt_step_clocks(traced: bool) -> Vec<u64> {
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 32,
        heads: 4,
        mlp_ratio: 4,
        vocab: 64,
        max_seq: 8,
    };
    let data = SyntheticText::new(cfg.vocab, 3);
    let world = World::new(system_iii());
    world.set_tracing(traced);
    world.run_on(2, |ctx| {
        let config = Config::from_json(r#"{ "parallel": { "data": 2 } }"#).unwrap();
        let model: Box<dyn Layer> = Box::new(Gpt::new(&cfg, &mut init::rng(9)));
        let adam = OptimizerSpec::AdamW {
            lr: 1e-3,
            weight_decay: 0.0,
        };
        let mut engine = initialize(ctx, &config, 2, model, adam);
        for step in 0..2 {
            let tokens = data.batch(2, cfg.max_seq, 2 * step + ctx.rank() as u64);
            engine.zero_grad();
            let logits = engine.forward(&tokens);
            let rows = 2 * cfg.max_seq;
            let targets = data.next_tokens(&tokens);
            let flat = logits.reshape([rows, cfg.vocab]);
            let (_, d) = colossalai::tensor::ops::cross_entropy(&flat, &targets);
            let _ = engine.backward(&d.reshaped(logits.shape().clone()));
            assert!(engine.step());
        }
        ctx.clock().to_bits()
    })
}

#[test]
fn a_traced_gpt_step_ends_on_the_untraced_clock_bits() {
    let untraced = gpt_step_clocks(false);
    assert!(untraced.iter().all(|&t| f64::from_bits(t) > 0.0));
    assert_eq!(gpt_step_clocks(true), untraced);
}

/// Asserts that every rank's main-track `compute + comm + mem` fits in the
/// makespan (the latest span end on any device track), as the rollup's
/// `idle = (makespan - busy).max(0.0)` assumes. The slack is float
/// summation error over the rank's spans, not time.
fn assert_busy_fits_the_makespan(world: &World, ranks: usize) {
    let spans = world.trace();
    let makespan = spans
        .iter()
        .filter(|s| matches!(s.track, Track::Device(_) | Track::DeviceComm(_)))
        .map(|s| s.end)
        .fold(0.0, f64::max);
    let rollup = world.trace_rollup();
    assert_eq!(rollup.len(), ranks);
    for r in rollup {
        let busy = r.compute + r.comm + r.mem;
        assert!(r.compute > 0.0, "rank {} metered no compute", r.rank);
        assert!(
            busy <= makespan * (1.0 + 1e-12),
            "rank {}: compute {} + comm {} + mem {} = {busy} s > makespan {makespan} s",
            r.rank,
            r.compute,
            r.comm,
            r.mem
        );
    }
}

/// `dp_overlap`'s overlapped leg: its GPT, System III and 2 MiB buckets
/// launched on the comm stream during backward, at 8 ranks (two nodes),
/// one 8-token sequence per rank and one backward.
#[test]
fn overlapped_dp_gpt_ranks_are_busy_no_longer_than_the_makespan() {
    const RANKS: usize = 8;
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 256,
        heads: 8,
        mlp_ratio: 4,
        vocab: 512,
        max_seq: 32,
    };
    let text = SyntheticText::new(cfg.vocab, 7);
    let world = World::new(system_iii());
    world.set_tracing(true);
    world.run_on(RANKS, |ctx| {
        let g = ctx.world_group(RANKS);
        let mut model = Gpt::new(&cfg, &mut init::rng(11));
        let mut reducer = GradReducer::data_parallel(&mut model, 2 << 20);
        let tokens = text.batch(1, 8, g.rank() as u64);
        let (_, d) = model.lm_loss(&tokens);
        let _ = reducer.backward_overlapped(ctx, Some(&g), &mut model, &d);
    });
    assert!(world
        .trace()
        .iter()
        .any(|s| matches!(s.track, Track::DeviceComm(_))));
    assert_busy_fits_the_makespan(&world, RANKS);
}

/// `pipeline_gantt`'s stages (an `EDGE`-wide end, inner `WIDTH`-wide
/// linears, an `EDGE`-wide end) under both schedules on one executor slot,
/// with fewer rows and inner layers.
#[test]
fn pipeline_stages_are_busy_no_longer_than_the_makespan() {
    const P: usize = 4;
    const M: usize = 6;
    const ROWS: usize = 64;
    const EDGE: usize = 16;
    const WIDTH: usize = 64;
    const INNER: usize = 3;
    for schedule in [Schedule::GPipe, Schedule::OneFOneB] {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
        world.set_tracing(true);
        let mut rng = init::rng(42);
        let micros: Vec<Tensor> = (0..M)
            .map(|_| init::uniform([ROWS, EDGE], -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<usize> = (0..ROWS).map(|i| i % EDGE).collect();
        world.run_on(P, |ctx| {
            let devices: Vec<usize> = (0..P).collect();
            let mut srng = init::rng(7 + ctx.rank() as u64);
            let mut linear = |d_in, d_out| -> Box<dyn Layer> {
                Box::new(Linear::from_rng("l", d_in, d_out, true, &mut srng))
            };
            let mut layers = vec![linear(EDGE, WIDTH)];
            layers.extend((0..INNER).map(|_| linear(WIDTH, WIDTH)));
            layers.push(linear(WIDTH, EDGE));
            let mut stage = PipelineStage::new(ctx, &devices, Sequential::new(layers));
            let mut lf = |_: u64, o: &Tensor| cross_entropy(o, &targets);
            let _ = stage.run_step(
                schedule,
                stage.is_first().then_some(&micros[..]),
                stage
                    .is_last()
                    .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
                M,
            );
        });
        assert_busy_fits_the_makespan(&world, P);
    }
}
