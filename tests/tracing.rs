//! Integration: the unified virtual-clock tracer across the whole stack.
//!
//! A 4-rank hybrid-parallel step (2-way data x 2-way tensor parallelism with
//! pipeline-style point-to-point traffic) must leave every rank with compute,
//! collective AND p2p spans; per-rank leaf spans must be non-overlapping and
//! monotonic; and `World::trace_json()` must be valid Chrome-trace JSON.

use colossalai::comm::{DeviceCtx, Span, SpanKind, Track, World};
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::system_i;
use serde_json::Value;

const P: usize = 4;

/// One hybrid step: local "compute", TP all-gather + DP all-reduce
/// collectives, and a ring exchange of activations over send/recv.
fn hybrid_step(ctx: &DeviceCtx) {
    let rank = ctx.rank();
    // compute: charge the clock, then publish the window as a Compute span
    let start = ctx.clock();
    ctx.advance(2e-4);
    ctx.trace_span(
        SpanKind::Compute {
            label: format!("fwd{rank}"),
        },
        start,
    );

    // tensor-parallel axis: ranks {0,1} and {2,3}
    let tp = ctx.group(&[rank / 2 * 2, rank / 2 * 2 + 1]);
    let mut rng = init::rng(17 + rank as u64);
    let act = init::uniform([8, 8], -1.0, 1.0, &mut rng);
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
