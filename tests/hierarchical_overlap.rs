//! Integration: topology-aware hierarchical collectives and bucketed,
//! backward-overlapped gradient sync.
//!
//! The contract under test: the all-reduce *algorithm* (flat ring,
//! two-level hierarchical, binomial tree, recursive halving-doubling) and
//! the *schedule* (blocking vs comm-stream overlapped) only move virtual
//! time — the numbers are bitwise-identical to the serial reference in
//! every case, including ragged groups where a schedule degrades to the
//! ring.

use colossalai::autograd::{AdamW, Layer, Linear, Sequential};
use colossalai::comm::{AllReduceAlgo, DeviceCtx, SpanKind, Track, World};
use colossalai::parallel::data_parallel::{flatten_params, split_batch};
use colossalai::parallel::{GradReducer, TimedLayer};
use colossalai::tensor::ops::cross_entropy;
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::{system_i, system_ii, system_iii, system_iv};
use colossalai::topology::Cluster;

/// All-reduce over `members` under a pinned algorithm; every rank
/// contributes a deterministic rank-dependent payload.
fn allreduce_under(
    cluster: Cluster,
    members: &[usize],
    n: usize,
    algo: Option<AllReduceAlgo>,
) -> Vec<Vec<f32>> {
    let world = World::new(cluster);
    world.force_allreduce_algo(algo);
    let ranks = members.len().max(members.iter().max().unwrap() + 1);
    let members = members.to_vec();
    let out = world.run_on(ranks, |ctx| {
        if !members.contains(&ctx.rank()) {
            return Vec::new();
        }
        let g = ctx.group(&members);
        let mut rng = init::rng(0xC0FFEE + ctx.rank() as u64);
        let t = init::uniform([n], -1.0, 1.0, &mut rng);
        g.all_reduce(ctx, t).into_vec()
    });
    out.into_iter().filter(|v| !v.is_empty()).collect()
}

/// The serial reference: sum the same payloads in canonical rank order.
fn serial_sum(members: &[usize], n: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; n];
    for &r in members {
        let mut rng = init::rng(0xC0FFEE + r as u64);
        let t = init::uniform([n], -1.0, 1.0, &mut rng);
        for (a, x) in acc.iter_mut().zip(t.data()) {
            *a += x;
        }
    }
    acc
}

#[test]
fn hierarchical_equals_flat_equals_serial_on_every_system() {
    // group shapes across Systems I-IV, including ragged node populations
    // (hierarchical degrades to flat there) and 1-GPU-per-node System IV
    let cases: Vec<(&str, Cluster, Vec<usize>)> = vec![
        ("I full node", system_i(), (0..8).collect()),
        ("II half node", system_ii(), (0..4).collect()),
        ("II full node", system_ii(), (0..8).collect()),
        ("III one node", system_iii(), (0..4).collect()),
        ("III two nodes", system_iii(), (0..8).collect()),
        ("III four nodes", system_iii(), (0..16).collect()),
        ("III ragged", system_iii(), vec![0, 1, 2, 4, 5]),
        ("III leaders only", system_iii(), vec![0, 4, 8]),
        ("IV eight hosts", system_iv(), (0..8).collect()),
    ];
    let n = 101; // not divisible by most group sizes: exercises remainders
    for (label, cluster, members) in cases {
        let want = serial_sum(&members, n);
        for algo in [
            None,
            Some(AllReduceAlgo::FlatRing),
            Some(AllReduceAlgo::Hierarchical),
            Some(AllReduceAlgo::Tree),
            Some(AllReduceAlgo::RecursiveHalvingDoubling),
        ] {
            let got = allreduce_under(cluster.clone(), &members, n, algo);
            assert_eq!(got.len(), members.len(), "{label}: missing ranks");
            for g in &got {
                assert_eq!(
                    &g[..],
                    &want[..],
                    "{label} with {algo:?} diverged from the serial sum"
                );
            }
        }
    }
}

fn timed_model(ctx: &DeviceCtx, seed: u64) -> Sequential {
    let mut rng = init::rng(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for i in 0..4 {
        let (d_in, d_out) = if i == 0 { (8, 32) } else { (32, 32) };
        layers.push(Box::new(TimedLayer::new(
            ctx,
            Linear::from_rng(&format!("l{i}"), d_in, d_out, true, &mut rng),
            10e-6,
            20e-6,
        )));
    }
    Sequential::new(layers)
}

/// One DP training run on System III; returns (params, max clock, world).
fn dp_run(p: usize, overlap: bool, trace: bool) -> (Vec<f32>, f64, World) {
    let world = World::new(system_iii());
    world.set_tracing(trace);
    let mut rng = init::rng(31);
    let xs: Vec<Tensor> = (0..3)
        .map(|_| init::uniform([p * 2, 8], -1.0, 1.0, &mut rng))
        .collect();
    let out = world.run_on(p, |ctx| {
        let g = ctx.world_group(p);
        let mut model = timed_model(ctx, 32);
        // 4 KiB buckets over ~3k params -> several buckets per backward
        let mut reducer = GradReducer::data_parallel(&mut model, 4096);
        let mut opt = AdamW::new(0.01, 0.01);
        for x in &xs {
            model.zero_grad();
            let x_local = split_batch(x, p, g.rank());
            let t: Vec<usize> = (0..x_local.dims()[0]).map(|i| i % 32).collect();
            let logits = model.forward(&x_local);
            let (_, d) = cross_entropy(&logits, &t);
            let _ = ctx.trace_phase("backward", || {
                if overlap {
                    reducer.backward_overlapped(ctx, &g, &mut model, &d).0
                } else {
                    let dx = model.backward(&d);
                    reducer.reduce(ctx, &g, &mut model);
                    dx
                }
            });
            opt.step_layer(&mut model);
        }
        (flatten_params(&mut model).into_vec(), ctx.clock())
    });
    let makespan = out.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    (out.into_iter().next().unwrap().0, makespan, world)
}

#[test]
fn overlapped_dp_step_is_faster_and_bitwise_identical_on_system_iii() {
    let (p_block, t_block, _) = dp_run(8, false, false);
    let (p_over, t_over, _) = dp_run(8, true, false);
    assert_eq!(p_block, p_over, "overlap changed the trajectory bits");
    assert!(
        t_over < t_block * 0.95,
        "overlap should measurably beat blocking: {t_over} vs {t_block}"
    );
}

#[test]
fn trace_shows_bucket_collectives_overlapping_backward_compute() {
    let (_, _, world) = dp_run(8, true, true);
    let spans = world.trace();

    // per-rank backward phase windows on the main device track
    let backward: Vec<_> = spans
        .iter()
        .filter(|s| {
            matches!(&s.kind, SpanKind::Phase { name } if name == "backward")
                && matches!(s.track, Track::Device(_))
        })
        .collect();
    assert!(!backward.is_empty(), "no backward phase spans recorded");

    // comm-stream spans: the async bucket all-reduces
    let comm: Vec<_> = spans
        .iter()
        .filter(|s| matches!(s.track, Track::DeviceComm(_)))
        .collect();
    assert!(!comm.is_empty(), "no comm-stream spans recorded");

    // at least one bucket collective must LAUNCH strictly inside a backward
    // phase on the same rank and still be running when a later part of the
    // phase executes — communication riding under compute
    let overlapping = comm.iter().any(|c| {
        backward
            .iter()
            .any(|b| b.rank == c.rank && c.start >= b.start && c.start < b.end && c.end > c.start)
    });
    assert!(
        overlapping,
        "no comm-stream span launched inside a backward phase"
    );

    // and the rollup accounts comm-stream time separately from busy time
    let rollup = world.trace_rollup();
    assert!(
        rollup.iter().any(|r| r.comm_overlap > 0.0),
        "rollup shows no comm-stream time"
    );
}
