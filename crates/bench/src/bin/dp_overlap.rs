//! Data-parallel step time on the multi-node System III under three
//! gradient-sync schedules:
//!
//! 1. **flat blocking** — flat-ring all-reduce after backward (the PR-2
//!    baseline, per-bucket but serial);
//! 2. **hierarchical blocking** — the topology-aware selector swaps in the
//!    two-level schedule, still blocking;
//! 3. **hierarchical + overlap** — each bucket's all-reduce launches on the
//!    comm stream as soon as its last gradient is produced during backward.
//!
//! All three produce bitwise-identical parameters (checked here); only the
//! charged virtual time moves. Pass `--trace <out.json>` to export the
//! Chrome trace of the overlapped run — the per-rank "device N comm" tracks
//! show the bucket collectives riding under the backward span.
//!
//! `--json` prints one machine-readable object with the virtual times and
//! the parity verdict; every field is a virtual-clock value, so the output
//! does not depend on the host.

use colossalai_autograd::{Layer, Linear, Sequential};
use colossalai_bench::{print_table, trace_arg, write_trace};
use colossalai_comm::{AllReduceAlgo, DeviceCtx, World};
use colossalai_parallel::data_parallel::{flatten_params, split_batch};
use colossalai_parallel::{GradReducer, TimedLayer, DEFAULT_BUCKET_BYTES};
use colossalai_tensor::init;
use colossalai_tensor::ops::cross_entropy;
use colossalai_topology::systems::system_iii;

/// Data-parallel degree: 16 ranks = 4 full nodes of System III.
const P: usize = 16;
const STEPS: usize = 3;
const HIDDEN: usize = 256;
const LAYERS: usize = 4;
/// Modeled kernel time per layer (an A100-scale GEMM at this size).
const T_FWD: f64 = 8e-6;
const T_BWD: f64 = 16e-6;

fn make_model(ctx: &DeviceCtx, seed: u64) -> Sequential {
    let mut rng = init::rng(seed);
    let timed = |ctx: &DeviceCtx, l: Linear| Box::new(TimedLayer::new(ctx, l, T_FWD, T_BWD));
    let mut layers: Vec<Box<dyn Layer>> = vec![timed(
        ctx,
        Linear::from_rng("in", 32, HIDDEN, true, &mut rng),
    )];
    for i in 0..LAYERS {
        layers.push(timed(
            ctx,
            Linear::from_rng(&format!("h{i}"), HIDDEN, HIDDEN, true, &mut rng),
        ));
    }
    layers.push(timed(
        ctx,
        Linear::from_rng("out", HIDDEN, 8, true, &mut rng),
    ));
    Sequential::new(layers)
}

/// Runs STEPS of DP training; returns (max rank clock, params, world).
fn run(algo: Option<AllReduceAlgo>, overlap: bool, trace: bool) -> (f64, Vec<f32>, World) {
    let world = World::new(system_iii());
    world.force_allreduce_algo(algo);
    world.set_tracing(trace);
    let mut rng = init::rng(7);
    let xs: Vec<_> = (0..STEPS)
        .map(|_| init::uniform([P * 2, 32], -1.0, 1.0, &mut rng))
        .collect();
    let out = world.run_on(P, |ctx| {
        let g = ctx.world_group(P);
        let mut model = make_model(ctx, 11);
        // small buckets relative to the model so several fire per backward
        let cap = DEFAULT_BUCKET_BYTES.min(HIDDEN * HIDDEN * 2 * 4);
        let mut reducer = GradReducer::data_parallel(&mut model, cap);
        let mut opt = colossalai_autograd::AdamW::new(0.01, 0.01);
        for x in &xs {
            model.zero_grad();
            let x_local = split_batch(x, P, g.rank());
            let t: Vec<usize> = (0..x_local.dims()[0]).map(|i| i % 8).collect();
            let logits = model.forward(&x_local);
            let (_, d) = cross_entropy(&logits, &t);
            if overlap {
                let _ = reducer.backward_overlapped(ctx, &g, &mut model, &d);
            } else {
                let _ = model.backward(&d);
                reducer.reduce(ctx, &g, &mut model);
            }
            opt.step_layer(&mut model);
        }
        (ctx.clock(), flatten_params(&mut model).into_vec())
    });
    let makespan = out.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    (makespan, out.into_iter().next().unwrap().1, world)
}

fn main() {
    let (t_flat, p_flat, _) = run(Some(AllReduceAlgo::FlatRing), false, false);
    let (t_hier, p_hier, _) = run(None, false, false);
    let (t_over, p_over, world) = run(None, true, trace_arg().is_some());

    assert_eq!(p_flat, p_hier, "algorithm choice changed the bits");
    assert_eq!(p_flat, p_over, "overlap changed the bits");

    if std::env::args().any(|a| a == "--json") {
        println!(
            "{{\"bitwise_match\": true, \
             \"virtual_step_ms_flat\": {:.3}, \
             \"virtual_step_ms_hier\": {:.3}, \
             \"virtual_step_ms_overlap\": {:.3}}}",
            t_flat * 1e3 / STEPS as f64,
            t_hier * 1e3 / STEPS as f64,
            t_over * 1e3 / STEPS as f64,
        );
        return;
    }

    let rows = vec![
        vec![
            "flat ring, blocking".to_string(),
            format!("{:.3}", t_flat * 1e3 / STEPS as f64),
            "1.00x".to_string(),
        ],
        vec![
            "hierarchical, blocking".to_string(),
            format!("{:.3}", t_hier * 1e3 / STEPS as f64),
            format!("{:.2}x", t_flat / t_hier),
        ],
        vec![
            "hierarchical + overlap".to_string(),
            format!("{:.3}", t_over * 1e3 / STEPS as f64),
            format!("{:.2}x", t_flat / t_over),
        ],
    ];
    print_table(
        &format!(
            "DP step time, {P} ranks on System III ({} params, {STEPS} steps)",
            HIDDEN * HIDDEN * LAYERS
        ),
        &["gradient sync", "step ms (virtual)", "speedup"],
        &rows,
    );
    println!(
        "\nAll three schedules produce bitwise-identical parameters; the \
         hierarchical all-reduce shrinks the inter-node ring to one leader \
         per node, and overlap hides the bucket collectives behind backward \
         compute (see the comm tracks in the Chrome trace)."
    );
    if let Some(path) = trace_arg() {
        write_trace(&world, &path);
    }
}
