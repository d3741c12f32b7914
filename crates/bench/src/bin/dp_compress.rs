//! Lossy gradient compression for data parallelism: convergence + modeled
//! comm time (the fig-7-style harness for the `comm.compress` channels).
//!
//! Two legs:
//!
//! 1. **Convergence** — a small classifier trained with DP on 4 ranks under
//!    every channel (`none`, `fp16`, `int8`, `topk`). The per-step global
//!    loss of each lossy run must track the exact run within a documented
//!    tolerance — error feedback carries what a step drops into the next
//!    step, so the trajectories stay close even at high compression.
//! 2. **Comm time** — a wider model on the bandwidth-starved System II
//!    (bimodal single node) and System IV (one P100 per node over Aries),
//!    no modeled compute, so the virtual clock is pure gradient traffic.
//!    The quantized channels cut wire bytes 2-4x (fp16/int8) and top-k cuts
//!    them by orders of magnitude; modeled step time follows.
//!
//! `--json` emits one object with both legs for the CI gates: every lossy
//! channel's `max_gap` must stay under `tolerance`, and int8 must show at
//! least a 1.3x modeled comm-time reduction on Systems II and IV.

use colossalai_autograd::{AdamW, Gelu, Layer, Linear, Sequential};
use colossalai_bench::print_table;
use colossalai_comm::{Compression, World};
use colossalai_models::data::SyntheticVision;
use colossalai_parallel::data_parallel::split_batch;
use colossalai_parallel::GradReducer;
use colossalai_tensor::init;
use colossalai_tensor::ops::cross_entropy;
use colossalai_topology::systems::{system_ii, system_iv};
use colossalai_topology::Cluster;

/// Convergence leg: ranks and steps.
const P: usize = 4;
const STEPS: usize = 30;

/// Documented per-channel loss tolerance (max per-step gap from the exact
/// run; see EXPERIMENTS.md). The quantized channels are near-exact; top-k
/// drops 75% of each bucket per step, so error feedback delays — not
/// derails — convergence and earns a wider budget.
fn tolerance(mode: &str) -> f32 {
    match mode {
        "fp16" => 0.01,
        "int8" => 0.05,
        "topk" => 0.75,
        _ => 0.0,
    }
}

/// Comm leg: ranks, steps, hidden width (≈75k params, several buckets).
const COMM_P: usize = 8;
const COMM_STEPS: usize = 2;
const COMM_HIDDEN: usize = 1024;
const COMM_BUCKET: usize = 1 << 20;

/// The channels under test, in report order.
fn channels() -> [(&'static str, Compression); 4] {
    [
        ("none", Compression::None),
        ("fp16", Compression::Fp16),
        ("int8", Compression::Int8),
        ("topk", Compression::TopK(1024)),
    ]
}

fn make_classifier(seed: u64) -> Sequential {
    let mut rng = init::rng(seed);
    Sequential::new(vec![
        Box::new(Linear::from_rng("l1", 16, 32, true, &mut rng)),
        Box::new(Gelu::new()),
        Box::new(Linear::from_rng("l2", 32, 8, true, &mut rng)),
    ])
}

/// Trains the classifier with DP under one channel; returns the per-step
/// global loss (mean of the equal-shard local means).
fn convergence_losses(comp: Compression) -> Vec<f32> {
    // top-k at convergence scale: keep 16 of each 64-element bucket (25%)
    let comp = match comp {
        Compression::TopK(_) => Compression::TopK(16),
        c => c,
    };
    let data = SyntheticVision::new(4, 4, 8, 13);
    let world = World::new(system_ii());
    let per_rank = world.run_on(P, |ctx| {
        let g = ctx.world_group(P);
        let mut model = make_classifier(41);
        let mut reducer = GradReducer::data_parallel(&mut model, 256);
        reducer.set_compression(comp);
        let mut opt = AdamW::new(0.01, 0.01);
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let (x, t) = data.batch(4 * P, step as u64);
            let x = x.reshape([4 * P, 16]);
            model.zero_grad();
            let x_local = split_batch(&x, P, g.rank());
            let t_local: Vec<usize> = t.chunks(4).nth(g.rank()).unwrap().to_vec();
            let logits = model.forward(&x_local);
            let (loss, d) = cross_entropy(&logits, &t_local);
            losses.push(loss);
            let _ = model.backward(&d);
            reducer.reduce(ctx, &g, &mut model);
            opt.step_layer(&mut model);
        }
        losses
    });
    (0..STEPS)
        .map(|s| per_rank.iter().map(|l| l[s]).sum::<f32>() / P as f32)
        .collect()
}

/// Comm leg: pure-communication virtual step time (ms) of DP gradient sync
/// under one channel on one system. No modeled compute, so the rank clock
/// is exactly the charged collective time.
fn comm_step_ms(cluster: Cluster, comp: Compression) -> f64 {
    let make_wide = |seed: u64| {
        let mut rng = init::rng(seed);
        Sequential::new(vec![
            Box::new(Linear::from_rng("in", 32, COMM_HIDDEN, true, &mut rng)) as Box<dyn Layer>,
            Box::new(Linear::from_rng(
                "h0",
                COMM_HIDDEN,
                COMM_HIDDEN,
                true,
                &mut rng,
            )),
            Box::new(Linear::from_rng("out", COMM_HIDDEN, 8, true, &mut rng)),
        ])
    };
    let world = World::new(cluster);
    let mut rng = init::rng(7);
    let xs: Vec<_> = (0..COMM_STEPS)
        .map(|_| init::uniform([COMM_P * 2, 32], -1.0, 1.0, &mut rng))
        .collect();
    let clocks = world.run_on(COMM_P, |ctx| {
        let g = ctx.world_group(COMM_P);
        let mut model = make_wide(11);
        let mut reducer = GradReducer::data_parallel(&mut model, COMM_BUCKET);
        reducer.set_compression(comp);
        let mut opt = AdamW::new(0.01, 0.01);
        for x in &xs {
            model.zero_grad();
            let x_local = split_batch(x, COMM_P, g.rank());
            let t: Vec<usize> = (0..x_local.dims()[0]).map(|i| i % 8).collect();
            let logits = model.forward(&x_local);
            let (_, d) = cross_entropy(&logits, &t);
            let _ = model.backward(&d);
            reducer.reduce(ctx, &g, &mut model);
            opt.step_layer(&mut model);
        }
        ctx.clock()
    });
    let makespan = clocks.into_iter().fold(0.0f64, f64::max);
    makespan * 1e3 / COMM_STEPS as f64
}

fn main() {
    // --- convergence leg ---
    let curves: Vec<(&str, Vec<f32>)> = channels()
        .into_iter()
        .map(|(name, comp)| (name, convergence_losses(comp)))
        .collect();
    let exact = curves[0].1.clone();
    let gaps: Vec<(&str, f32)> = curves
        .iter()
        .map(|(name, losses)| {
            let gap = exact
                .iter()
                .zip(losses)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            (*name, gap)
        })
        .collect();

    // --- comm leg ---
    let systems = [("System II", system_ii()), ("System IV", system_iv())];
    let comm: Vec<(&str, Vec<(&str, f64)>)> = systems
        .into_iter()
        .map(|(sname, cluster)| {
            let times: Vec<(&str, f64)> = channels()
                .into_iter()
                .map(|(cname, comp)| (cname, comm_step_ms(cluster.clone(), comp)))
                .collect();
            (sname, times)
        })
        .collect();

    if std::env::args().any(|a| a == "--json") {
        let modes_json: Vec<String> = curves
            .iter()
            .zip(&gaps)
            .map(|((name, losses), (_, gap))| {
                format!(
                    "{{\"mode\":\"{name}\",\"final_loss\":{:.6},\"max_gap\":{gap:.6},\
                     \"tolerance\":{}}}",
                    losses[STEPS - 1],
                    tolerance(name)
                )
            })
            .collect();
        let comm_json: Vec<String> = comm
            .iter()
            .map(|(sname, times)| {
                let t_none = times[0].1;
                let per_mode: Vec<String> = times
                    .iter()
                    .map(|(cname, ms)| {
                        format!(
                            "{{\"mode\":\"{cname}\",\"step_ms\":{ms:.6},\"speedup\":{:.3}}}",
                            t_none / ms
                        )
                    })
                    .collect();
                format!(
                    "{{\"system\":\"{sname}\",\"p\":{COMM_P},\"modes\":[{}]}}",
                    per_mode.join(",")
                )
            })
            .collect();
        println!(
            "{{\"convergence\":{{\"p\":{P},\"steps\":{STEPS},\
             \"modes\":[{}]}},\"comm\":[{}]}}",
            modes_json.join(","),
            comm_json.join(",")
        );
        return;
    }

    let rows: Vec<Vec<String>> = (0..STEPS)
        .step_by(5)
        .chain([STEPS - 1])
        .map(|s| {
            let mut row = vec![s.to_string()];
            row.extend(curves.iter().map(|(_, l)| format!("{:.4}", l[s])));
            row
        })
        .collect();
    print_table(
        &format!("DP loss under gradient compression ({P} ranks, error feedback)"),
        &["step", "none", "fp16", "int8", "topk"],
        &rows,
    );
    for (name, gap) in &gaps[1..] {
        println!(
            "{name}: max loss gap from exact = {gap:.4} (tolerance {})",
            tolerance(name)
        );
    }

    let rows: Vec<Vec<String>> = comm
        .iter()
        .map(|(sname, times)| {
            let t_none = times[0].1;
            let mut row = vec![sname.to_string()];
            row.extend(
                times
                    .iter()
                    .map(|(_, ms)| format!("{ms:.3} ({:.2}x)", t_none / ms)),
            );
            row
        })
        .collect();
    print_table(
        &format!("modeled DP comm time, {COMM_P} ranks, ms/step (speedup vs none)"),
        &["system", "none", "fp16", "int8", "topk"],
        &rows,
    );
    println!(
        "\nError feedback re-injects each step's compression error into the \
         next step's gradient, so the lossy trajectories track the exact \
         one; the quantized channels cut modeled comm time by their wire \
         ratio on bandwidth-starved systems (DESIGN.md §14)."
    );
}
