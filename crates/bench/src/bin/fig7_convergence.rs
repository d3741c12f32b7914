//! E2 — Fig 7: convergence of tensor-parallel training vs data-parallel.
//!
//! The paper trains ViT on ImageNet-1k for 250 epochs and shows the accuracy
//! curves of every tensor-parallel mode tracking PyTorch DDP. We reproduce
//! the *arithmetic-equivalence* content of that figure at laptop scale: one
//! ViT-tiny, built by `build_vit` from a config JSON, trained serially and
//! under every tensor-parallel mode — the model code is the same, only the
//! `"tensor"` section changes — and the per-step losses must coincide:
//!
//! 1. serial vs 1D on 4 simulated devices;
//! 2. serial vs 2D (4 devices), 2.5D (8, depth 2) and 3D (8).
//!
//! `--json` prints the per-mode maximum loss deviation and the tolerance CI
//! gates it against; the runs are deterministic, so the gate cannot flake.

use colossalai_bench::{print_table, trace_arg, write_trace};
use colossalai_comm::World;
use colossalai_core::{build_vit, check_model, Config, ZooModel};
use colossalai_models::data::SyntheticVision;
use colossalai_models::TransformerConfig;
use colossalai_tensor::ops::cross_entropy;
use colossalai_topology::systems::system_i;

const STEPS: usize = 20;
const LR: f32 = 0.05;
const BATCH: usize = 8;
const PATCH_DIM: usize = 12;
/// Largest per-step loss deviation from the serial run a mode may show. The
/// modes differ from serial only in the order they sum in.
const TOLERANCE: f32 = 1e-4;

fn vit_cfg(classes: usize) -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        hidden: 16,
        heads: 4,
        mlp_ratio: 2,
        vocab: classes,
        max_seq: 8,
    }
}

/// Trains the ViT of `cfg` under the `"tensor"` section `tensor` (`None` =
/// serial) and returns rank 0's per-step losses and the world they ran on.
fn train(cfg: &TransformerConfig, tensor: Option<(usize, &str)>, trace: bool) -> (Vec<f32>, World) {
    let (size, json) = match tensor {
        None => (1, "{}".to_string()),
        Some((size, mode)) => (
            size,
            format!(
                r#"{{ "parallel": {{ "tensor": {{ "size": {size}, "mode": "{mode}", "depth": 2 }} }} }}"#
            ),
        ),
    };
    let config = Config::from_json(&json).expect("config parses");
    check_model(
        &config,
        ZooModel::Vit {
            patch_dim: PATCH_DIM,
        },
        cfg,
        BATCH,
    )
    .expect("the mode admits the model");
    let data = SyntheticVision::new(cfg.max_seq, PATCH_DIM, cfg.vocab, 7);
    let world = World::new(system_i());
    world.set_tracing(trace);
    let mut losses = world.run_on(size, |ctx| {
        let mut vit = build_vit(ctx, &config, size, cfg, PATCH_DIM, 1000);
        (0..STEPS)
            .map(|step| {
                let (x, t) = data.batch(BATCH, step as u64);
                vit.zero_grad();
                let (loss, d) = cross_entropy(&vit.forward(&x), &t);
                let _ = vit.backward(&d);
                vit.visit_params(&mut |p| {
                    let g = p.grad().clone();
                    p.value_mut().axpy(-LR, &g);
                });
                loss
            })
            .collect::<Vec<f32>>()
    });
    (losses.swap_remove(0), world)
}

fn max_dev(serial: &[f32], mode: &[f32]) -> f32 {
    serial
        .iter()
        .zip(mode)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

/// One table of the figure: a ViT with `classes` outputs, trained serially
/// and under each `(devices, mode)`.
struct Part {
    title: &'static str,
    classes: usize,
    modes: &'static [(usize, &'static str)],
}

/// Part 2 has 6 classes where part 1 has 5, so that the 2-wide meshes can
/// cut the logits.
const PARTS: [Part; 2] = [
    Part {
        title: "Fig 7 (part 1): ViT-tiny loss — data parallel vs 1D tensor parallel (4 GPUs)",
        classes: 5,
        modes: &[(4, "1d")],
    },
    Part {
        title: "Fig 7 (part 2): ViT-tiny loss — serial vs 2D (4 GPUs) / 2.5D / 3D (8 GPUs)",
        classes: 6,
        modes: &[(4, "2d"), (8, "2.5d"), (8, "3d")],
    },
];

fn main() {
    let trace_path = trace_arg();
    let json = std::env::args().any(|a| a == "--json");
    let mut gates = Vec::new();
    for part in &PARTS {
        let cfg = vit_cfg(part.classes);
        let (serial, _) = train(&cfg, None, false);
        let mut headers = vec!["step".to_string(), "serial/DP".to_string()];
        let mut columns = vec![serial.clone()];
        let mut summary = Vec::new();
        for &(gpus, mode) in part.modes {
            // the trace is of the 1D run, as it always was
            let trace = trace_path.as_ref().filter(|_| mode == "1d");
            let (losses, world) = train(&cfg, Some((gpus, mode)), trace.is_some());
            if let Some(path) = trace {
                write_trace(&world, path);
            }
            let dev = max_dev(&serial, &losses);
            gates.push(format!(
                "{{\"mode\": \"{mode}\", \"gpus\": {gpus}, \"max_dev\": {dev:e}}}"
            ));
            let label = mode.to_uppercase();
            summary.push(format!(
                "{label}: max loss deviation from serial = {dev:.2e} (tolerance {TOLERANCE:.0e})"
            ));
            headers.push(label);
            columns.push(losses);
        }
        if json {
            continue;
        }
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = (0..STEPS)
            .map(|i| {
                let losses = columns.iter().map(|c| format!("{:.4}", c[i]));
                std::iter::once(i.to_string()).chain(losses).collect()
            })
            .collect();
        print_table(part.title, &headers, &rows);
        println!("{}", summary.join("\n"));
    }
    if json {
        println!(
            "{{\"steps\": {STEPS}, \"tolerance\": {TOLERANCE:e}, \"modes\": [{}]}}",
            gates.join(", ")
        );
    }
}
