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

fn main() {
    let trace_path = trace_arg();
    // Part 1: 5 classes. Part 2: 6, so the 2-wide meshes can cut the logits.
    let parts: [(TransformerConfig, &[(usize, &str, &str)]); 2] = [
        (vit_cfg(5), &[(4, "1d", "1D")]),
        (
            vit_cfg(6),
            &[(4, "2d", "2D"), (8, "2.5d", "2.5D"), (8, "3d", "3D")],
        ),
    ];
    let mut curves = Vec::new();
    for (cfg, modes) in &parts {
        let (serial, _) = train(cfg, None, false);
        let runs: Vec<_> = modes
            .iter()
            .map(|&(gpus, mode, label)| {
                let trace = mode == "1d" && trace_path.is_some();
                let (losses, world) = train(cfg, Some((gpus, mode)), trace);
                if let (true, Some(path)) = (trace, &trace_path) {
                    write_trace(&world, path);
                }
                (gpus, mode, label, losses)
            })
            .collect();
        curves.push((serial, runs));
    }

    if std::env::args().any(|a| a == "--json") {
        let modes: Vec<String> = curves
            .iter()
            .flat_map(|(serial, runs)| {
                runs.iter().map(move |(gpus, mode, _, losses)| {
                    format!(
                        "{{\"mode\": \"{mode}\", \"gpus\": {gpus}, \"max_dev\": {:e}}}",
                        max_dev(serial, losses)
                    )
                })
            })
            .collect();
        println!(
            "{{\"steps\": {STEPS}, \"tolerance\": {TOLERANCE:e}, \"modes\": [{}]}}",
            modes.join(", ")
        );
        return;
    }

    let titles = [
        "Fig 7 (part 1): ViT-tiny loss — data parallel vs 1D tensor parallel (4 GPUs)",
        "Fig 7 (part 2): ViT-tiny loss — serial vs 2D (4 GPUs) / 2.5D / 3D (8 GPUs)",
    ];
    for ((serial, runs), title) in curves.iter().zip(titles) {
        let mut headers = vec!["step", "serial/DP"];
        headers.extend(runs.iter().map(|r| r.2));
        let rows: Vec<Vec<String>> = (0..STEPS)
            .map(|i| {
                let mut row = vec![i.to_string(), format!("{:.4}", serial[i])];
                row.extend(runs.iter().map(|r| format!("{:.4}", r.3[i])));
                row
            })
            .collect();
        print_table(title, &headers, &rows);
        for (_, _, label, losses) in runs {
            println!(
                "{label}: max loss deviation from serial = {:.2e} (tolerance {TOLERANCE:.0e})",
                max_dev(serial, losses)
            );
        }
    }
}
