//! Trains one Vision Transformer under every tensor-parallel mode — 1D, 2D,
//! 2.5D, 3D, each picked by the `"tensor"` section of a config JSON — and
//! verifies each loss trajectory matches the serial model: the workload of
//! the paper's Fig 7 / Fig 11 experiments at example scale. The model code is
//! `build_vit` every time, trained through `initialize()` with plain SGD;
//! only the config changes.
//!
//! Run with: `cargo run --release --example vit_tensor_parallel`

use colossalai::comm::World;
use colossalai::core::{build_vit, check_model, initialize, Config, OptimizerSpec, ZooModel};
use colossalai::models::data::SyntheticVision;
use colossalai::models::TransformerConfig;
use colossalai::tensor::ops::cross_entropy;
use colossalai::topology::systems::system_i;

const STEPS: usize = 25;
const LR: f32 = 0.03;
const BATCH: usize = 8;
const PATCH_DIM: usize = 12;

fn main() {
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 16,
        heads: 4,
        mlp_ratio: 2,
        vocab: 6,
        max_seq: 9,
    };
    let data = SyntheticVision::new(cfg.max_seq, PATCH_DIM, cfg.vocab, 99);

    // one training loop; `json` decides how many devices share the model
    let train = |gpus: usize, json: &str| -> (Vec<f32>, f64) {
        let config = Config::from_json(json).expect("config parses");
        let model = ZooModel::Vit {
            patch_dim: PATCH_DIM,
        };
        check_model(&config, model, &cfg, BATCH).expect("the mode admits the model");
        let world = World::new(system_i());
        world
            .run_on(gpus, |ctx| {
                // same seed -> same global weights under every mode
                let vit = build_vit(ctx, &config, gpus, &cfg, PATCH_DIM, 1234);
                // the engine sums the gradients of what the mode replicates
                // across rows, overlapped with the backward
                let sgd = OptimizerSpec::Sgd {
                    lr: LR,
                    momentum: 0.0,
                };
                let mut engine = initialize(ctx, &config, gpus, vit, sgd);
                let losses = (0..STEPS)
                    .map(|step| {
                        let (x, t) = data.batch(BATCH, step as u64);
                        engine.zero_grad();
                        let (loss, d) = cross_entropy(&engine.forward(&x), &t);
                        let _ = engine.backward(&d);
                        engine.step();
                        loss
                    })
                    .collect();
                (losses, ctx.clock())
            })
            .swap_remove(0)
    };

    let (serial, _) = train(1, "{}");
    println!(
        "final serial loss after {STEPS} steps: {:.5}\n",
        serial[STEPS - 1]
    );
    println!("mode   GPUs  final loss  max |dev| from serial  modeled time (ms)");
    for (gpus, mode) in [(4, "1d"), (4, "2d"), (8, "2.5d"), (8, "3d")] {
        let json = format!(
            r#"{{ "parallel": {{ "tensor": {{ "size": {gpus}, "mode": "{mode}", "depth": 2 }} }} }}"#
        );
        let (losses, clock) = train(gpus, &json);
        let max_dev = serial
            .iter()
            .zip(&losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{mode:<6} {gpus:>4}  {:>10.5}  {max_dev:>21.2e}  {:>17.3}",
            losses[STEPS - 1],
            clock * 1e3
        );
        assert!(
            max_dev < 1e-3,
            "tensor parallelism must be arithmetically faithful"
        );
    }
    println!("\nevery tensor-parallel ViT matches serial training — OK");
}
