//! Quickstart: the Listing-1 workflow end to end.
//!
//! Builds a simulated 4-GPU cluster, configures data parallelism from a
//! JSON config, and trains a tiny classifier with the
//! `initialize -> zero_grad -> forward -> criterion -> backward -> step`
//! loop of the paper's usage example, driven by a `Trainer` with a
//! `LossRecorder` hook attached (Section 4's extensibility point).
//!
//! Run with: `cargo run --release --example quickstart`

use colossalai::comm::World;
use colossalai::core::{initialize, Config, LossRecorder, OptimizerSpec, Trainer};
use colossalai::models::data::SyntheticVision;
use colossalai::tensor::init;
use colossalai::topology::systems::system_i;
use colossalai_autograd::{Gelu, Layer, Linear, Sequential};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // 1. describe the parallelization declaratively (Listing 1)
    let config = Config::from_json(
        r#"{
            "parallel": { "data": 4 },
            "mixed_precision": false,
            "grad_clip": 1.0
        }"#,
    )
    .expect("valid config");

    // 2. launch the (simulated) distributed environment
    let world = World::new(system_i());
    let n_devices = 4;
    let data = SyntheticVision::new(4, 8, 5, 42);

    let runs = world.run_on(n_devices, |ctx| {
        // 3. define your training components exactly as in serial code
        let mut rng = init::rng(7);
        let model: Box<dyn Layer> = Box::new(Sequential::new(vec![
            Box::new(Linear::from_rng("fc1", 32, 64, true, &mut rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("fc2", 64, 5, true, &mut rng)),
        ]));

        // 4. initialize with Colossal-AI
        let engine = initialize(
            ctx,
            &config,
            n_devices,
            model,
            OptimizerSpec::AdamW {
                lr: 0.01,
                weight_decay: 0.01,
            },
        );
        let mut trainer = Trainer::new(engine);

        // 5. attach a life-cycle hook; the rank keeps a handle to read it
        let recorder = Rc::new(RefCell::new(LossRecorder::default()));
        trainer.add_hook(Box::new(Rc::clone(&recorder)));

        // 6. run training — each rank takes its slice of the global batch
        let rank = ctx.rank();
        trainer.fit(30, |step| {
            let (x, t) = data.batch(16, step);
            let x_local = colossalai::parallel::split_batch(&x.reshape([16, 32]), n_devices, rank);
            let t_local = t[rank * 4..(rank + 1) * 4].to_vec();
            (x_local, t_local)
        });
        let params =
            colossalai::parallel::data_parallel::flatten_params(trainer.engine_mut().model_mut());
        (recorder.take(), params)
    });

    let recorded = &runs[0].0;
    println!("rank 0 loss curve: {:?}", recorded.losses);
    println!(
        "the LossRecorder hook saw {} steps, {} skipped by the loss scaler",
        recorded.losses.len(),
        recorded.skips
    );
    let first = recorded.losses.first().copied().unwrap();
    let last = recorded.losses.last().copied().unwrap();
    println!("loss {first:.4} -> {last:.4} over 30 data-parallel steps on 4 simulated GPUs");
    assert!(last < first, "training should reduce the loss");
    // losses differ per rank (each sees its own batch slice), but the
    // gradient all-reduce keeps the *parameters* in perfect lockstep
    for r in 1..n_devices {
        assert_eq!(runs[0].1.data(), runs[r].1.data());
    }
    println!("all 4 replicas hold bitwise-identical parameters (DP lockstep) — OK");
}
