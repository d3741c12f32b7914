//! ZeRO + heterogeneous offloading demo (Sections 2.1, 2.4, 3.2 / Fig 14):
//! trains a small GPT with ZeRO-3 sharding across 4 simulated GPUs three
//! times — shard fully device-resident, under DeepSpeed's static CPU
//! placement and under Colossal-AI's adaptive placement — and meters each
//! run's per-step offload overhead from its trace. A placement moves time
//! and PCIe bytes, never a bit of the trajectory.
//!
//! Run with: `cargo run --release --example gpt_zero_offload`

use colossalai::comm::{SpanKind, World};
use colossalai::memory::offload::{plan, ModelData, OffloadPlan, PlacementPolicy};
use colossalai::models::data::SyntheticText;
use colossalai::models::{Gpt, TransformerConfig};
use colossalai::parallel::data_parallel::flatten_params;
use colossalai::parallel::zero::{model_data_bytes_per_device, ZeroOptimizer, ZeroStage};
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::system_ii;
use colossalai::topology::{HostSpec, Link};
use colossalai_autograd::Layer;

const RANKS: usize = 4;
const STEPS: u64 = 10;

/// What rank 0's trace metered per step: PCIe bytes each way and the
/// virtual seconds of the PCIe legs plus the CPU share of the Adam update.
struct Metered {
    h2d_bytes: u64,
    d2h_bytes: u64,
    seconds: f64,
}

/// One ZeRO-3 run with the shard placed per `offload` (`None`: all of it
/// on the device). Returns rank 0's loss curve, every rank's final
/// parameters and the metered offload overhead.
fn train(
    cfg: &TransformerConfig,
    offload: Option<OffloadPlan>,
) -> (Vec<f32>, Vec<Tensor>, Metered) {
    let data = SyntheticText::new(cfg.vocab, 3);
    let world = World::new(system_ii());
    world.set_tracing(true);
    let mut results = world.run_on(RANKS, |ctx| {
        let g = ctx.world_group(RANKS);
        let mut gpt = Gpt::new(cfg, &mut init::rng(2024));
        let mut opt = ZeroOptimizer::new(ctx, &g, &mut gpt, ZeroStage::Three, 0.01, 0.0);
        if let Some(plan) = offload {
            opt = opt.with_offload(plan, Link::pcie(), HostSpec::dgx());
        }
        let mut losses = Vec::new();
        for step in 0..STEPS {
            opt.materialize_params(&mut gpt);
            // each rank trains on its own batch slice
            let tokens = data.batch(RANKS, cfg.max_seq, step);
            let local = tokens.chunk(0, RANKS).swap_remove(g.rank());
            let (loss, dlogits) = gpt.lm_loss(&local);
            losses.push(loss);
            let _ = gpt.backward(&dlogits);
            opt.step(&mut gpt);
        }
        (losses, flatten_params(&mut gpt))
    });
    let mut metered = Metered {
        h2d_bytes: 0,
        d2h_bytes: 0,
        seconds: 0.0,
    };
    for span in world.trace().iter().filter(|s| s.rank == 0) {
        match &span.kind {
            SpanKind::MemMove { bytes, to, .. } => {
                let leg = if *to == "gpu" {
                    &mut metered.h2d_bytes
                } else {
                    &mut metered.d2h_bytes
                };
                *leg += bytes;
                metered.seconds += span.duration();
            }
            SpanKind::Compute { label } if label == "cpu_adam" => {
                metered.seconds += span.duration();
            }
            _ => {}
        }
    }
    metered.h2d_bytes /= STEPS;
    metered.d2h_bytes /= STEPS;
    metered.seconds /= STEPS as f64;
    let losses = std::mem::take(&mut results[0].0);
    let params = results.into_iter().map(|(_, p)| p).collect();
    (losses, params, metered)
}

fn main() {
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 17,
        max_seq: 6,
    };
    let n = Gpt::new(&cfg, &mut init::rng(2024)).n_params() as u64;
    let model = ModelData {
        n_params: n,
        dp_degree: RANKS as u64,
    };
    // a device whose headroom holds the fp16 shard and half the optimizer
    // shard: the adaptive policy keeps those resident and updates the rest
    // on the CPU, the static policy offloads everything regardless
    let working = 1 << 10;
    let capacity = working + model.fp16_shard_bytes() + model.optimizer_shard_bytes() / 2;
    let static_plan = plan(PlacementPolicy::StaticCpu, model, capacity, working);
    let adaptive_plan = plan(PlacementPolicy::Adaptive, model, capacity, working);

    let (resident_losses, resident_params, resident) = train(&cfg, None);
    let (static_losses, static_params, static_cost) = train(&cfg, Some(static_plan));
    let (adaptive_losses, adaptive_params, adaptive_cost) = train(&cfg, Some(adaptive_plan));

    println!("ZeRO-3 GPT ({n} parameters) loss curve (rank 0): {resident_losses:?}");
    assert!(
        resident_losses.last().unwrap() < &resident_losses[0],
        "LM loss must fall"
    );
    for params in [&resident_params, &static_params, &adaptive_params] {
        for replica in params {
            assert_eq!(replica.data(), resident_params[0].data());
        }
    }
    assert_eq!(static_losses, resident_losses);
    assert_eq!(adaptive_losses, resident_losses);
    println!(
        "every rank under every placement holds identical parameters after {STEPS} steps — OK"
    );

    println!("\nmetered per-step offload overhead (rank 0, virtual clock):");
    for (label, cost) in [
        ("device-resident  ", &resident),
        ("DeepSpeed static ", &static_cost),
        ("Colossal adaptive", &adaptive_cost),
    ] {
        println!(
            "  {label}: h2d {:>5} B, d2h {:>5} B, {:.3} us",
            cost.h2d_bytes,
            cost.d2h_bytes,
            cost.seconds * 1e6
        );
    }
    assert_eq!(resident.seconds, 0.0);
    assert!(
        adaptive_cost.seconds > 0.0,
        "half the optimizer shard is off-device"
    );
    assert!(adaptive_cost.seconds < static_cost.seconds);
    assert!(adaptive_cost.h2d_bytes < static_cost.h2d_bytes);
    println!("adaptive placement streams less over PCIe than the static policy — OK");

    // --- model data at paper scale ----------------------------------------
    let n = TransformerConfig::gpt2_10b().transformer_params();
    println!("\nGPT-2 10B model data per device (fp16 + fp32 Adam states):");
    for (stage, label) in [
        (ZeroStage::One, "ZeRO-1"),
        (ZeroStage::Two, "ZeRO-2"),
        (ZeroStage::Three, "ZeRO-3"),
    ] {
        let bytes = model_data_bytes_per_device(stage, n, 8);
        println!(
            "  {label} over 8 GPUs: {:.1} GiB",
            bytes as f64 / (1u64 << 30) as f64
        );
    }
}
