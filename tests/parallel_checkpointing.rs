//! Integration: checkpointing *parallel* training — each tensor-parallel
//! rank saves its shard StateDict; a fresh world restores them and resumes
//! on the identical trajectory (the save/resume workflow of a real
//! distributed training system).

use colossalai::comm::DeviceCtx;
use colossalai::comm::World;
use colossalai::models::{TransformerConfig, VisionTransformer};
use colossalai::parallel::data_parallel::flatten_params;
use colossalai::parallel::TensorParallel1d;
use colossalai::tensor::init;
use colossalai::tensor::ops::cross_entropy;
use colossalai::topology::systems::system_i;
use colossalai_autograd::{Layer, StateDict};

const P: usize = 2;
const LR: f32 = 0.05;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        layers: 1,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 4,
        max_seq: 4,
    }
}

/// This rank's shard of the 1D-parallel ViT whose global init is `seed`.
fn vit_1d(ctx: &DeviceCtx, seed: u64) -> VisionTransformer {
    let mode = TensorParallel1d::new(ctx, &ctx.world_group(P));
    VisionTransformer::with_mode(&mode, &cfg(), 6, &mut init::rng(seed))
}

fn train_steps(vit: &mut VisionTransformer, x: &colossalai::tensor::Tensor, steps: usize) {
    for _ in 0..steps {
        vit.zero_grad();
        let logits = vit.forward(x);
        let (_, d) = cross_entropy(&logits, &[0, 2]);
        let _ = vit.backward(&d);
        vit.visit_params(&mut |p| {
            let g = p.grad().clone();
            p.value_mut().axpy(-LR, &g);
        });
    }
}

#[test]
fn sharded_checkpoints_resume_the_exact_trajectory() {
    let mut rng = init::rng(42);
    let x = init::uniform([2, 4, 6], -1.0, 1.0, &mut rng);

    // phase 1: train 2 steps, checkpoint each rank's shard, train 2 more;
    // record the final parameters
    let world = World::new(system_i());
    let x1 = x.clone();
    let phase1 = world.run_on(P, |ctx| {
        let mut vit = vit_1d(ctx, 2024);
        train_steps(&mut vit, &x1, 2);
        let shard_bytes = StateDict::capture(&mut vit).to_bytes();
        train_steps(&mut vit, &x1, 2);
        (shard_bytes, flatten_params(&mut vit).into_vec())
    });

    // phase 2: a *fresh world* (simulating a restart) restores each rank's
    // shard and replays the last 2 steps — parameters must match exactly
    let world2 = World::new(system_i());
    let checkpoints: Vec<Vec<u8>> = phase1.iter().map(|(b, _)| b.clone()).collect();
    let x2 = x.clone();
    let resumed = world2.run_on(P, |ctx| {
        // different init seed: everything must come from the checkpoint
        let mut vit = vit_1d(ctx, 999);
        let sd = StateDict::from_bytes(&checkpoints[ctx.rank()]).unwrap();
        sd.restore(&mut vit).unwrap();
        train_steps(&mut vit, &x2, 2);
        flatten_params(&mut vit).into_vec()
    });

    for (rank, ((_, want), got)) in phase1.iter().zip(&resumed).enumerate() {
        assert_eq!(want, got, "rank {rank} diverged after restore");
    }
}

#[test]
fn restoring_the_wrong_rank_shard_is_rejected_or_detected() {
    // shards have identical names and shapes across ranks, so restoring a
    // *different rank's* shard succeeds structurally but changes the math —
    // verify it actually produces different parameters (i.e. shards are not
    // interchangeable silently-equal data)
    let world = World::new(system_i());
    let shards = world.run_on(P, |ctx| StateDict::capture(&mut vit_1d(ctx, 7)).to_bytes());
    assert_ne!(shards[0], shards[1], "rank shards must differ");
}
