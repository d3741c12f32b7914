//! Integration: hybrid parallelism — combinations of data, tensor and
//! pipeline parallelism spanning every crate, checked against serial
//! training ("free combination of these techniques", Section 1).

use colossalai::comm::World;
use colossalai::core::{ParallelAxis, ParallelContext};
use colossalai::models::data::SyntheticVision;
use colossalai::models::{TransformerConfig, VisionTransformer};
use colossalai::parallel::data_parallel::flatten_params;
use colossalai::parallel::TensorParallel1d;
use colossalai::tensor::init;
use colossalai::tensor::ops::cross_entropy;
use colossalai::topology::systems::system_i;
use colossalai_autograd::Layer;

const LR: f32 = 0.05;

fn serial_losses(
    cfg: &TransformerConfig,
    patch_dim: usize,
    data: &SyntheticVision,
    batch: usize,
    steps: usize,
) -> Vec<f32> {
    let mut rng = init::rng(31337);
    let mut vit = VisionTransformer::new(cfg, patch_dim, &mut rng);
    let mut losses = Vec::new();
    for step in 0..steps {
        let (x, t) = data.batch(batch, step as u64);
        vit.zero_grad();
        let logits = vit.forward(&x);
        let (loss, d) = cross_entropy(&logits, &t);
        losses.push(loss);
        let _ = vit.backward(&d);
        vit.visit_params(&mut |p| {
            let g = p.grad().clone();
            p.value_mut().axpy(-LR, &g);
        });
    }
    losses
}

#[test]
fn dp_times_tp_matches_serial() {
    // 4 devices = 2 data-parallel replicas x 2-way tensor parallelism
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 4,
        max_seq: 4,
    };
    let patch_dim = 6;
    let batch = 8;
    let steps = 4;
    let data = SyntheticVision::new(cfg.max_seq, patch_dim, cfg.vocab, 777);
    let want = serial_losses(&cfg, patch_dim, &data, batch, steps);

    let config = colossalai::core::Config::from_json(
        r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d" }, "data": 2 } }"#,
    )
    .unwrap();

    let world = World::new(system_i());
    let results = world.run_on(4, |ctx| {
        let pctx = ParallelContext::new(&config, ctx.rank(), 4);
        let tp_members = pctx.group_members(ParallelAxis::Tensor);
        let dp_members = pctx.group_members(ParallelAxis::Data);
        let tp_group = ctx.group(&tp_members);
        let dp_group = ctx.group(&dp_members);

        let mut rng = init::rng(31337);
        let mode = TensorParallel1d::new(ctx, &tp_group);
        let mut vit = VisionTransformer::with_mode(&mode, &cfg, patch_dim, &mut rng);
        let dp_rank = pctx.axis_rank(ParallelAxis::Data);
        let dp = pctx.degree(ParallelAxis::Data);
        let mut losses = Vec::new();
        for step in 0..steps {
            let (x, t) = data.batch(batch, step as u64);
            // each DP replica takes its slice of the global batch
            let x_local = x.chunk(0, dp).swap_remove(dp_rank);
            let t_local = t[dp_rank * (batch / dp)..(dp_rank + 1) * (batch / dp)].to_vec();
            vit.zero_grad();
            let logits = vit.forward(&x_local);
            let (local_loss, d) = cross_entropy(&logits, &t_local);
            let _ = vit.backward(&d);
            // data-parallel gradient mean across replicas
            let dp2 = dp_group.clone();
            let cloned_ctx = ctx.clone();
            vit.visit_params(&mut |p| {
                let mut red = dp2.all_reduce(&cloned_ctx, p.grad().clone());
                red.scale(1.0 / dp as f32);
                *p.grad_mut() = red;
            });
            vit.visit_params(&mut |p| {
                let g = p.grad().clone();
                p.value_mut().axpy(-LR, &g);
            });
            // average the local losses for reporting parity with serial
            let loss_sum = dp_group
                .all_reduce(ctx, colossalai::tensor::Tensor::scalar(local_loss))
                .item();
            losses.push(loss_sum / dp as f32);
        }
        (losses, flatten_params(&mut vit))
    });

    for (got, want) in results[0].0.iter().zip(&want) {
        assert!(
            (got - want).abs() < 1e-3,
            "hybrid loss {got} vs serial {want}"
        );
    }
    // replicas with the same tensor rank hold identical shards
    assert_eq!(results[0].1.data(), results[2].1.data());
    assert_eq!(results[1].1.data(), results[3].1.data());
}

#[test]
fn config_zoo_engine_compose_end_to_end() {
    // the whole Listing-1 stack with tensor parallelism: JSON config ->
    // model zoo -> engine -> trainer, on 2 TP ranks and on 2 data-parallel
    // replicas of a 2 x 2 mesh
    use colossalai::core::ZooModel;
    use colossalai::core::{build_vit, check_model, initialize, Config, OptimizerSpec, Trainer};

    let model_cfg = TransformerConfig {
        layers: 1,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 4,
        max_seq: 4,
    };
    let data = SyntheticVision::new(4, 6, 4, 99);
    for (ranks, parallel) in [
        (2, r#"{ "tensor": { "size": 2, "mode": "1d" } }"#),
        (8, r#"{ "tensor": { "size": 4, "mode": "2d" }, "data": 2 }"#),
    ] {
        let config = Config::from_json(&format!(
            r#"{{ "parallel": {parallel}, "grad_clip": 1.0 }}"#
        ))
        .unwrap();
        check_model(&config, ZooModel::Vit { patch_dim: 6 }, &model_cfg, 4).unwrap();
        let world = World::new(system_i());
        let losses = world.run_on(ranks, |ctx| {
            let model = build_vit(ctx, &config, ranks, &model_cfg, 6, 1717);
            let engine = initialize(
                ctx,
                &config,
                ranks,
                model,
                OptimizerSpec::AdamW {
                    lr: 0.02,
                    weight_decay: 0.0,
                },
            );
            let mut trainer = Trainer::new(engine);
            trainer.fit(12, |step| data.batch(4, step))
        });
        // every rank computes identical losses (replicated data, sharded math)
        for rank in &losses[1..] {
            assert_eq!(&losses[0], rank, "{parallel}");
        }
        assert!(
            losses[0].last().unwrap() < &(losses[0][0] * 0.9),
            "config-driven TP training must converge under {parallel}: {:?}",
            losses[0]
        );
    }
}

#[test]
fn parallel_context_places_tensor_groups_on_fast_links() {
    // on System II the tensor group (innermost) must land on NVLink pairs
    let config = colossalai::core::Config::from_json(
        r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d" } } }"#,
    )
    .unwrap();
    let cluster = colossalai::topology::systems::system_ii();
    for rank in 0..8 {
        let pctx = ParallelContext::new(&config, rank, 8);
        let tp = pctx.group_members(ParallelAxis::Tensor);
        assert!(
            cluster.fully_nvlinked(&tp),
            "tensor group {tp:?} should ride NVLink on System II"
        );
    }
}
