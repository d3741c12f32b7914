//! The paper models' staged backward (Section 3.2, Fig 6): GPT, BERT and ViT
//! fire one stage per entry of their layer list, so a data-parallel bucket
//! launches as soon as its block's gradients are final.
//!
//! * Coverage: under serial, 1D and 2D mode every model fires `layers + 4`
//!   stages (ViT `layers + 5`: its mean pool is a stage without
//!   parameters), the stages cover the visit-order parameter list as a
//!   growing suffix, and `dx` and every gradient are bitwise those of the
//!   plain backward.
//! * Overlap under tensor parallelism: a DP2 x TP2 (1D) GPT through
//!   `initialize()` with one bucket per parameter, whose all-reduces launch
//!   between the blocks' tensor-parallel collectives, trains to the same
//!   bits as with one bucket launched at the end.

use colossalai::comm::World;
use colossalai::core::{
    build_bert, build_gpt, build_vit, initialize, Config, OptimizerSpec, ParallelAxis,
    ParallelContext,
};
use colossalai::models::TransformerConfig;
use colossalai::parallel::data_parallel::flatten_params;
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::system_i;
use colossalai_autograd::Layer;

const PATCH_DIM: usize = 4;

fn model_cfg() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 4,
        mlp_ratio: 2,
        vocab: 8,
        max_seq: 4,
    }
}

/// Every parameter gradient of `model`, in visit order.
fn grads(model: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.grad().clone()));
    out
}

fn assert_bitwise(a: &[Tensor], b: &[Tensor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: gradient count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.data(), y.data(), "{what}: gradient {i}");
    }
}

/// One staged and one plain backward of `model` on `x`, with the forward's
/// own output as the upstream gradient: the stage count, suffix coverage
/// and bitwise equality the module docs name.
fn check_stages(model: &mut dyn Layer, x: &Tensor, want_stages: usize, what: &str) {
    let dy = model.forward(x);
    model.zero_grad();
    let mut fired: Vec<Tensor> = Vec::new();
    let mut stages = 0;
    let dx_staged = model.backward_staged(&dy, &mut |stage| {
        // backward order: each stage is the slice just before the suffix
        // the earlier stages produced
        fired.splice(0..0, stage.iter().cloned());
        stages += 1;
    });
    assert_eq!(stages, want_stages, "{what}: stages");
    let staged = grads(model);
    assert_bitwise(&fired, &staged, what);

    model.zero_grad();
    let _ = model.forward(x);
    let dx_plain = model.backward(&dy);
    assert_eq!(dx_staged.data(), dx_plain.data(), "{what}: dx");
    assert_bitwise(&staged, &grads(model), what);
}

#[test]
fn every_model_fires_one_stage_per_layer_under_every_mode() {
    let cfg = model_cfg();
    let mut rng = init::rng(1);
    let patches = init::uniform([4, cfg.max_seq, PATCH_DIM], -1.0, 1.0, &mut rng);
    let tokens = Tensor::from_vec([4, cfg.max_seq], (0..16).map(|t| (t % 8) as f32).collect());
    let world = World::new(system_i());
    for (size, json) in [
        (1, "{}"),
        (
            2,
            r#"{ "parallel": { "tensor": { "size": 2, "mode": "1d" } } }"#,
        ),
        (
            4,
            r#"{ "parallel": { "tensor": { "size": 4, "mode": "2d" } } }"#,
        ),
    ] {
        let config = Config::from_json(json).unwrap();
        world.run_on(size, |ctx| {
            let what = |model| format!("{model} on {size} ranks");
            let mut vit = build_vit(ctx, &config, size, &cfg, PATCH_DIM, 5);
            check_stages(vit.as_mut(), &patches, cfg.layers + 5, &what("vit"));
            let mut gpt = build_gpt(ctx, &config, size, &cfg, 5);
            check_stages(gpt.as_mut(), &tokens, cfg.layers + 4, &what("gpt"));
            let mut bert = build_bert(ctx, &config, size, &cfg, 5);
            check_stages(bert.as_mut(), &tokens, cfg.layers + 4, &what("bert"));
        });
    }
}

/// Three AdamW steps of a DP2 x TP2 (1D) GPT through `initialize()` under
/// the `comm` section `comm`, with `½‖logits‖²` as the loss: every rank's
/// parameters.
fn dp2_tp2_gpt(comm: &str) -> Vec<Tensor> {
    let config = Config::from_json(&format!(
        r#"{{ "parallel": {{ "tensor": {{ "size": 2, "mode": "1d" }}, "data": 2 }}, "comm": {comm} }}"#
    ))
    .unwrap();
    let cfg = model_cfg();
    World::new(system_i()).run_on(4, |ctx| {
        let model = build_gpt(ctx, &config, 4, &cfg, 7);
        let spec = OptimizerSpec::AdamW {
            lr: 0.01,
            weight_decay: 0.01,
        };
        let mut engine = initialize(ctx, &config, 4, model, spec);
        // the two ranks of a tensor group read the same tokens
        let replica = ParallelContext::new(&config, ctx.rank(), 4).axis_rank(ParallelAxis::Data);
        for step in 0..3 {
            let ids = (0..8).map(|i| ((3 * i + 5 * replica + step) % 8) as f32);
            let tokens = Tensor::from_vec([2, cfg.max_seq], ids.collect());
            engine.zero_grad();
            let logits = engine.forward(&tokens);
            let _ = engine.backward(&logits);
            assert!(engine.step());
        }
        flatten_params(engine.model_mut())
    })
}

#[test]
fn per_parameter_buckets_between_tensor_parallel_collectives_keep_every_bit() {
    let per_param = dp2_tp2_gpt(r#"{ "bucket_mb": 0 }"#);
    let one_bucket = dp2_tp2_gpt("{}");
    assert_bitwise(&per_param, &one_bucket, "bucket_mb 0 vs one bucket");
    // the replicas of a tensor rank agree
    assert_eq!(per_param[0].data(), per_param[2].data());
    assert_eq!(per_param[1].data(), per_param[3].data());
}
