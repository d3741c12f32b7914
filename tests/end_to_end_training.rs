//! Integration: full engine-level training paths across crates — GPT with
//! ZeRO, BERT serially vs sequence-parallel, mixed precision end to end.

use colossalai::comm::{CommStats, OpKind, World};
use colossalai::core::{
    build_bert, build_gpt, check_model, initialize, Config, OptimizerSpec, ParallelAxis,
    ParallelContext, ZooModel,
};
use colossalai::models::data::SyntheticText;
use colossalai::models::{Gpt, TransformerConfig};
use colossalai::parallel::bucket::BucketPlan;
use colossalai::parallel::data_parallel::flatten_params;
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::{system_i, system_ii};
use colossalai_autograd::Layer;

fn tiny_gpt_cfg() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 13,
        max_seq: 6,
    }
}

#[test]
fn gpt_engine_with_zero_matches_ddp_engine() {
    let cfg = tiny_gpt_cfg();
    let data = SyntheticText::new(cfg.vocab, 5);

    let run = |config_json: &str| -> Vec<f32> {
        let world = World::new(system_ii());
        let config = Config::from_json(config_json).unwrap();
        let mut out = world.run_on(2, |ctx| {
            let mut rng = init::rng(4242);
            let model: Box<dyn Layer> = Box::new(Gpt::new(&cfg, &mut rng));
            let mut engine = initialize(
                ctx,
                &config,
                2,
                model,
                OptimizerSpec::AdamW {
                    lr: 0.01,
                    weight_decay: 0.0,
                },
            );
            for step in 0..4u64 {
                let tokens = data.batch(2, cfg.max_seq, step);
                let local = tokens.chunk(0, 2).swap_remove(ctx.rank());
                engine.zero_grad();
                let logits = engine.forward(&local);
                // next-token loss against the synthetic recurrence
                let vocab = cfg.vocab;
                let flat = logits.reshape([cfg.max_seq, vocab]);
                let targets = data.next_tokens(&local);
                let (_, d) = colossalai::tensor::ops::cross_entropy(&flat, &targets);
                let _ = engine.backward(&d.reshaped(logits.shape().clone()));
                assert!(engine.step());
            }
            flatten_params(engine.model_mut()).into_vec()
        });
        out.swap_remove(0)
    };

    let plain = run("{}");
    for stage in 1..=3 {
        let z = run(&format!(r#"{{ "zero": {{ "stage": {stage} }} }}"#));
        assert_eq!(
            z, plain,
            "ZeRO-{stage} engine diverged from plain DP engine"
        );
    }

    // ZeRO beside tensor and sequence parallelism: each layout with ZeRO
    // trains to the bits of the same layout without it, and its one-rank
    // form (2.5D at DP1) runs the marked buckets over a one-rank ZeRO group
    for (ranks, parallel, model, stages) in [
        (
            4,
            r#""tensor": { "size": 2, "mode": "1d" }, "data": 2"#,
            ZooModel::Gpt,
            1..=3,
        ),
        (
            8,
            r#""tensor": { "size": 4, "mode": "2d" }, "data": 2"#,
            ZooModel::Gpt,
            1..=3,
        ),
        (
            4,
            r#""tensor": { "size": 2, "mode": "sequence" }, "data": 2"#,
            ZooModel::Bert,
            2..=2,
        ),
        (
            8,
            r#""tensor": { "size": 8, "mode": "2.5d", "depth": 2 }"#,
            ZooModel::Gpt,
            2..=2,
        ),
    ] {
        let layout = |zero: &str, clip: &str| {
            let json = format!(r#"{{ "parallel": {{ {parallel} }}, "grad_clip": {clip}{zero} }}"#);
            layout_run(ranks, &Config::from_json(&json).unwrap(), model)
        };
        let plain = layout("", "0");
        let plain_clipped = layout("", "0.5");
        assert_ne!(
            plain.params, plain_clipped.params,
            "{parallel}: the clip must fire"
        );
        for stage in stages {
            let zero = format!(r#", "zero": {{ "stage": {stage} }}"#);
            let what = format!("{parallel}, ZeRO-{stage}");
            let z = layout(&zero, "0");
            assert_eq!(
                z.params, plain.params,
                "{what} diverged from the layout without ZeRO"
            );
            // per step, what ZeRO changes in the reduction, once per bucket
            // and data-parallel group: its data-parallel collective (an
            // all-reduce at stage 1, a reduce-scatter from stage 2, over a
            // one-rank group too) replaces the layout's (an all-reduce, if
            // the group has peers), and a parameter all-gather joins it.
            // The replica all-reduces stay
            let n = z.dp_collectives as i64;
            let replaced = if z.dp_size > 1 { n } else { 0 };
            let (ar, rs) = if stage == 1 { (n, 0) } else { (0, n) };
            let delta = |kind| {
                (z.stats.ops_of(kind) as i64 - plain.stats.ops_of(kind) as i64) / STEPS as i64
            };
            assert_eq!(
                [
                    delta(OpKind::AllReduce),
                    delta(OpKind::ReduceScatter),
                    delta(OpKind::AllGather)
                ],
                [ar - replaced, rs, n],
                "{what}: collectives per step"
            );
            // a clip that fires: the norm is agreed over every rank instead
            // of the tensor group, and the replicas stay in lockstep
            let z = layout(&zero, "0.5");
            for (rank, (got, want)) in z.params.iter().zip(&plain_clipped.params).enumerate() {
                let gap = got
                    .iter()
                    .zip(want)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f32::max);
                assert!(gap <= 1e-6, "{what} + clip: rank {rank} is {gap:e} away");
                let replica = z.replica_of[rank];
                assert_eq!(
                    got, &z.params[replica],
                    "{what} + clip: rank {rank} diverged from rank {replica}"
                );
            }
        }
    }
}

const STEPS: u64 = 20;

/// What [`layout_run`] reports.
struct LayoutRun {
    /// Per rank, the final parameters.
    params: Vec<Vec<f32>>,
    stats: CommStats,
    /// Per rank, the lowest rank of its data-parallel group.
    replica_of: Vec<usize>,
    /// Gradient buckets summed over all data-parallel groups: the number
    /// of data-parallel collectives one reduction issues.
    dp_collectives: usize,
    dp_size: usize,
}

/// [`STEPS`] AdamW steps of a zoo `model` through `initialize()` under
/// `config` on `ranks` devices, with `½‖logits‖²` as the loss; the two
/// ranks of a data-parallel pair read different tokens.
fn layout_run(ranks: usize, config: &Config, model: ZooModel) -> LayoutRun {
    let cfg = TransformerConfig {
        layers: 1,
        hidden: 8,
        heads: 4,
        mlp_ratio: 2,
        vocab: 8,
        max_seq: 4,
    };
    check_model(config, model, &cfg, 4).unwrap();
    let world = World::new(system_i());
    let out = world.run_on(ranks, |ctx| {
        let layer = match model {
            ZooModel::Bert => build_bert(ctx, config, ranks, &cfg, 77),
            _ => build_gpt(ctx, config, ranks, &cfg, 77),
        };
        let spec = OptimizerSpec::AdamW {
            lr: 0.01,
            weight_decay: 0.01,
        };
        let mut engine = initialize(ctx, config, ranks, layer, spec);
        let pctx = ParallelContext::new(config, ctx.rank(), ranks);
        let replica = pctx.axis_rank(ParallelAxis::Data);
        for step in 0..STEPS as usize {
            // every sequence differs, so every row group sums distinct shares
            let ids = (0..16).map(|i| ((5 * i + 3 * (i / 4) + 7 * replica + step) % 8) as f32);
            let tokens = Tensor::from_vec([4, cfg.max_seq], ids.collect());
            engine.zero_grad();
            let logits = engine.forward(&tokens);
            let _ = engine.backward(&logits);
            assert!(engine.step());
        }
        let dp = pctx.group_members(ParallelAxis::Data);
        let buckets = BucketPlan::for_model(engine.model_mut(), config.bucket_bytes()).buckets;
        let params = flatten_params(engine.model_mut()).into_vec();
        (params, dp[0], buckets.len(), dp.len())
    });
    let dp = out[0].3;
    LayoutRun {
        params: out.iter().map(|o| o.0.clone()).collect(),
        stats: world.stats(),
        replica_of: out.iter().map(|o| o.1).collect(),
        dp_collectives: out.iter().map(|o| o.2).sum::<usize>() / dp,
        dp_size: dp,
    }
}

#[test]
fn mixed_precision_engine_trains_gpt() {
    let cfg = tiny_gpt_cfg();
    let data = SyntheticText::new(cfg.vocab, 6);
    let world = World::new(system_i());
    let losses = world.run_on(1, |ctx| {
        let config = Config::from_json(r#"{ "mixed_precision": true, "grad_clip": 5.0 }"#).unwrap();
        let mut rng = init::rng(4243);
        let model: Box<dyn Layer> = Box::new(Gpt::new(&cfg, &mut rng));
        let mut engine = initialize(
            ctx,
            &config,
            1,
            model,
            OptimizerSpec::AdamW {
                lr: 0.02,
                weight_decay: 0.0,
            },
        );
        let mut losses = Vec::new();
        for step in 0..12u64 {
            let tokens = data.batch(1, cfg.max_seq, step % 2); // cycle 2 batches
            engine.zero_grad();
            let logits = engine.forward(&tokens);
            let vocab = cfg.vocab;
            let flat = logits.reshape([cfg.max_seq, vocab]);
            let targets = data.next_tokens(&tokens);
            let (loss, d) = colossalai::tensor::ops::cross_entropy(&flat, &targets);
            let _ = engine.backward(&d.reshaped(logits.shape().clone()));
            if engine.step() {
                losses.push(loss);
            }
        }
        losses
    });
    let l = &losses[0];
    assert!(
        l.len() >= 10,
        "most steps should succeed under loss scaling"
    );
    assert!(
        l.last().unwrap() < &(l[0] * 0.9),
        "fp16 training must still converge: {l:?}"
    );
}

#[test]
fn bert_mlm_training_on_masked_synthetic_text() {
    // the Wikipedia-substitute MLM pipeline end to end: mask tokens,
    // predict the originals at the masked positions, loss must fall
    use colossalai::models::Bert;
    let cfg = TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        vocab: 17, // vocab-1 is the mask id
        max_seq: 8,
    };
    let data = SyntheticText::new(cfg.vocab, 21);
    let mut rng = init::rng(2200);
    let mut bert = Bert::new(&cfg, &mut rng);
    let mut losses: Vec<(u64, f32)> = Vec::new();
    for step in 0..72u64 {
        let tokens = data.batch(2, cfg.max_seq, step % 3);
        let (masked, targets, positions) = data.mask_for_mlm(&tokens, 0.25, step % 3);
        if targets.is_empty() {
            continue;
        }
        bert.zero_grad();
        let logits = bert.forward(&masked); // [2, s, vocab]
                                            // loss only at masked positions
        let vocab = cfg.vocab;
        let rows: Vec<Tensor> = positions
            .iter()
            .map(|&p| logits.reshape([2 * cfg.max_seq, vocab]).narrow(0, p, 1))
            .collect();
        let picked = Tensor::cat(&rows, 0);
        let (loss, dpicked) = colossalai::tensor::ops::cross_entropy(&picked, &targets);
        losses.push((step % 3, loss));
        // scatter gradient back to full logits
        let mut dlogits = Tensor::zeros([2 * cfg.max_seq, vocab]);
        for (i, &p) in positions.iter().enumerate() {
            for v in 0..vocab {
                dlogits.set(&[p, v], dpicked.at(&[i, v]));
            }
        }
        let _ = bert.backward(&dlogits.reshaped([2, cfg.max_seq, vocab]));
        bert.visit_params(&mut |p| {
            let g = p.grad().clone();
            p.value_mut().axpy(-0.05, &g);
        });
    }
    // The corpus cycles through 3 fixed batches, so convergence must be
    // judged per batch: comparing step N's loss against step 0's would
    // compare losses of *different* data whose difficulty differs.
    for phase in 0..3u64 {
        let ph: Vec<f32> = losses
            .iter()
            .filter(|&&(p, _)| p == phase)
            .map(|&(_, l)| l)
            .collect();
        assert!(
            ph.len() >= 2,
            "batch {phase} must be trained more than once"
        );
        assert!(
            ph.last().unwrap() < &(ph[0] * 0.8),
            "MLM loss must fall on every batch of the deterministic corpus; batch {phase}: {ph:?}"
        );
    }
}

#[test]
fn virtual_time_reflects_topology() {
    // the same DP training is slower (virtual time) on System II than on
    // System I because gradient all-reduces cross PCIe
    let cfg = tiny_gpt_cfg();
    let data = SyntheticText::new(cfg.vocab, 7);
    let run = |cluster: colossalai::topology::Cluster| -> f64 {
        let world = World::new(cluster);
        let clocks = world.run_on(4, |ctx| {
            let config = Config::from_json("{}").unwrap();
            let mut rng = init::rng(4244);
            let model: Box<dyn Layer> = Box::new(Gpt::new(&cfg, &mut rng));
            let mut engine = initialize(
                ctx,
                &config,
                4,
                model,
                OptimizerSpec::Sgd {
                    lr: 0.01,
                    momentum: 0.0,
                },
            );
            for step in 0..2u64 {
                let tokens = data.batch(4, cfg.max_seq, step);
                let local = tokens.chunk(0, 4).swap_remove(ctx.rank());
                engine.zero_grad();
                let logits = engine.forward(&local);
                let flat = logits.reshape([cfg.max_seq, cfg.vocab]);
                let targets = data.next_tokens(&local);
                let (_, d) = colossalai::tensor::ops::cross_entropy(&flat, &targets);
                let _ = engine.backward(&d.reshaped(logits.shape().clone()));
                engine.step();
            }
            ctx.clock()
        });
        clocks.into_iter().fold(0.0, f64::max)
    };
    let t_i = run(system_i());
    let t_ii = run(system_ii());
    assert!(
        t_ii > t_i,
        "System II ({t_ii:.6}s) must be slower than System I ({t_i:.6}s)"
    );
}
