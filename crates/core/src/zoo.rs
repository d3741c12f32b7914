//! The parallelized model zoo (Section 4): ready-made ViT / BERT / GPT
//! constructors that read the [`crate::config::Config`] and return the one
//! model definition of `colossalai-models` under the mode the config asks
//! for — "this does not require the users to have domain expertise".
//!
//! Every mode builds every model it can run: serial, 1D, 2D, 2.5D and 3D
//! build all three; sequence parallelism builds BERT (the paper's Figs
//! 12-13 workload) and rejects the causal GPT and the sequence-pooling ViT.
//! A model whose dimensions the mesh cannot cut evenly is rejected by
//! [`check_model`], which names the dimension — call it before
//! `World::run_on`, where an `Err` is still an `Err` and not a panicked rank.
//!
//! A model the zoo returns carries its own gradient plan: the sequence and
//! mesh modes write, on each parameter they replicate, the member lists of
//! the groups that sum its gradient (`Param::replicas`), so the gradient
//! reducer needs nothing from the config and the zoo returns no groups.

use crate::config::Config;
use crate::context::{ParallelAxis, ParallelContext};
use colossalai_autograd::Layer;
use colossalai_comm::DeviceCtx;
use colossalai_models::{Bert, Gpt, Serial, TensorParallel, TransformerConfig, VisionTransformer};
use colossalai_parallel::mesh::MeshLayout;
use colossalai_parallel::{MeshParallel, SequenceParallel, TensorParallel1d, TpMode};
use colossalai_tensor::init;

/// Which zoo model a [`check_model`] call is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZooModel {
    /// [`build_vit`] over patches of `patch_dim` raw features.
    Vit { patch_dim: usize },
    /// [`build_gpt`].
    Gpt,
    /// [`build_bert`].
    Bert,
}

/// The mode `config` asks for, as this rank's handle on its tensor group:
/// what the `with_mode` constructors of `colossalai-models` take.
pub fn tensor_parallel(ctx: &DeviceCtx, config: &Config, world: usize) -> Box<dyn TensorParallel> {
    if config.tensor_size() <= 1 {
        return Box::new(Serial);
    }
    let members =
        ParallelContext::new(config, ctx.rank(), world).group_members(ParallelAxis::Tensor);
    match config.tp_mode() {
        None => Box::new(SequenceParallel::new(ctx, &ctx.group(&members))),
        Some(TpMode::OneD) => Box::new(TensorParallel1d::new(ctx, &ctx.group(&members))),
        Some(mode) => Box::new(MeshParallel::new(ctx, mode, &members)),
    }
}

/// Checks that `config`'s tensor mode can run `model` with dimensions `cfg`
/// on a per-rank batch of `batch` samples: the mesh shape, the (model, mode)
/// pair, and every dimension the mode cuts. The error names the mode and the
/// dimension it could not divide.
pub fn check_model(
    config: &Config,
    model: ZooModel,
    cfg: &TransformerConfig,
    batch: usize,
) -> Result<(), String> {
    check_dims(config, model, cfg, Some(batch))
}

fn check_dims(
    config: &Config,
    model: ZooModel,
    cfg: &TransformerConfig,
    batch: Option<usize>,
) -> Result<(), String> {
    config.validate()?;
    let p = config.tensor_size();
    if p <= 1 {
        return Ok(());
    }
    // how many ways the mode cuts the heads, the logits, the rows of a
    // weight, the batch and the sequence
    let (label, heads, logits, weight_rows, batch_parts, seq_parts) = match config.tp_mode() {
        None => match model {
            ZooModel::Gpt => {
                return Err(
                    "sequence parallelism cannot run gpt: ring self-attention is \
                     bidirectional and the model is causal"
                        .into(),
                )
            }
            ZooModel::Vit { .. } => {
                return Err(
                    "sequence parallelism cannot run vit: the classifier pools over \
                     the patch axis the mode shards (the paper runs it on BERT)"
                        .into(),
                )
            }
            ZooModel::Bert => ("sequence".to_string(), 1, 1, 1, 1, p),
        },
        // the 1D stream is replicated: besides the heads only a vocabulary
        // head is cut, and the ViT's classifier is not one
        Some(mode @ TpMode::OneD) => match model {
            ZooModel::Vit { .. } => (mode.label(), p, 1, 1, 1, 1),
            _ => (mode.label(), p, p, 1, 1, 1),
        },
        // the mesh modes cut the heads and the logits along the branch's
        // hidden axis, the weight rows along the weight's row axes and the
        // batch along the stream's row axes
        Some(mode) => {
            let mesh = MeshLayout::over(mode, mode.grid(p).expect("validated mesh"));
            let parts = |axes: &[usize]| axes.iter().map(|&a| mesh.grid[a]).product::<usize>();
            let branch = parts(&[mesh.branch.cols]);
            let (rows, batch) = (parts(mesh.weight.rows), parts(mesh.stream.rows));
            (mode.label(), branch, branch, rows, batch, 1)
        }
    };
    let mut cuts = vec![
        ("heads", cfg.heads, heads),
        ("hidden", cfg.hidden, weight_rows),
        ("vocab", cfg.vocab, logits),
        ("max_seq", cfg.max_seq, seq_parts),
    ];
    if let ZooModel::Vit { patch_dim } = model {
        cuts.push(("patch_dim", patch_dim, weight_rows));
    }
    if let Some(batch) = batch {
        cuts.push(("per-rank batch", batch, batch_parts));
    }
    for (dim, value, parts) in cuts {
        if !value.is_multiple_of(parts) {
            return Err(format!(
                "{label} tensor parallelism over {p} devices cuts {dim} {parts} ways, \
                 and {dim} = {value} is not divisible by {parts}"
            ));
        }
    }
    Ok(())
}

/// The mode for a `build_*` call, after the checks that need no batch size.
/// A mismatch here is a panic on every rank: call [`check_model`] first.
fn checked_mode(
    ctx: &DeviceCtx,
    config: &Config,
    world: usize,
    model: ZooModel,
    cfg: &TransformerConfig,
) -> Box<dyn TensorParallel> {
    check_dims(config, model, cfg, None).unwrap_or_else(|e| panic!("{e}"));
    tensor_parallel(ctx, config, world)
}

/// Builds a ViT per the config. All ranks must pass the same `seed` so the
/// shards agree on the global initialization. Input and logits are the full
/// tensors on every rank of the tensor group.
pub fn build_vit(
    ctx: &DeviceCtx,
    config: &Config,
    world: usize,
    model_cfg: &TransformerConfig,
    patch_dim: usize,
    seed: u64,
) -> Box<dyn Layer> {
    let mode = checked_mode(ctx, config, world, ZooModel::Vit { patch_dim }, model_cfg);
    let mut rng = init::rng(seed);
    Box::new(VisionTransformer::with_mode(
        mode.as_ref(),
        model_cfg,
        patch_dim,
        &mut rng,
    ))
}

/// Builds a GPT per the config. Its logits stay in the mode's branch layout
/// (vocabulary-sharded under 1D, tiled under 2D / 2.5D / 3D): build
/// [`Gpt::with_mode`] over [`tensor_parallel`] to reach `lm_loss`, which
/// needs no gather.
pub fn build_gpt(
    ctx: &DeviceCtx,
    config: &Config,
    world: usize,
    model_cfg: &TransformerConfig,
    seed: u64,
) -> Box<dyn Layer> {
    let mode = checked_mode(ctx, config, world, ZooModel::Gpt, model_cfg);
    Box::new(Gpt::with_mode(mode, model_cfg, &mut init::rng(seed)))
}

/// Builds a BERT per the config; like [`build_gpt`], the logits stay in the
/// mode's branch layout (`Bert::mlm_loss` is the gather-free loss).
pub fn build_bert(
    ctx: &DeviceCtx,
    config: &Config,
    world: usize,
    model_cfg: &TransformerConfig,
    seed: u64,
) -> Box<dyn Layer> {
    let mode = checked_mode(ctx, config, world, ZooModel::Bert, model_cfg);
    Box::new(Bert::with_mode(mode, model_cfg, &mut init::rng(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_comm::World;
    use colossalai_tensor::Tensor;
    use colossalai_topology::systems::system_i;

    fn model_cfg() -> TransformerConfig {
        TransformerConfig {
            layers: 1,
            hidden: 8,
            heads: 4,
            mlp_ratio: 2,
            vocab: 8,
            max_seq: 4,
        }
    }

    fn config(size: usize, mode: &str) -> Config {
        let depth = if mode == "2.5d" { 2 } else { 1 };
        Config::from_json(&format!(
            r#"{{ "parallel": {{ "tensor": {{ "size": {size}, "mode": "{mode}", "depth": {depth} }} }} }}"#
        ))
        .unwrap()
    }

    #[test]
    fn zoo_builds_every_mode() {
        let cfg = model_cfg();
        let mut rng = init::rng(900);
        let patches = init::uniform([4, 4, 4], -1.0, 1.0, &mut rng);
        let tokens = Tensor::from_vec([4, 4], (0..16).map(|t| (t % 8) as f32).collect());
        let world = World::new(system_i());
        for (size, mode) in [
            (1, "1d"),
            (4, "1d"),
            (4, "2d"),
            (8, "2.5d"),
            (8, "3d"),
            (4, "sequence"),
        ] {
            let config = config(size, mode);
            for model in [
                ZooModel::Vit { patch_dim: 4 },
                ZooModel::Gpt,
                ZooModel::Bert,
            ] {
                if mode == "sequence" && model != ZooModel::Bert {
                    assert!(check_model(&config, model, &cfg, 4).is_err());
                    continue;
                }
                check_model(&config, model, &cfg, 4).unwrap();
                world.run_on(size, |ctx| {
                    let (mut net, x) = match model {
                        ZooModel::Vit { patch_dim } => (
                            build_vit(ctx, &config, size, &cfg, patch_dim, 901),
                            &patches,
                        ),
                        ZooModel::Gpt => (build_gpt(ctx, &config, size, &cfg, 901), &tokens),
                        ZooModel::Bert => (build_bert(ctx, &config, size, &cfg, 901), &tokens),
                    };
                    let y = net.forward(x);
                    assert!(y.data().iter().all(|v| v.is_finite()), "{mode} {model:?}");
                    let _ = net.backward(&y);
                });
            }
        }
    }

    #[test]
    fn inadmissible_pairs_name_the_dimension() {
        let cfg = model_cfg();
        let vit = ZooModel::Vit { patch_dim: 4 };
        let reject = |config: &Config, model, cfg: &TransformerConfig, batch, needle: &str| {
            let err = check_model(config, model, cfg, batch).unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        };
        // a cube of side 2 cuts weight rows 4 ways
        let odd_hidden = TransformerConfig {
            hidden: 10,
            heads: 2,
            ..cfg
        };
        reject(
            &config(8, "3d"),
            ZooModel::Gpt,
            &odd_hidden,
            4,
            "hidden = 10",
        );
        let odd_heads = TransformerConfig { heads: 1, ..cfg };
        reject(&config(4, "2d"), ZooModel::Bert, &odd_heads, 4, "heads = 1");
        reject(&config(4, "1d"), ZooModel::Gpt, &odd_heads, 4, "1D");
        let odd_vocab = TransformerConfig { vocab: 7, ..cfg };
        reject(&config(4, "2d"), vit, &odd_vocab, 4, "vocab = 7");
        reject(&config(8, "2.5d"), vit, &cfg, 6, "per-rank batch = 6");
        reject(
            &config(4, "2d"),
            ZooModel::Vit { patch_dim: 5 },
            &cfg,
            4,
            "patch_dim = 5",
        );
        let odd_seq = TransformerConfig { max_seq: 6, ..cfg };
        reject(
            &config(4, "sequence"),
            ZooModel::Bert,
            &odd_seq,
            4,
            "max_seq = 6",
        );
        reject(&config(4, "sequence"), ZooModel::Gpt, &cfg, 4, "causal");
        // the replicated 1D ViT head takes any class count
        check_model(&config(4, "1d"), vit, &odd_vocab, 4).unwrap();
        // a mesh that is not square / cubic never reaches the dimensions
        let mut lopsided = config(4, "2d");
        lopsided.parallel.tensor.as_mut().unwrap().size = 8;
        reject(&lopsided, vit, &cfg, 4, "does not admit");
    }
}
