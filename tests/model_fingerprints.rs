//! Golden fingerprints of the full models, frozen from the per-mode model
//! copies (`vit1d` / `gpt1d` / `bert1d` / `bert_sp`) and the Fig 7 classifier
//! harness before the one `TensorParallel` seam replaced them (PR 16), and
//! reproduced here by the one model definition under the matching mode:
//! FNV-1a 64 over every rank's per-step loss bits and over every rank's final
//! parameter bits, in visit order. A change to how a model is assembled must
//! move none of them.

use colossalai::comm::{DeviceCtx, World};
use colossalai::models::data::{SyntheticText, SyntheticVision};
use colossalai::models::{Bert, Gpt, TransformerConfig, VisionTransformer};
use colossalai::models::{Layout, Serial, TensorParallel, TransformerBlock};
use colossalai::parallel::tp25d::{tile_x_25d, Grid25d, Linear25d};
use colossalai::parallel::tp2d::{tile_of, Grid2d, Linear2d};
use colossalai::parallel::tp3d::{tile_x_3d, tile_y_3d, Grid3d, Linear3d};
use colossalai::parallel::{SequenceParallel, TensorParallel1d};
use colossalai::tensor::ops::{cross_entropy, relu, relu_grad};
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::system_i;
use colossalai_autograd::Layer;

const LR: f32 = 0.05;
const STEPS: usize = 4;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sgd(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| {
        let g = p.grad().clone();
        p.value_mut().axpy(-LR, &g);
    });
    layer.zero_grad();
}

fn params_of(layer: &mut dyn Layer) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.extend_from_slice(p.value().data()));
    out
}

/// `(losses, params)` fingerprints of a run: one `(per-step losses, final
/// parameters)` pair per rank, hashed in rank order.
fn fingerprint(ranks: &[(Vec<f32>, Vec<f32>)]) -> (u64, u64) {
    let bits =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };
    (
        fnv1a(ranks.iter().flat_map(|(l, _)| bits(l))),
        fnv1a(ranks.iter().flat_map(|(_, p)| bits(p))),
    )
}

fn check(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (losses, params) = ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// Runs `rank_fn` on `p` simulated devices (or inline for `p == 1`, where
/// there is no device) and fingerprints what the ranks return.
fn run(
    p: usize,
    rank_fn: impl Fn(Option<&DeviceCtx>) -> (Vec<f32>, Vec<f32>) + Sync,
) -> (u64, u64) {
    if p == 1 {
        return fingerprint(&[rank_fn(None)]);
    }
    let world = World::new(system_i());
    fingerprint(&world.run_on(p, |ctx| rank_fn(Some(ctx))))
}

fn model_cfg() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        hidden: 8,
        heads: 4,
        mlp_ratio: 2,
        vocab: 12,
        max_seq: 6,
    }
}

const PATCH_DIM: usize = 6;

/// Serial for the inline run, 1D over the whole `p`-rank world otherwise.
fn mode(ctx: Option<&DeviceCtx>, p: usize) -> Box<dyn TensorParallel> {
    match ctx {
        None => Box::new(Serial),
        Some(ctx) => Box::new(TensorParallel1d::new(ctx, &ctx.world_group(p))),
    }
}

fn vit_run(mut vit: VisionTransformer) -> (Vec<f32>, Vec<f32>) {
    let cfg = model_cfg();
    let data = SyntheticVision::new(cfg.max_seq, PATCH_DIM, cfg.vocab, 41);
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let (x, t) = data.batch(4, step as u64);
        let logits = vit.forward(&x);
        let (loss, d) = cross_entropy(&logits, &t);
        losses.push(loss);
        let _ = vit.backward(&d);
        sgd(&mut vit);
    }
    (losses, params_of(&mut vit))
}

fn gpt_run(mut gpt: Gpt) -> (Vec<f32>, Vec<f32>) {
    let cfg = model_cfg();
    let data = SyntheticText::new(cfg.vocab, 42);
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let (loss, d) = gpt.lm_loss(&data.batch(2, cfg.max_seq, step as u64));
        losses.push(loss);
        let _ = gpt.backward(&d);
        sgd(&mut gpt);
    }
    (losses, params_of(&mut gpt))
}

fn bert_run(mut bert: Bert) -> (Vec<f32>, Vec<f32>) {
    let cfg = model_cfg();
    let data = SyntheticText::new(cfg.vocab, 43);
    let mut losses = Vec::new();
    for step in 0..STEPS {
        let tokens = data.batch(2, cfg.max_seq, step as u64);
        let (masked, targets, positions) = data.mask_for_mlm(&tokens, 0.4, step as u64);
        assert!(!targets.is_empty(), "step {step} masks nothing");
        let (loss, d) = bert.mlm_loss(&masked, &targets, &positions);
        losses.push(loss);
        let _ = bert.backward(&d);
        sgd(&mut bert);
    }
    (losses, params_of(&mut bert))
}

#[test]
fn serial_and_one_d_models_reproduce_the_frozen_fingerprints() {
    let cfg = model_cfg();
    // (ranks; 1 = serial), then the ViT, GPT and BERT fingerprints
    let golden = [
        (
            1usize,
            (0x6e73_8dde_7d63_5081, 0xd393_7976_df17_c436),
            (0x3d58_bca7_c614_da21, 0xc1d5_0114_8333_35a7),
            (0xf858_361a_a971_a62f, 0xed3e_af59_725c_70d4),
        ),
        (
            2,
            (0x62bf_44f9_494d_1cbd, 0x3043_042d_d544_abd1),
            (0x53d3_df6b_5710_0c1d, 0xddde_fb9b_2c19_0fc2),
            (0x005f_e5b2_063b_bcd5, 0x6050_279b_4018_f7a9),
        ),
        (
            4,
            (0xbfca_d8bc_65fe_b1b5, 0x495a_a0f1_7505_8480),
            (0x30b9_8ac6_2c3b_0665, 0x0208_697d_c52b_928f),
            (0xee84_3457_31a6_3a85, 0x19d0_6af6_4572_f2a7),
        ),
    ];
    for (p, want_vit, want_gpt, want_bert) in golden {
        let vit = run(p, |ctx| {
            let mut rng = init::rng(7001);
            let mode = mode(ctx, p);
            vit_run(VisionTransformer::with_mode(
                mode.as_ref(),
                &cfg,
                PATCH_DIM,
                &mut rng,
            ))
        });
        check(&format!("vit p={p}"), vit, want_vit);
        let gpt = run(p, |ctx| {
            gpt_run(Gpt::with_mode(mode(ctx, p), &cfg, &mut init::rng(7002)))
        });
        check(&format!("gpt p={p}"), gpt, want_gpt);
        let bert = run(p, |ctx| {
            bert_run(Bert::with_mode(mode(ctx, p), &cfg, &mut init::rng(7003)))
        });
        check(&format!("bert p={p}"), bert, want_bert);
    }
}

#[test]
fn sequence_parallel_block_reproduces_the_frozen_fingerprint() {
    // no loss head on a bare block: the objective is ||y||^2 / 2 over the
    // local sub-sequence, so dL/dy = y
    let (dim, heads, ratio, p) = (8usize, 2usize, 2usize, 4usize);
    let got = run(p, |ctx| {
        let ctx = ctx.unwrap();
        let mode = SequenceParallel::new(ctx, &ctx.world_group(p));
        let mut rng = init::rng(7004);
        let mut blk = TransformerBlock::with_mode(&mode, "blk", dim, heads, ratio, false, &mut rng);
        let mut data = init::rng(7005);
        let mut losses = Vec::new();
        for _ in 0..STEPS {
            let x = init::uniform([2, 8, dim], -1.0, 1.0, &mut data);
            let y = blk.forward(&mode.shard(&x, Layout::Stream));
            losses.push(y.data().iter().map(|v| v * v).sum::<f32>() / 2.0);
            let _ = blk.backward(&y);
            sgd(&mut blk);
        }
        (losses, params_of(&mut blk))
    });
    check(
        "sequence block p=4",
        got,
        (0x3bc7_f574_5bf8_90b0, 0xa3f5_32b0_e5cf_8d25),
    );
}

/// The Fig 7 two-layer classifier (`h -> h -> 8`, ReLU between, no biases)
/// under one advanced mode, as this rank sees it: the two layers, how to cut
/// a global `[8, *]` matrix into this rank's input / output tile, and how to
/// gather an output tile back to the full matrix.
struct Classifier {
    l1: Box<dyn Layer>,
    l2: Box<dyn Layer>,
    tile_in: Box<dyn Fn(&Tensor) -> Tensor>,
    tile_out: Box<dyn Fn(&Tensor) -> Tensor>,
    gather_in: Box<dyn Fn(&Tensor) -> Tensor>,
    gather_out: Box<dyn Fn(&Tensor) -> Tensor>,
}

fn classifier(ctx: &DeviceCtx, mode: &str, p: usize, w1: &Tensor, w2: &Tensor) -> Classifier {
    let members: Vec<usize> = (0..p).collect();
    let c = ctx.clone();
    match mode {
        "2d" => {
            let g = Grid2d::new(ctx, &members);
            let (j, row, col, g2) = (g.j, g.row, g.col, g.clone());
            let tile = move |t: &Tensor| tile_of(t, j, row, col);
            let gather = move |t: &Tensor| {
                let row = g2.row_group.all_gather_cat(&c, t.clone(), 1);
                g2.col_group.all_gather_cat(&c, row, 0)
            };
            Classifier {
                l1: Box::new(Linear2d::from_global(ctx, &g, "l1", w1, None)),
                l2: Box::new(Linear2d::from_global(ctx, &g, "l2", w2, None)),
                tile_in: Box::new(tile),
                tile_out: Box::new(tile),
                gather_in: Box::new(gather.clone()),
                gather_out: Box::new(gather),
            }
        }
        "2.5d" => {
            let g = Grid25d::new(ctx, &members, 2);
            let (g1, g2) = (g.clone(), g.clone());
            let tile = move |t: &Tensor| tile_x_25d(t, &g1);
            let gather = move |t: &Tensor| {
                let row = g2.grid2d.row_group.all_gather_cat(&c, t.clone(), 1);
                let layer = g2.grid2d.col_group.all_gather_cat(&c, row, 0);
                g2.depth_group.all_gather_cat(&c, layer, 0)
            };
            Classifier {
                l1: Box::new(Linear25d::from_global(ctx, &g, "l1", w1, None)),
                l2: Box::new(Linear25d::from_global(ctx, &g, "l2", w2, None)),
                tile_in: Box::new(tile.clone()),
                tile_out: Box::new(tile),
                gather_in: Box::new(gather.clone()),
                gather_out: Box::new(gather),
            }
        }
        "3d" => {
            let g = Grid3d::new(ctx, &members);
            let (g1, g2, g3, g4) = (g.clone(), g.clone(), g.clone(), g.clone());
            let c2 = c.clone();
            Classifier {
                l1: Box::new(Linear3d::from_global(ctx, &g, "l1", w1, None)),
                l2: Box::new(Linear3d::from_global(ctx, &g, "l2", w2, None)),
                tile_in: Box::new(move |t| tile_x_3d(t, &g1)),
                tile_out: Box::new(move |t| tile_y_3d(t, &g2)),
                gather_in: Box::new(move |t| {
                    let rows_k = g3.k_group.all_gather_cat(&c, t.clone(), 0);
                    let rows_ik = g3.i_group.all_gather_cat(&c, rows_k, 0);
                    g3.j_group.all_gather_cat(&c, rows_ik, 1)
                }),
                gather_out: Box::new(move |t| {
                    let rows_j = g4.j_group.all_gather_cat(&c2, t.clone(), 0);
                    let rows_ij = g4.i_group.all_gather_cat(&c2, rows_j, 0);
                    g4.k_group.all_gather_cat(&c2, rows_ij, 1)
                }),
            }
        }
        _ => unreachable!(),
    }
}

#[test]
fn fig7_classifier_layers_reproduce_the_frozen_fingerprints() {
    // the hand-wired harness `fig7_convergence` part 2 ran before it trained
    // the zoo ViT: each layer's output is gathered and re-cut into the next
    // layer's input layout (a no-op re-slice under 2D / 2.5D)
    let h = 16;
    let data = SyntheticVision::new(4, 4, 8, 13);
    let golden = [
        ("2d", 4usize, (0x2698_3191_fc0d_0c1d, 0xb115_3ffa_8dcd_998f)),
        ("2.5d", 8, (0x13fb_11e4_fc10_8595, 0xd2f7_d5d1_44e4_2ab5)),
        ("3d", 8, (0x13fb_11e4_fc10_8595, 0x925f_7212_c9be_af63)),
    ];
    for (mode, p, want) in golden {
        let got = run(p, |ctx| {
            let ctx = ctx.unwrap();
            let mut rng = init::rng(2000);
            let w1 = init::lecun_normal(h, h, &mut rng);
            let w2 = init::lecun_normal(h, 8, &mut rng);
            let mut m = classifier(ctx, mode, p, &w1, &w2);
            let mut losses = Vec::new();
            for step in 0..20 {
                let (x, t) = data.batch(8, step as u64);
                let h_tile = m.l1.forward(&(m.tile_in)(&x.reshape([8, h])));
                let mid = (m.gather_out)(&relu(&h_tile));
                let logits = (m.gather_out)(&m.l2.forward(&(m.tile_in)(&mid)));
                let (loss, dlogits) = cross_entropy(&logits, &t);
                losses.push(loss);
                let dmid = (m.gather_in)(&m.l2.backward(&(m.tile_out)(&dlogits)));
                let dh = (m.tile_out)(&dmid).zip(&relu_grad(&h_tile), |a, b| a * b);
                let _ = m.l1.backward(&dh);
                sgd(m.l1.as_mut());
                sgd(m.l2.as_mut());
            }
            let mut params = params_of(m.l1.as_mut());
            params.extend(params_of(m.l2.as_mut()));
            (losses, params)
        });
        check(&format!("fig7 classifier {mode}"), got, want);
    }
}
