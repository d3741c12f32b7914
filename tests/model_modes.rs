//! One (model x mode) matrix for the one model definition: ViT, GPT and BERT
//! under serial, 1D, 2D, 2.5D, 3D and sequence parallelism, every pair built
//! from a config JSON through the zoo.
//!
//! * Trajectory: each admitted pair trains 20 steps to the serial loss curve
//!   within the Fig 7 tolerance (no mode sums in the serial order, so none
//!   is bitwise — the bits the rewrite had to keep are pinned by
//!   `model_fingerprints`); each inadmissible pair is an `Err` up front.
//! * Conservation: one forward + backward of the whole ViT (BERT under
//!   sequence parallelism) meters exactly the element-hops of the closed
//!   forms — Table 1 of `volume.rs` summed over the model's linears, plus
//!   the norm, embedding, bias and head / loss collectives, itemised.

use colossalai::comm::{CommStats, World};
use colossalai::core::{check_model, tensor_parallel, Config, ZooModel};
use colossalai::models::data::{SyntheticText, SyntheticVision};
use colossalai::models::{Bert, Gpt, TransformerConfig, VisionTransformer};
use colossalai::parallel::volume::{volume_1d, volume_25d, volume_2d, volume_3d, MatmulShape};
use colossalai::tensor::init;
use colossalai::tensor::ops::cross_entropy;
use colossalai::topology::systems::system_i;
use colossalai_autograd::Layer;

const LR: f32 = 0.05;
const BATCH: usize = 8;
const PATCH_DIM: usize = 12;
/// `fig7_convergence`'s CI gate.
const TOLERANCE: f32 = 1e-4;

const VIT: ZooModel = ZooModel::Vit {
    patch_dim: PATCH_DIM,
};

fn model_cfg() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        hidden: 16,
        heads: 4,
        mlp_ratio: 2,
        vocab: 8,
        max_seq: 8,
    }
}

/// `(devices, config)` of a mode; `"serial"` is one device and no section.
fn config(mode: &str) -> (usize, Config) {
    let size = match mode {
        "serial" => 1,
        "1d" | "2d" | "sequence" => 4,
        _ => 8,
    };
    let json = match mode {
        "serial" => "{}".to_string(),
        _ => format!(
            r#"{{ "parallel": {{ "tensor": {{ "size": {size}, "mode": "{mode}", "depth": 2 }} }} }}"#
        ),
    };
    (size, Config::from_json(&json).unwrap())
}

fn sgd(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| {
        let g = p.grad().clone();
        p.value_mut().axpy(-LR, &g);
    });
    layer.zero_grad();
}

/// Trains `model` for `steps` under `mode`, without the optimizer when
/// `steps == 0` (one forward + backward): every rank's losses, and what the
/// world metered.
fn train(model: ZooModel, mode: &str, steps: usize) -> (Vec<Vec<f32>>, CommStats) {
    let cfg = model_cfg();
    let (size, config) = config(mode);
    check_model(&config, model, &cfg, BATCH).unwrap();
    let update = steps > 0;
    let world = World::new(system_i());
    let losses = world.run_on(size, |ctx| {
        let vision = SyntheticVision::new(cfg.max_seq, PATCH_DIM, cfg.vocab, 11);
        let text = SyntheticText::new(cfg.vocab, 12);
        let tp = tensor_parallel(ctx, &config, size);
        let mut rng = init::rng(4242);
        // one training step of the model, returning its loss
        let mut step: Box<dyn FnMut(u64) -> f32> = match model {
            ZooModel::Vit { patch_dim } => {
                let mut vit = VisionTransformer::with_mode(tp.as_ref(), &cfg, patch_dim, &mut rng);
                Box::new(move |i| {
                    let (x, t) = vision.batch(BATCH, i);
                    let (loss, d) = cross_entropy(&vit.forward(&x), &t);
                    let _ = vit.backward(&d);
                    if update {
                        sgd(&mut vit);
                    }
                    loss
                })
            }
            ZooModel::Gpt => {
                let mut gpt = Gpt::with_mode(tp, &cfg, &mut rng);
                Box::new(move |i| {
                    let (loss, d) = gpt.lm_loss(&text.batch(BATCH, cfg.max_seq, i));
                    let _ = gpt.backward(&d);
                    if update {
                        sgd(&mut gpt);
                    }
                    loss
                })
            }
            ZooModel::Bert => {
                let mut bert = Bert::with_mode(tp, &cfg, &mut rng);
                Box::new(move |i| {
                    let tokens = text.batch(BATCH, cfg.max_seq, i);
                    let (masked, targets, positions) = text.mask_for_mlm(&tokens, 0.3, i);
                    let (loss, d) = bert.mlm_loss(&masked, &targets, &positions);
                    let _ = bert.backward(&d);
                    if update {
                        sgd(&mut bert);
                    }
                    loss
                })
            }
        };
        (0..steps.max(1) as u64).map(&mut step).collect()
    });
    (losses, world.stats())
}

#[test]
fn every_model_trains_to_the_serial_trajectory_under_every_mode() {
    let cfg = model_cfg();
    for model in [VIT, ZooModel::Gpt, ZooModel::Bert] {
        let (serial, _) = train(model, "serial", 20);
        for mode in ["1d", "2d", "2.5d", "3d", "sequence"] {
            if mode == "sequence" && model != ZooModel::Bert {
                // pooling over, or masking along, the axis the mode shards
                let err = check_model(&config(mode).1, model, &cfg, BATCH).unwrap_err();
                assert!(err.contains("sequence parallelism cannot run"), "{err}");
                continue;
            }
            let (ranks, _) = train(model, mode, 20);
            for losses in &ranks {
                let dev = serial[0]
                    .iter()
                    .zip(losses)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    dev <= TOLERANCE,
                    "{model:?} under {mode}: max loss deviation {dev:e}\n{losses:?}\n{:?}",
                    serial[0]
                );
            }
            assert!(
                serial[0][19] < serial[0][0],
                "{model:?} must learn: {:?}",
                serial[0]
            );
        }
    }
}

/// The device groups of a mesh mode, by size: `p` devices, the hidden axis
/// cut `hidden` ways, the batch rows by the `batch` groups.
struct Mesh {
    p: u64,
    hidden: u64,
    batch: Vec<u64>,
}

impl Mesh {
    /// Every device all-reducing `n` elements within its group of size `g`:
    /// `p / g` ring all-reduces of `2 (g - 1) n` element-hops.
    fn all_reduce(&self, g: u64, n: u64) -> u64 {
        2 * (g - 1) * n * self.p / g
    }

    fn row_parts(&self) -> u64 {
        self.batch.iter().product()
    }

    /// A `GradSync` over the batch groups of an `n`-element parameter shard.
    fn row_replicated(&self, n: u64) -> u64 {
        self.batch.iter().map(|&g| self.all_reduce(g, n)).sum()
    }

    /// One LayerNorm over `rows` global rows of width `h`: two statistics
    /// all-reduces forward and two backward over the hidden group, then
    /// gamma and beta summed across the row-splitting groups.
    fn norm(&self, rows: u64, h: u64) -> u64 {
        4 * self.all_reduce(self.hidden, rows / self.row_parts())
            + 2 * self.row_replicated(h / self.hidden)
    }

    /// All-gathering a `full`-element tensor from `p` equal tiles: along the
    /// hidden axis first, then the batch groups innermost first.
    fn gather(&self, full: u64) -> u64 {
        let mut held = full / self.p;
        let mut hops = 0;
        for g in std::iter::once(&self.hidden).chain(self.batch.iter().rev()) {
            hops += self.p * (g - 1) * held;
            held *= g;
        }
        hops
    }
}

#[test]
fn whole_model_traffic_equals_the_closed_forms() {
    let TransformerConfig {
        layers,
        hidden: h,
        mlp_ratio,
        vocab: classes,
        max_seq,
        ..
    } = model_cfg();
    let tokens = BATCH * max_seq;
    let linear = |rows: usize, d_in: usize, d_out: usize| MatmulShape {
        b: 1,
        s: rows,
        h: d_in,
        n: d_out,
    };
    // the ViT's linears: patch projection, per block Q K V O and the two MLP
    // matrices, classifier (on pooled rows); all carry a bias
    let mut linears = vec![linear(tokens, PATCH_DIM, h), linear(BATCH, h, classes)];
    for _ in 0..layers {
        linears.extend([linear(tokens, h, h); 4]);
        linears.push(linear(tokens, h, mlp_ratio * h));
        linears.push(linear(tokens, mlp_ratio * h, h));
    }
    let norms = 2 * layers as u64 + 1;
    let (tokens, h, classes) = (tokens as u64, h as u64, classes as u64);

    // 1D: the stream is replicated, so only the blocks communicate. Megatron
    // counts a block as four linears (fused QKV, O, MLP up, MLP down), each
    // one all-reduce of the stream: Table 1's 2(p-1) S_X
    let (_, stats) = train(VIT, "1d", 0);
    let stream = linear(tokens as usize, h as usize, h as usize);
    assert_eq!(stats.bytes, 4 * layers as u64 * 4 * volume_1d(stream, 4));

    let meshes = [
        (
            "2d",
            Mesh {
                p: 4,
                hidden: 2,
                batch: vec![2],
            },
        ),
        (
            "2.5d",
            Mesh {
                p: 8,
                hidden: 2,
                batch: vec![2, 2],
            },
        ),
        (
            "3d",
            Mesh {
                p: 8,
                hidden: 2,
                batch: vec![2, 2],
            },
        ),
    ];
    for (mode, mesh) in meshes {
        let side = mesh.hidden;
        let items: Vec<(&str, u64)> = vec![
            (
                // 2.5D's row is per depth layer, 3D's per datum where the
                // meter counts hops: both scale to world totals
                "linears (Table 1)",
                linears
                    .iter()
                    .map(|&s| match mode {
                        "2d" => volume_2d(s, 2),
                        "2.5d" => 2 * volume_25d(s, 2, 2),
                        _ => side * volume_3d(s, 2),
                    })
                    .sum(),
            ),
            (
                // Linear3d re-gathers X and W in backward instead of caching
                "3D backward re-gather",
                linears
                    .iter()
                    .filter(|_| mode == "3d")
                    .map(|s| (side - 1) * (s.s_x() + s.s_w()))
                    .sum(),
            ),
            (
                "2.5D depth gradient sum",
                linears
                    .iter()
                    .filter(|_| mode == "2.5d")
                    .map(|s| {
                        let (weight_tile, bias_slice) = (s.s_w() / 4, s.n as u64 / 2);
                        mesh.all_reduce(2, weight_tile) + mesh.all_reduce(2, bias_slice)
                    })
                    .sum(),
            ),
            (
                // summed over the devices holding other rows of the bias slice
                "bias gradients",
                linears
                    .iter()
                    .map(|s| match mode {
                        "3d" => mesh.all_reduce(4, s.n as u64 / side),
                        _ => mesh.all_reduce(2, s.n as u64 / side),
                    })
                    .sum(),
            ),
            ("norm", norms * mesh.norm(tokens, h)),
            (
                "position embedding",
                mesh.row_replicated(max_seq as u64 * h / side),
            ),
            ("classifier gather", mesh.gather(BATCH as u64 * classes)),
        ];
        let (_, stats) = train(VIT, mode, 0);
        let expected: u64 = items.iter().map(|(_, hops)| hops).sum();
        assert_eq!(
            stats.bytes,
            4 * expected,
            "{mode}: metered {} element-hops, closed forms {items:?}",
            stats.elements
        );
    }

    // sequence parallelism (BERT; the ViT pools over the sharded axis): K and
    // V ride the ring forward, their gradients ride it back; every parameter
    // gradient and the loss are summed over the group
    let (p, cfg) = (4u64, model_cfg());
    let n_params = Bert::new(&cfg, &mut init::rng(0)).n_params() as u64;
    let ring = Mesh {
        p,
        hidden: p,
        batch: vec![],
    };
    let kv = tokens * h;
    let items = [
        ("ring all-gather", layers as u64 * 2 * ring.gather(kv)),
        ("ring reduce-scatter", layers as u64 * 2 * (p - 1) * kv),
        ("parameter gradients", ring.all_reduce(p, n_params)),
        ("loss", ring.all_reduce(p, 1)),
    ];
    let (_, stats) = train(ZooModel::Bert, "sequence", 0);
    let expected: u64 = items.iter().map(|(_, hops)| hops).sum();
    assert_eq!(
        stats.bytes,
        4 * expected,
        "sequence: metered {} element-hops, closed forms {items:?}",
        stats.elements
    );
}
