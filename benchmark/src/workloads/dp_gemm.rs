//! `dp_gemm`: the Listing-1 user path. `Config::from_json`, `build_gpt`,
//! `initialize`, then `Engine::{zero_grad, forward, backward, step}` on four
//! data-parallel ranks of System III with default knobs (bucketed gradient
//! sync, overlap on, AdamW). Batch and width are chosen so the GEMMs, the
//! fused ops and the optimizer do most of the host work.

use super::{
    bits_hash, gpt_config, gpt_forward_flops, replica_segment, run_steps, ProbeShape, ReplicaOut,
    Segment, Workload,
};
use crate::measure::{spanned, Spans, SplitMix};
use colossalai_autograd::{AdamW, Layer};
use colossalai_comm::World;
use colossalai_core::{build_gpt, initialize, Config, OptimizerSpec};
use colossalai_models::{Gpt, TransformerConfig};
use colossalai_parallel::bucket::BucketPlan;
use colossalai_parallel::data_parallel::flatten_params;
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::{init, Tensor};
use colossalai_topology::systems::system_iii;
use std::time::Instant;

/// The user's config file: four data-parallel ranks, everything else default.
const CONFIG_JSON: &str = r#"{ "parallel": { "data": 4 } }"#;
const RANKS: usize = 4;
const LR: f32 = 1e-3;
const WEIGHT_DECAY: f32 = 0.01;

pub struct DpGemm {
    model: TransformerConfig,
    seqs_per_rank: usize,
    /// Steps per segment, warm-up included.
    steps: usize,
    weight_seed: u64,
    /// `[step][rank]` token batches `[seqs, seq]` and their next-token targets.
    tokens: Vec<Vec<Tensor>>,
    targets: Vec<Vec<Vec<usize>>>,
    /// Serial full-batch loss per step.
    reference: Vec<f32>,
}

/// Cross-entropy of `[batch, seq, vocab]` logits against one target per
/// position, with the gradient in the logits' shape.
pub fn lm_loss(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let dims = logits.dims().to_vec();
    let flat = logits.reshape([dims[0] * dims[1], dims[2]]);
    let (loss, d) = cross_entropy(&flat, targets);
    (loss, d.reshaped(dims))
}

impl DpGemm {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let model = gpt_config(smoke);
        let (seqs_per_rank, steps) = if smoke { (2, 3) } else { (4, 7) };
        let mut gen = SplitMix::new(seed ^ 0xd9_6e11);
        let weight_seed = gen.next_u64();
        let seq = model.max_seq;
        let mut tokens = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..steps {
            let mut step_tokens = Vec::new();
            let mut step_targets = Vec::new();
            for _ in 0..RANKS {
                let ids: Vec<usize> = (0..seqs_per_rank * seq)
                    .map(|_| gen.below(model.vocab))
                    .collect();
                // next-token targets within each sequence; the last position
                // predicts a fresh draw
                let next: Vec<usize> = (0..ids.len())
                    .map(|i| {
                        if (i + 1) % seq == 0 {
                            gen.below(model.vocab)
                        } else {
                            ids[i + 1]
                        }
                    })
                    .collect();
                step_tokens.push(Tensor::from_vec(
                    [seqs_per_rank, seq],
                    ids.iter().map(|&t| t as f32).collect(),
                ));
                step_targets.push(next);
            }
            tokens.push(step_tokens);
            targets.push(step_targets);
        }
        let mut w = DpGemm {
            model,
            seqs_per_rank,
            steps,
            weight_seed,
            tokens,
            targets,
            reference: Vec::new(),
        };
        w.reference = w.serial_reference();
        w
    }

    /// The same model trained serially on the concatenated batch: the mean
    /// of the ranks' losses must track it step by step.
    fn serial_reference(&self) -> Vec<f32> {
        let mut gpt = Gpt::new(&self.model, &mut init::rng(self.weight_seed));
        let mut opt = AdamW::new(LR, WEIGHT_DECAY);
        (0..self.steps)
            .map(|s| {
                let batch = Tensor::cat(&self.tokens[s], 0);
                let targets: Vec<usize> = self.targets[s].concat();
                gpt.zero_grad();
                let logits = gpt.forward(&batch);
                let (loss, d) = lm_loss(&logits, &targets);
                let _ = gpt.backward(&d);
                opt.step_layer(&mut gpt);
                loss
            })
            .collect()
    }
}

impl Workload for DpGemm {
    fn name(&self) -> &'static str {
        "dp_gemm"
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn segment_steps(&self) -> usize {
        self.steps
    }

    fn cluster(&self) -> colossalai_topology::Cluster {
        system_iii()
    }

    fn segment(&self, spans: Option<&Spans>) -> Segment {
        let start = Instant::now();
        let world = World::new(system_iii());
        world.set_tracing(spans.is_some());
        let out = world.run_on(RANKS, |ctx| {
            let rank = ctx.rank();
            let spans = spans.filter(|_| rank == 0);
            let cfg = Config::from_json(CONFIG_JSON).expect("benchmark config parses");
            let model = build_gpt(ctx, &cfg, RANKS, &self.model, self.weight_seed);
            let mut engine = initialize(
                ctx,
                &cfg,
                RANKS,
                model,
                OptimizerSpec::AdamW {
                    lr: LR,
                    weight_decay: WEIGHT_DECAY,
                },
            );
            let mut losses = Vec::with_capacity(self.steps);
            let timing = run_steps(rank == 0, start, self.steps, |s| {
                spanned(spans, "step", s, || {
                    spanned(spans, "core.engine.zero_grad", s, || engine.zero_grad());
                    let logits = spanned(spans, "core.engine.forward", s, || {
                        engine.forward(&self.tokens[s][rank])
                    });
                    let (loss, d) = spanned(spans, "tensor.ops.cross_entropy", s, || {
                        lm_loss(&logits, &self.targets[s][rank])
                    });
                    let _ = spanned(spans, "core.engine.backward", s, || engine.backward(&d));
                    spanned(spans, "core.engine.step", s, || engine.step());
                    losses.push(loss);
                });
            });
            let params = flatten_params(engine.model_mut());
            let buckets = BucketPlan::for_model(engine.model_mut(), cfg.bucket_bytes())
                .buckets
                .len();
            ReplicaOut {
                losses,
                clock: ctx.clock(),
                params_hash: bits_hash(params.data()),
                buckets,
                timing,
            }
        });
        replica_segment(out, &self.reference, world)
    }

    fn probe_shape(&self) -> ProbeShape {
        let m = &self.model;
        let rows = self.seqs_per_rank * m.max_seq;
        ProbeShape {
            gemm: Some((rows, m.hidden, m.mlp_ratio * m.hidden)),
            rows,
            width: m.hidden,
            vocab: m.vocab,
            optim_params: m.total_params() as usize,
            group: RANKS,
            message_elems: m.total_params() as usize,
            stackless: false,
            flops_per_step: 3 * RANKS as u64 * gpt_forward_flops(m, self.seqs_per_rank, m.max_seq),
        }
    }
}
