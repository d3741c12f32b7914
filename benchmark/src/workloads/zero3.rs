//! `zero3_comm`: the same GPT under `ZeroOptimizer` stage 3 on the eight
//! GPUs of System II, driven directly (`materialize_params`, `lm_loss`,
//! `backward`, `step`) with one short sequence per rank. Bytes moved scale
//! with parameters and FLOPs with tokens, so at this batch the all-gather /
//! reduce-scatter data plane, the flat-buffer bookkeeping, the storage pool
//! and the sharded AdamW dominate and the GEMMs are small.

use super::{
    bits_hash, gpt_config, gpt_forward_flops, replica_segment, run_steps, ProbeShape, ReplicaOut,
    Segment, Workload,
};
use crate::measure::{spanned, Spans, SplitMix};
use colossalai_autograd::{AdamW, Layer};
use colossalai_comm::World;
use colossalai_models::{Gpt, TransformerConfig};
use colossalai_parallel::data_parallel::flatten_params;
use colossalai_parallel::zero::{ZeroOptimizer, ZeroStage};
use colossalai_tensor::{init, Tensor};
use colossalai_topology::systems::system_ii;
use std::time::Instant;

const RANKS: usize = 8;
const LR: f32 = 1e-3;
const WEIGHT_DECAY: f32 = 0.01;

pub struct Zero3 {
    model: TransformerConfig,
    /// Tokens in each rank's single sequence.
    seq: usize,
    steps: usize,
    weight_seed: u64,
    /// `[step]` full batches `[RANKS, seq]`; rank `r` trains on row `r`.
    batches: Vec<Tensor>,
    reference: Vec<f32>,
}

impl Zero3 {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let model = gpt_config(smoke);
        let (seq, steps) = if smoke { (4, 3) } else { (8, 7) };
        let mut gen = SplitMix::new(seed ^ 0x2e_40c3);
        let weight_seed = gen.next_u64();
        let batches = (0..steps)
            .map(|_| {
                Tensor::from_vec(
                    [RANKS, seq],
                    (0..RANKS * seq)
                        .map(|_| gen.below(model.vocab) as f32)
                        .collect(),
                )
            })
            .collect();
        let mut w = Zero3 {
            model,
            seq,
            steps,
            weight_seed,
            batches,
            reference: Vec::new(),
        };
        w.reference = w.serial_reference();
        w
    }

    /// Serial AdamW on the full batch: ZeRO must follow it step by step.
    fn serial_reference(&self) -> Vec<f32> {
        let mut gpt = Gpt::new(&self.model, &mut init::rng(self.weight_seed));
        let mut opt = AdamW::new(LR, WEIGHT_DECAY);
        self.batches
            .iter()
            .map(|batch| {
                gpt.zero_grad();
                let (loss, d) = gpt.lm_loss(batch);
                let _ = gpt.backward(&d);
                opt.step_layer(&mut gpt);
                loss
            })
            .collect()
    }
}

impl Workload for Zero3 {
    fn name(&self) -> &'static str {
        "zero3_comm"
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn segment_steps(&self) -> usize {
        self.steps
    }

    fn cluster(&self) -> colossalai_topology::Cluster {
        system_ii()
    }

    fn segment(&self, spans: Option<&Spans>) -> Segment {
        let start = Instant::now();
        let world = World::new(system_ii());
        world.set_tracing(spans.is_some());
        let out = world.run_on(RANKS, |ctx| {
            let rank = ctx.rank();
            let spans = spans.filter(|_| rank == 0);
            let group = ctx.world_group(RANKS);
            let mut gpt = Gpt::new(&self.model, &mut init::rng(self.weight_seed));
            let mut opt =
                ZeroOptimizer::new(ctx, &group, &mut gpt, ZeroStage::Three, LR, WEIGHT_DECAY);
            let mut losses = Vec::with_capacity(self.steps);
            let timing = run_steps(rank == 0, start, self.steps, |s| {
                spanned(spans, "step", s, || {
                    spanned(spans, "parallel.zero.materialize", s, || {
                        opt.materialize_params(&mut gpt)
                    });
                    let local = self.batches[s].narrow(0, rank, 1);
                    let (loss, d) = spanned(spans, "models.gpt.lm_loss", s, || gpt.lm_loss(&local));
                    let _ = spanned(spans, "models.gpt.backward", s, || gpt.backward(&d));
                    spanned(spans, "parallel.zero.step", s, || opt.step(&mut gpt));
                    losses.push(loss);
                });
            });
            // stage 3 leaves only shards behind; gather once more to compare
            // the replicas' full parameters
            opt.materialize_params(&mut gpt);
            ReplicaOut {
                losses,
                clock: ctx.clock(),
                params_hash: bits_hash(flatten_params(&mut gpt).data()),
                buckets: opt.bucket_ranges().len(),
                timing,
            }
        });
        replica_segment(out, &self.reference, world)
    }

    fn probe_shape(&self) -> ProbeShape {
        let m = &self.model;
        let (h, rows) = (m.hidden, self.seq);
        let forward = gpt_forward_flops(m, 1, self.seq);
        let params = m.total_params() as usize;
        ProbeShape {
            gemm: Some((rows, h, m.mlp_ratio * h)),
            rows,
            width: h,
            vocab: m.vocab,
            optim_params: params.div_ceil(RANKS),
            group: RANKS,
            message_elems: params,
            stackless: false,
            flops_per_step: 3 * RANKS as u64 * forward,
        }
    }
}
