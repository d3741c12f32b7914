//! Compute reaches the virtual clock one way: `kernel::gemm_mat` records
//! its FLOPs on the thread's `tensor::meter`, and the rank that owns the
//! thread prices them at its GPU's FP32 rate, in one `gemm` compute span per
//! drain. These tests hold what is charged, and to whom.

use colossalai::comm::{Poll, RankTask, Span, SpanKind, Track, World, WorldBackend};
use colossalai::core::{build_gpt, initialize, Config, OptimizerSpec};
use colossalai::models::{SyntheticText, TransformerConfig};
use colossalai::tensor::matmul::matmul_flops;
use colossalai::tensor::{matmul, Tensor};
use colossalai::topology::systems::{system_i, system_iii};
use colossalai::topology::GpuSpec;

/// FLOPs behind each of `rank`'s `gemm` spans, recovered from its duration
/// at the GPU's rate (exact after rounding: a span prices whole FLOPs).
fn gemm_flops(spans: &[Span], rank: usize, gpu: &GpuSpec) -> Vec<u64> {
    let rate = gpu.peak_flops_f32 * gpu.sustained_fraction;
    spans
        .iter()
        .filter(|s| s.track == Track::Device(rank))
        .filter(|s| matches!(&s.kind, SpanKind::Compute { label } if label == "gemm"))
        .map(|s| ((s.end - s.start) * rate).round() as u64)
        .collect()
}

/// `dp_gemm`'s model: 2 layers, hidden 256, 8 heads, vocab 512, seq 32.
const GPT: TransformerConfig = TransformerConfig {
    layers: 2,
    hidden: 256,
    heads: 8,
    mlp_ratio: 4,
    vocab: 512,
    max_seq: 32,
};

#[test]
fn a_gpt_dp_step_drains_three_times_its_gemm_closed_form() {
    const RANKS: usize = 2;
    let (seq, h, heads) = (GPT.max_seq, GPT.hidden, GPT.heads);
    // one sequence per rank: rows = seq
    let per_layer = [
        ("qkv", matmul_flops(seq, h, 3 * h)),
        ("scores", heads as u64 * matmul_flops(seq, h / heads, seq)),
        ("values", heads as u64 * matmul_flops(seq, seq, h / heads)),
        ("projection", matmul_flops(seq, h, h)),
        ("mlp up", matmul_flops(seq, h, GPT.mlp_ratio * h)),
        ("mlp down", matmul_flops(seq, GPT.mlp_ratio * h, h)),
    ];
    let forward = GPT.layers as u64 * per_layer.iter().map(|&(_, f)| f).sum::<u64>()
        + matmul_flops(seq, h, GPT.vocab);

    let world = World::new(system_iii());
    world.set_tracing(true);
    let text = SyntheticText::new(GPT.vocab, 1);
    world.run_on(RANKS, |ctx| {
        let cfg = Config::from_json(r#"{ "parallel": { "data": 2 } }"#).unwrap();
        let model = build_gpt(ctx, &cfg, RANKS, &GPT, 5);
        let adam = OptimizerSpec::AdamW {
            lr: 1e-3,
            weight_decay: 0.01,
        };
        let mut engine = initialize(ctx, &cfg, RANKS, model, adam);
        let tokens = text.batch(1, seq, ctx.rank() as u64);
        engine.zero_grad();
        let logits = engine.forward(&tokens);
        let flat = logits.reshape([seq, GPT.vocab]);
        let targets = text.next_tokens(&tokens);
        let (_, d) = colossalai::tensor::ops::cross_entropy(&flat, &targets);
        let _ = engine.backward(&d.reshaped(logits.shape().clone()));
        assert!(engine.step());
    });
    let spans = world.trace();
    for rank in 0..RANKS {
        let drained: u64 = gemm_flops(&spans, rank, world.cluster().gpu(rank))
            .iter()
            .sum();
        // every product runs once forward and twice backward (dX and dW);
        // the embeddings' backward is a scatter, not a GEMM
        assert_eq!(drained, 3 * forward, "rank {rank}: {per_layer:?}");
    }
}

#[test]
fn gemms_before_a_run_are_charged_to_no_rank() {
    let _ = matmul(&Tensor::ones([64, 64]), &Tensor::ones([64, 64]));
    let world = World::new(system_i());
    let clocks = world.run_on(4, |ctx| ctx.clock());
    assert_eq!(clocks, vec![0.0; 4]);
}

#[test]
fn only_the_rank_that_multiplies_moves_its_clock() {
    let world = World::new(system_i());
    let clocks = world.run_on(4, |ctx| {
        if ctx.rank() == 0 {
            let _ = matmul(&Tensor::ones([32, 64]), &Tensor::ones([64, 16]));
        }
        ctx.clock()
    });
    let want = system_i().gpu(0).compute_time_f32(matmul_flops(32, 64, 16));
    assert_eq!(clocks, vec![want, 0.0, 0.0, 0.0]);
}

/// Reads its clock, then multiplies `rank + 1` times and finishes with the
/// FLOPs still on the meter: the executor must charge them to this rank,
/// not to whichever rank its pool worker polls next.
struct MultiplyThenFinish {
    rank: usize,
}

impl RankTask for MultiplyThenFinish {
    type Output = f64;

    fn poll(&mut self, ctx: &colossalai::comm::DeviceCtx) -> Poll<f64> {
        let before = ctx.clock();
        for _ in 0..=self.rank {
            let _ = matmul(&Tensor::ones([8, 8]), &Tensor::ones([8, 8]));
        }
        Poll::Ready(before)
    }
}

#[test]
fn one_pool_slot_charges_each_heap_rank_only_its_own_flops() {
    let world = World::new(system_i());
    world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
    world.set_tracing(true);
    let before = world.run_tasks(4, |rank| MultiplyThenFinish { rank });
    assert_eq!(before, vec![0.0; 4], "a rank started with a peer's FLOPs");
    let spans = world.trace();
    for rank in 0..4 {
        let drained = gemm_flops(&spans, rank, world.cluster().gpu(rank));
        assert_eq!(drained, vec![(rank as u64 + 1) * matmul_flops(8, 8, 8)]);
    }
}
