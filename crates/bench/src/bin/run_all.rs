//! One-shot reproduction summary: evaluates every experiment's headline
//! quantity and prints it against the paper's number — the quick "did the
//! shape hold" check (full detail lives in the per-figure binaries and
//! EXPERIMENTS.md).

use colossalai_bench::print_table;
use colossalai_memory::offload::PlacementPolicy;
use colossalai_models::TransformerConfig;
use colossalai_parallel::memcalc::{self, SeqMode};
use colossalai_parallel::throughput::{
    bert_pipeline_step, bert_step, offload_step, tp_best_throughput,
};
use colossalai_parallel::volume::TpMode;
use colossalai_topology::bandwidth::pairwise_extremes;
use colossalai_topology::systems::{system_i, system_ii, system_iii, system_iv};

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |id: &str, claim: &str, paper: String, measured: String| {
        rows.push(vec![id.to_string(), claim.to_string(), paper, measured]);
    };

    // E1 — Table 1 / Fig 5
    {
        let shape = colossalai_parallel::volume::MatmulShape {
            b: 32,
            s: 512,
            h: 1024,
            n: 1024,
        };
        let v1 = TpMode::OneD.volume(shape, 64) as f64;
        let v3 = TpMode::ThreeD.volume(shape, 64) as f64;
        row(
            "Fig 5",
            "3D volume << 1D at 64 GPUs",
            "orders of magnitude".into(),
            format!("{:.1}% of 1D", 100.0 * v3 / v1),
        );
    }

    // E4 — Fig 10
    {
        let (min_i, max_i) = pairwise_extremes(&system_i(), 125 << 20);
        let (min_ii, _) = pairwise_extremes(&system_ii(), 125 << 20);
        row(
            "Fig 10",
            "System II pairwise bandwidth is bimodal",
            "184 vs 15 GB/s".into(),
            format!(
                "{:.0} vs {:.0} GB/s (System I uniform at {:.0})",
                max_i / 1e9,
                min_ii / 1e9,
                min_i / 1e9
            ),
        );
    }

    // E3 — Fig 8
    {
        let rows_elems = 512 * 512;
        let s3 = memcalc::fig8_saving_vs_1d(TpMode::ThreeD, rows_elems, 4096, 8);
        row(
            "Fig 8",
            "3D memory saving vs 1D (batch 512, 8 GPUs)",
            "65%".into(),
            format!("{:.0}%", 100.0 * s3),
        );
    }

    // E5 — Fig 11
    {
        let cfg = TransformerConfig::vit_fig11_4gpu();
        let devices: Vec<usize> = (0..4).collect();
        let t1_i = tp_best_throughput(TpMode::OneD, &cfg, &system_i(), &devices).unwrap();
        let t2_i = tp_best_throughput(TpMode::TwoD, &cfg, &system_i(), &devices).unwrap();
        let t1_ii = tp_best_throughput(TpMode::OneD, &cfg, &system_ii(), &devices).unwrap();
        let t2_ii = tp_best_throughput(TpMode::TwoD, &cfg, &system_ii(), &devices).unwrap();
        row(
            "Fig 11",
            "2D vs 1D flips between Systems I and II (4 GPUs)",
            "-x% on I, +40% on II".into(),
            format!(
                "{:+.0}% on I, {:+.0}% on II",
                100.0 * (t2_i.throughput() / t1_i.throughput() - 1.0),
                100.0 * (t2_ii.throughput() / t1_ii.throughput() - 1.0)
            ),
        );
    }

    // E6 — Table 3
    {
        let cfg = TransformerConfig::vit_table3_large();
        let devices: Vec<usize> = (0..64).collect();
        let t1 = tp_best_throughput(TpMode::OneD, &cfg, &system_iv(), &devices).unwrap();
        let best = [
            TpMode::TwoD,
            TpMode::TwoPointFiveD { depth: 4 },
            TpMode::ThreeD,
        ]
        .iter()
        .filter_map(|m| tp_best_throughput(*m, &cfg, &system_iv(), &devices))
        .map(|e| e.throughput())
        .fold(0.0f64, f64::max);
        row(
            "Table 3",
            "best advanced mode vs 1D at 64 GPUs",
            "2.76x".into(),
            format!("{:.2}x", best / t1.throughput()),
        );
    }

    // E7 — Fig 12
    {
        let cfg = TransformerConfig::bert_base();
        let cap = system_iii().gpu(0).memory_bytes;
        let tp = memcalc::max_batch(SeqMode::TensorParallel1d, &cfg, 512, 12, cap);
        let sp = memcalc::max_batch(SeqMode::SequenceParallel, &cfg, 512, 12, cap);
        row(
            "Fig 12",
            "SP max batch vs 1D TP at 12 GPUs",
            "4.44x".into(),
            format!("{:.2}x ({sp} vs {tp})", sp as f64 / tp as f64),
        );
    }

    // E8 — Fig 13
    {
        let cfg = TransformerConfig::bert_base();
        let cluster = system_iii();
        let devices: Vec<usize> = (0..4).collect();
        let tp = bert_pipeline_step(
            SeqMode::TensorParallel1d,
            &cfg,
            &cluster,
            &devices,
            64,
            512,
            4,
            8,
        );
        let sp = bert_pipeline_step(
            SeqMode::SequenceParallel,
            &cfg,
            &cluster,
            &devices,
            64,
            512,
            4,
            8,
        );
        let flat_tp = bert_step(SeqMode::TensorParallel1d, &cfg, &cluster, &devices, 64, 512);
        let flat_sp = bert_step(SeqMode::SequenceParallel, &cfg, &cluster, &devices, 64, 512);
        row(
            "Fig 13",
            "SP vs 1D TP; gap widens with 4 pipeline stages",
            "1.43x -> 1.55x".into(),
            format!(
                "{:.2}x -> {:.2}x",
                flat_sp.throughput() / flat_tp.throughput(),
                sp.throughput() / tp.throughput()
            ),
        );
    }

    // E9 — Fig 14
    {
        let cfg = TransformerConfig::gpt2_10b();
        let devices: Vec<usize> = (0..4).collect();
        let s = offload_step(PlacementPolicy::StaticCpu, &cfg, &system_ii(), &devices, 4);
        let a = offload_step(PlacementPolicy::Adaptive, &cfg, &system_ii(), &devices, 4);
        row(
            "Fig 14",
            "adaptive vs static offload (GPT-2 10B, 4 GPUs)",
            "decisive win".into(),
            format!("{:.2}x", a.throughput() / s.throughput()),
        );
    }

    print_table(
        "Reproduction summary (see EXPERIMENTS.md for detail and deviations)",
        &["artifact", "claim", "paper", "measured"],
        &rows,
    );
    println!(
        "\nFig 7 (convergence) is checked by `fig7_convergence` and the test \
         suite: every tensor-parallel mode tracks the serial trajectory \
         within ~1e-7."
    );
}
