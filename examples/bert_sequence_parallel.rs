//! Sequence parallelism demo: a BERT whose sequence is split across 4
//! simulated GPUs with Ring Self-Attention (Section 2.3 / Figs 12-13), built
//! by the zoo from a config and checked against the serial model, plus the
//! memory-capacity comparison that motivates it.
//!
//! Run with: `cargo run --release --example bert_sequence_parallel`

use colossalai::comm::World;
use colossalai::core::{build_bert, check_model, Config, ZooModel};
use colossalai::models::data::SyntheticText;
use colossalai::models::TransformerConfig;
use colossalai::parallel::memcalc::{max_batch, max_seq, seq_mode_admits, SeqMode};
use colossalai::tensor::Tensor;
use colossalai::topology::systems::system_iii;

fn main() {
    let (b, p) = (2usize, 4usize);
    // 3 heads on 4 GPUs: the sequence is split, not the heads
    let tiny = TransformerConfig {
        layers: 2,
        hidden: 12,
        heads: 3,
        mlp_ratio: 2,
        vocab: 32,
        max_seq: 16,
    };
    let tokens = SyntheticText::new(tiny.vocab, 55).batch(b, tiny.max_seq, 0);

    // the same seed under two configs: one device, then the ring
    let world = World::new(system_iii());
    let logits = |size: usize, json: &str| -> Tensor {
        let config = Config::from_json(json).expect("config parses");
        check_model(&config, ZooModel::Bert, &tiny, b).expect("the mode admits the model");
        let parts = world.run_on(size, |ctx| {
            build_bert(ctx, &config, size, &tiny, 77).forward(&tokens)
        });
        // each rank owns s/p = 4 positions of every sequence
        Tensor::cat(&parts, 1)
    };
    let y_want = logits(1, "{}");
    let y_got = logits(
        p,
        r#"{ "parallel": { "tensor": { "size": 4, "mode": "sequence" } } }"#,
    );
    let diff = y_got.max_abs_diff(&y_want);
    println!("sequence-parallel BERT vs serial BERT logits: max |diff| = {diff:.2e}");
    // every logit sums the same products in the same order as the serial
    // model: the ring only moves keys and values
    assert_eq!(diff, 0.0, "the sequence-parallel forward is bitwise serial");

    // the capacity story of Fig 12 at paper scale (analytic)
    let cfg = TransformerConfig::bert_base();
    let capacity = system_iii().gpu(0).memory_bytes;
    println!("\nBERT-Base capacity on System III (A100-40GB), analytic:");
    println!(
        "{:>6} {:>14} {:>14}",
        "#GPUs", "maxbatch 1D-TP", "maxbatch SeqPar"
    );
    for gpus in [4usize, 8, 12] {
        let tp = if seq_mode_admits(SeqMode::TensorParallel1d, &cfg, gpus) {
            max_batch(SeqMode::TensorParallel1d, &cfg, 512, gpus, capacity).to_string()
        } else {
            "n/a".into()
        };
        let sp = max_batch(SeqMode::SequenceParallel, &cfg, 512, gpus, capacity);
        println!("{gpus:>6} {tp:>14} {sp:>14}");
    }
    let s_tp = max_seq(SeqMode::TensorParallel1d, &cfg, 64, 4, capacity);
    let s_sp = max_seq(SeqMode::SequenceParallel, &cfg, 64, 4, capacity);
    println!("\nmax sequence length at batch 64 on 4 GPUs: 1D-TP {s_tp} vs SeqPar {s_sp}");
    println!("sequence parallelism extends both limits — OK");
}
