//! Bench + ablation: activation checkpointing — the extra
//! recompute it costs (wall time) and the activation memory it saves
//! (modeled), the trade Colossal-AI's search integrates (Section 3.3).

use colossalai_autograd::{Checkpoint, Layer, Sequential};
use colossalai_bench::bench_fn;
use colossalai_models::{TransformerBlock, TransformerConfig};
use colossalai_tensor::init;

fn make_blocks(n: usize, dim: usize, heads: usize) -> Sequential {
    let mut rng = init::rng(5);
    Sequential::new(
        (0..n)
            .map(|i| {
                Box::new(TransformerBlock::new(
                    &format!("b{i}"),
                    dim,
                    heads,
                    2,
                    false,
                    &mut rng,
                )) as Box<dyn Layer>
            })
            .collect(),
    )
}

fn main() {
    let (layers, dim, heads) = (2usize, 16usize, 4usize);
    let mut rng = init::rng(6);
    let x = init::uniform([2, 6, dim], -1.0, 1.0, &mut rng);
    let dy = init::uniform([2, 6, dim], -1.0, 1.0, &mut rng);

    let mut m = make_blocks(layers, dim, heads);
    bench_fn("activation_checkpoint/plain_fwd_bwd", || {
        let y = m.forward(&x);
        std::hint::black_box(m.backward(&dy));
        std::hint::black_box(y);
    });

    let mut m = Checkpoint::new(make_blocks(layers, dim, heads));
    bench_fn("activation_checkpoint/checkpointed_fwd_bwd", || {
        let y = m.forward(&x);
        std::hint::black_box(m.backward(&dy));
        std::hint::black_box(y);
    });

    // modeled memory ablation at paper scale
    println!("\n== checkpointing ablation: BERT-Base activation memory per device ==");
    let cfg = TransformerConfig::bert_base();
    let (batch, seq) = (32usize, 512usize);
    let plain = cfg.activation_bytes(batch, seq);
    let ckpt = cfg.layers as u64
        * colossalai_autograd::checkpoint::checkpointed_activation_bytes(
            (batch * seq * cfg.hidden) as u64,
        )
        + cfg.activation_bytes_per_layer(batch, seq);
    println!(
        "plain: {:.2} GiB | checkpointed: {:.2} GiB ({:.1}x less) at +1 forward of compute",
        plain as f64 / (1u64 << 30) as f64,
        ckpt as f64 / (1u64 << 30) as f64,
        plain as f64 / ckpt as f64
    );
}
