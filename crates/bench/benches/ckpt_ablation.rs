//! Bench: activation checkpointing's compute side — the wall time of the
//! extra recompute, plain forward + backward against the same blocks under
//! one `Checkpoint`. `Checkpoint` keeps the inner caches, so it saves no
//! activation memory yet, and this bench reports none.

use colossalai_autograd::{Checkpoint, Layer, Sequential};
use colossalai_bench::bench_fn;
use colossalai_models::TransformerBlock;
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
}
