//! Bench + ablation: GPipe vs 1F1B schedules — real execution
//! wall time plus the modeled bubble/memory trade-off.

use colossalai_autograd::{Gelu, Linear, Sequential};
use colossalai_bench::bench_fn;
use colossalai_comm::World;
use colossalai_parallel::pipeline::{bubble_fraction, PipelineStage, Schedule};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::Tensor;
use colossalai_topology::systems::system_i;

fn stage_layers(rng: &mut InitRng) -> Sequential {
    Sequential::new(vec![
        Box::new(Linear::from_rng("a", 16, 16, true, rng)),
        Box::new(Gelu::new()),
    ])
}

fn run_pipeline(schedule: Schedule, p: usize, m: usize) {
    let world = World::new(system_i());
    world.run_on(p, |ctx| {
        let devices: Vec<usize> = (0..p).collect();
        let mut rng = init::rng(9); // same seed on all ranks
                                    // each rank keeps one chunk of a 2*p-layer model: build p chunks,
                                    // keep ours (cheap enough at bench scale)
        let mut chunks: Vec<Sequential> = (0..p).map(|_| stage_layers(&mut rng)).collect();
        let mine = chunks.swap_remove(ctx.rank());
        let mut stage = PipelineStage::new(ctx, &devices, mine);
        let mut data_rng = init::rng(100);
        let micros: Vec<Tensor> = (0..m)
            .map(|_| init::uniform([2, 16], -1.0, 1.0, &mut data_rng))
            .collect();
        let mut lf = |_: u64, out: &Tensor| cross_entropy(out, &[0, 1]);
        let _ = stage.run_step(
            schedule,
            stage.is_first().then_some(&micros[..]),
            stage
                .is_last()
                .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
            m,
        );
    });
}

fn main() {
    for &(p, m) in &[(2usize, 8usize), (4, 8)] {
        bench_fn(&format!("pipeline_schedules/gpipe/p{p}_m{m}"), || {
            run_pipeline(Schedule::GPipe, p, m)
        });
        bench_fn(&format!("pipeline_schedules/one_f_one_b/p{p}_m{m}"), || {
            run_pipeline(Schedule::OneFOneB, p, m)
        });
    }

    println!("\n== pipeline ablation: bubble fraction (p stages, m micro-batches) ==");
    for p in [2usize, 4, 8] {
        for m in [4usize, 16, 64] {
            println!("p={p:<2} m={m:<3} bubble = {:.3}", bubble_fraction(p, m));
        }
    }
}
