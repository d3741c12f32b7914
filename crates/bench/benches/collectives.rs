//! Bench: wall-clock cost of the thread-backed collectives (the substrate
//! every parallel mode rides on).

use colossalai_bench::bench_fn;
use colossalai_comm::World;
use colossalai_tensor::Tensor;
use colossalai_topology::systems::system_i;

fn main() {
    let world = World::new(system_i());
    for &elems in &[1usize << 10, 1 << 14] {
        for &p in &[2usize, 4, 8] {
            bench_fn(&format!("collectives/all_reduce/{elems}el/{p}"), || {
                world.run_on(p, |ctx| {
                    let g = ctx.world_group(p);
                    let t = Tensor::full([elems], ctx.rank() as f32);
                    std::hint::black_box(g.all_reduce(ctx, t));
                });
            });
        }
    }
    for &p in &[4usize, 8] {
        bench_fn(&format!("collectives/reduce_scatter/4096el/{p}"), || {
            world.run_on(p, |ctx| {
                let g = ctx.world_group(p);
                let t = Tensor::full([4096], 1.0);
                std::hint::black_box(g.reduce_scatter(ctx, t, 0));
            });
        });
        bench_fn(&format!("collectives/all_gather/4096el/{p}"), || {
            world.run_on(p, |ctx| {
                let g = ctx.world_group(p);
                let t = Tensor::full([4096 / p], 1.0);
                std::hint::black_box(g.all_gather_cat(ctx, t, 0));
            });
        });
    }
}
