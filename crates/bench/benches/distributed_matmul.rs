//! Bench: fwd+bwd of the distributed linear layers (1D column/row
//! vs 2D SUMMA vs 3D) at a fixed problem size, against the serial kernel.

use colossalai_autograd::{Layer, Linear};
use colossalai_bench::bench_fn;
use colossalai_comm::World;
use colossalai_parallel::tp1d::ColumnParallelLinear;
use colossalai_parallel::tp2d::{tile_of, Grid2d, Linear2d};
use colossalai_parallel::tp3d::{tile_x_3d, tile_y_3d, Grid3d, Linear3d};
use colossalai_tensor::init;
use colossalai_topology::systems::system_i;

const M: usize = 64;
const K: usize = 64;
const N: usize = 64;

fn main() {
    let mut rng = init::rng(1);
    let w = init::lecun_normal(K, N, &mut rng);
    let x = init::uniform([M, K], -1.0, 1.0, &mut rng);
    let dy = init::uniform([M, N], -1.0, 1.0, &mut rng);
    let world = World::new(system_i());

    let mut l = Linear::from_parts("s", w.clone(), None);
    bench_fn("distributed_matmul_fwd_bwd/serial", || {
        let y = l.forward(&x);
        std::hint::black_box(l.backward(&dy));
        std::hint::black_box(y);
    });

    bench_fn("distributed_matmul_fwd_bwd/1d_column_4dev", || {
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut l = ColumnParallelLinear::from_global(ctx, &g, "c", &w, None, true);
            let y = l.forward(&x);
            std::hint::black_box(l.backward(&dy));
            std::hint::black_box(y);
        });
    });

    bench_fn("distributed_matmul_fwd_bwd/2d_summa_4dev", || {
        world.run_on(4, |ctx| {
            let members: Vec<usize> = (0..4).collect();
            let grid = Grid2d::new(ctx, &members);
            let mut l = Linear2d::from_global(ctx, &grid, "l", &w, None);
            let y = l.forward(&tile_of(&x, 2, grid.row, grid.col));
            std::hint::black_box(l.backward(&tile_of(&dy, 2, grid.row, grid.col)));
            std::hint::black_box(y);
        });
    });

    bench_fn("distributed_matmul_fwd_bwd/3d_agarwal_8dev", || {
        world.run_on(8, |ctx| {
            let members: Vec<usize> = (0..8).collect();
            let grid = Grid3d::new(ctx, &members);
            let mut l = Linear3d::from_global(ctx, &grid, "l", &w, None);
            let y = l.forward(&tile_x_3d(&x, &grid));
            std::hint::black_box(l.backward(&tile_y_3d(&dy, &grid)));
            std::hint::black_box(y);
        });
    });
}
