//! 2.5D tensor parallelism over a `j x j x d` cuboid (Wang et al.,
//! inspired by the Solomonik–Demmel 2.5D matmul).
//!
//! Each of the `d` depth layers runs 2D SUMMA over its own slice of the
//! batch dimension; weight tiles are replicated across depth, so weight
//! gradients are all-reduced over the depth group — inside the matmul's
//! backward, as 3D's reductions live inside `Linear3d`. With `d = 1` this
//! degenerates to plain 2D, exactly as the paper notes.

use crate::mesh::{axis_group, my_position, MeshLayout};
use crate::tp2d::{Grid2d, Linear2d, SummaGrid};
use crate::volume::TpMode;
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::Tensor;
use colossalai_topology::DeviceId;

/// A device's place in the `j x j x d` cuboid: its depth layer is its rank
/// in the depth group.
#[derive(Clone)]
pub struct Grid25d {
    /// The 2D grid within this depth layer.
    pub grid2d: Grid2d,
    /// The group of devices sharing this (row, col) across depth.
    pub depth_group: Group,
}

impl Grid25d {
    /// Builds the cuboid over `members` ordered depth-major:
    /// `members[dep * j^2 + r * j + c]`.
    pub fn new(ctx: &DeviceCtx, members: &[DeviceId], depth: usize) -> Self {
        let p = members.len();
        let grid = TpMode::TwoPointFiveD { depth }.grid(p).unwrap_or_else(|| {
            panic!("2.5D requires d * j^2 devices, got p = {p} with depth {depth}")
        });
        let at = my_position(ctx, members, grid);
        Grid25d {
            grid2d: Grid2d::new(ctx, &axis_group(members, grid, at, &[1, 2])),
            depth_group: ctx.group(&axis_group(members, grid, at, &[0])),
        }
    }
}

/// Slices the 2.5D input tile: depth layer `dep` owns batch rows
/// `[dep * M/d, (dep+1) * M/d)`, tiled 2D within the layer.
pub fn tile_x_25d(global: &Tensor, grid: &Grid25d) -> Tensor {
    let (g, depth) = (&grid.grid2d, grid.depth_group.size());
    let cuboid = MeshLayout::over(TpMode::TwoPointFiveD { depth }, [depth, g.j, g.j]);
    let at = [grid.depth_group.rank(), g.row, g.col];
    cuboid.tile(global, cuboid.stream, at)
}

impl SummaGrid for Grid25d {
    fn layer(&self) -> (&Grid2d, &[Group]) {
        (&self.grid2d, std::slice::from_ref(&self.depth_group))
    }
}

/// 2.5D-parallel linear layer: a [`Linear2d`] on a [`Grid25d`], whose
/// backward sums its weight and bias gradients over the depth group.
pub type Linear25d = Linear2d;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp2d::assemble_tiles;
    use colossalai_autograd::{Layer, Linear};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    fn equivalence_case(j: usize, depth: usize, m: usize, k: usize, n: usize, seed: u64) {
        let p = j * j * depth;
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let b = init::uniform([n], -0.2, 0.2, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);

        let mut serial = Linear::from_parts("s", w.clone(), Some(b.clone()));
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid25d::new(ctx, &members, depth);
            let mut l = Linear25d::from_global(ctx, &grid, "l25", &w, Some(&b));
            let x_tile = tile_x_25d(&x, &grid);
            let y_tile = l.forward(&x_tile);
            let dy_tile = tile_x_25d(&dy.reshape([m, n]), &grid);
            let dx_tile = l.backward(&dy_tile);
            let mut grads = Vec::new();
            l.visit_params(&mut |p| grads.push(p.grad().clone()));
            (y_tile, dx_tile, grads)
        });

        // reassemble: depth layers own consecutive batch slices
        let jj = j * j;
        let mut y_slices = Vec::new();
        let mut dx_slices = Vec::new();
        for dep in 0..depth {
            let y_tiles: Vec<Tensor> = results[dep * jj..(dep + 1) * jj]
                .iter()
                .map(|(y, _, _)| y.clone())
                .collect();
            y_slices.push(assemble_tiles(&y_tiles, j));
            let dx_tiles: Vec<Tensor> = results[dep * jj..(dep + 1) * jj]
                .iter()
                .map(|(_, dx, _)| dx.clone())
                .collect();
            dx_slices.push(assemble_tiles(&dx_tiles, j));
        }
        let y_got = Tensor::cat(&y_slices, 0);
        let dx_got = Tensor::cat(&dx_slices, 0);
        assert!(
            y_got.allclose(&y_want, 1e-3),
            "fwd diff {}",
            y_got.max_abs_diff(&y_want)
        );
        assert!(
            dx_got.allclose(&dx_want, 1e-3),
            "dx diff {}",
            dx_got.max_abs_diff(&dx_want)
        );

        // weight grads: every depth layer holds the same reduced tiles that
        // reassemble the serial gradient
        let dw_want = serial.weight().grad();
        for dep in 0..depth {
            let dw_tiles: Vec<Tensor> = results[dep * jj..(dep + 1) * jj]
                .iter()
                .map(|(_, _, g)| g[0].clone())
                .collect();
            let dw_got = assemble_tiles(&dw_tiles, j);
            assert!(
                dw_got.allclose(dw_want, 1e-3),
                "depth {dep} dw diff {}",
                dw_got.max_abs_diff(dw_want)
            );
        }
    }

    #[test]
    fn linear25d_matches_serial_depth2() {
        // the paper's 8-GPU 2.5D configuration: j = 2, d = 2
        equivalence_case(2, 2, 8, 6, 4, 300);
    }

    #[test]
    fn linear25d_depth1_degenerates_to_2d() {
        equivalence_case(2, 1, 4, 6, 8, 301);
    }

    #[test]
    fn grad_accumulation_preserved_across_depth_reduction() {
        // two backwards must accumulate, not overwrite
        let j = 2;
        let depth = 2;
        let p = j * j * depth;
        let (m, k, n) = (8, 4, 4);
        let mut rng = init::rng(302);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid25d::new(ctx, &members, depth);
            let mut l = Linear25d::from_global(ctx, &grid, "l", &w, None);
            let x_tile = tile_x_25d(&x, &grid);
            let dy_tile = tile_x_25d(&dy, &grid);
            // backward twice with the same data
            let _ = l.forward(&x_tile);
            let _ = l.backward(&dy_tile);
            let mut once = Tensor::zeros([0]);
            l.visit_params(&mut |p| once = p.grad().clone());
            let _ = l.forward(&x_tile);
            let _ = l.backward(&dy_tile);
            let mut twice = Tensor::zeros([0]);
            l.visit_params(&mut |p| twice = p.grad().clone());
            (once, twice)
        });
        for (once, twice) in &results {
            let doubled = once.zip(once, |a, _| 2.0 * a);
            assert!(twice.allclose(&doubled, 1e-4), "accumulation broken");
        }
    }

    #[test]
    #[should_panic(expected = "device thread panicked")]
    fn cuboid_requires_square_layer() {
        let world = World::new(system_i());
        world.run_on(6, |ctx| {
            let members: Vec<usize> = (0..6).collect();
            let _ = Grid25d::new(ctx, &members, 2); // 3 per layer: not square
        });
    }
}
