//! 2D tensor parallelism over a `j x j` device grid, built on the SUMMA
//! distributed matrix-multiplication algorithm (van de Geijn & Watts).
//!
//! Unlike 1D parallelism, the *input and output activations are sharded
//! too*: device `(r, c)` holds tile `(r, c)` of every `[M, K]` activation
//! and of every `[K, N]` weight, so per-device memory falls as `1/p` for
//! weights *and* activations — the effect measured in Fig 8.

use crate::mesh::{axis_group, my_position, tile, MeshLayout};
use crate::volume::TpMode;
use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::ops::sum_axis;
use colossalai_tensor::{matmul, matmul_at, matmul_bt, Tensor};
use colossalai_topology::DeviceId;

/// A device's place in the `j x j` grid, with its row and column process
/// groups.
#[derive(Clone)]
pub struct Grid2d {
    pub j: usize,
    pub row: usize,
    pub col: usize,
    pub row_group: Group,
    pub col_group: Group,
}

impl Grid2d {
    /// Builds the grid over `members` (row-major order: device `members[r*j
    /// + c]` sits at `(r, c)`). Every member must call with the same list.
    pub fn new(ctx: &DeviceCtx, members: &[DeviceId]) -> Self {
        let p = members.len();
        let grid = TpMode::TwoD.grid(p).unwrap_or_else(|| {
            panic!("2D tensor parallelism requires a square device count, got {p}")
        });
        let at = my_position(ctx, members, grid);
        let group = |axis| ctx.group(&axis_group(members, grid, at, &[axis]));
        Grid2d {
            j: grid[1],
            row: at[1],
            col: at[2],
            row_group: group(2),
            col_group: group(1),
        }
    }
}

/// A grid [`Linear2d`] runs on: its 2D grid, and under 2.5D the depth group
/// across which its weight tiles are replicated.
pub trait SummaGrid {
    fn layer(&self) -> (&Grid2d, &[Group]);
}

impl SummaGrid for Grid2d {
    fn layer(&self) -> (&Grid2d, &[Group]) {
        (self, &[])
    }
}

/// Slices tile `(r, c)` of a global `[M, K]` matrix for a `j x j` grid.
pub fn tile_of(global: &Tensor, j: usize, r: usize, c: usize) -> Tensor {
    let grid = MeshLayout::over(TpMode::TwoD, [1, j, j]);
    grid.tile(global, grid.stream, [0, r, c])
}

/// Reassembles a `j x j` list of tiles (row-major) into the global matrix
/// (test helper, the inverse of [`tile_of`]).
pub fn assemble_tiles(tiles: &[Tensor], j: usize) -> Tensor {
    assert_eq!(tiles.len(), j * j);
    let rows: Vec<Tensor> = (0..j)
        .map(|r| Tensor::cat(&tiles[r * j..(r + 1) * j], 1))
        .collect();
    Tensor::cat(&rows, 0)
}

/// 2D-parallel linear layer `Y = X W + b`.
///
/// `X` tiles: `[M/j, K/j]` at `(r, c)` (leading axes collapse into `M/j`,
/// like [`colossalai_autograd::Linear`]); `W` tiles: `[K/j, N/j]`; bias is
/// sharded by column (`[N/j]`, replicated down each grid column). Forward
/// and backward are three SUMMA passes (`Y = X W`, `dX = dY W^T`,
/// `dW = X^T dY`) — the "3" in Table 1's `3(j-1)(S_X + S_W)`.
pub struct Linear2d {
    ctx: DeviceCtx,
    grid: Grid2d,
    /// Under 2.5D: backward sums its dW and db over the depth group.
    depth: Vec<Group>,
    w: Param,
    bias: Option<Param>,
    cached_x: Option<Tensor>,
}

impl Linear2d {
    /// Builds from global weight/bias, sharding locally.
    pub fn from_global(
        ctx: &DeviceCtx,
        grid: &impl SummaGrid,
        name: &str,
        w_global: &Tensor,
        b_global: Option<&Tensor>,
    ) -> Self {
        let (grid, depth) = grid.layer();
        let j = grid.j;
        let w = tile_of(w_global, j, grid.row, grid.col);
        let bias =
            b_global.map(|b| Param::new(format!("{name}.bias"), tile(b, &[], Some((grid.col, j)))));
        Linear2d {
            ctx: ctx.clone(),
            grid: grid.clone(),
            depth: depth.to_vec(),
            w: Param::new(format!("{name}.weight"), w),
            bias,
            cached_x: None,
        }
    }

    /// `t` of the member of `group` at rank `root`, on every member: one
    /// SUMMA round's panel.
    fn panel(&self, group: &Group, root: usize, t: &Tensor) -> Tensor {
        let mine = if group.rank() == root {
            t.clone()
        } else {
            Tensor::zeros([0])
        };
        group.broadcast(&self.ctx, mine, root)
    }

    /// SUMMA pass computing `C_rc = sum_l A_rl B_lc` where this rank holds
    /// `A_rc` and `B_rc`.
    fn summa_forward(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let g = &self.grid;
        let mut c_tile = Tensor::zeros([a.dims()[0], b.dims()[1]]);
        for l in 0..g.j {
            // A panel travels along the row; B panel along the column
            let a_panel = self.panel(&g.row_group, l, a);
            let b_panel = self.panel(&g.col_group, l, b);
            c_tile.axpy(1.0, &matmul(&a_panel, &b_panel));
        }
        c_tile
    }
}

impl Layer for Linear2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (x, lead) = collapse(x);
        let mut y = self.summa_forward(&x, self.w.value());
        self.cached_x = Some(x);
        if let Some(b) = &self.bias {
            y = y.add_bias(b.value());
        }
        expand(y, &lead)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let g = self.grid.clone();
        let x = self.cached_x.take().expect("backward before forward");
        let (dy, lead) = collapse(dy);
        let dy = &dy;

        // bias gradient: column sums of dY, reduced over the grid column
        let db = self.bias.as_ref().map(|_| sum_axis(dy, 0));
        let db = db.map(|partial| g.col_group.all_reduce(&self.ctx, partial));

        // pass 2: dX_rl = sum_c dY_rc (W^T)_cl = sum_c dY_rc W_lc^T
        let mut dx = Tensor::zeros(x.shape().clone());
        for l in 0..g.j {
            let w_panel = self.panel(&g.col_group, l, self.w.value());
            let partial = matmul_bt(dy, &w_panel);
            let reduced = g.row_group.reduce_sum(&self.ctx, partial, l);
            if g.col == l {
                dx.axpy(1.0, &reduced);
            }
        }

        // pass 3: dW_lc = sum_r X_rl^T dY_rc
        let mut dw = Tensor::zeros(self.w.value().shape().clone());
        for l in 0..g.j {
            let x_panel = self.panel(&g.row_group, l, &x);
            let partial = matmul_at(&x_panel, dy);
            let reduced = g.col_group.reduce_sum(&self.ctx, partial, l);
            if g.row == l {
                dw.axpy(1.0, &reduced);
            }
        }
        let sum = |t| self.depth.iter().fold(t, |t, d| d.all_reduce(&self.ctx, t));
        self.w.accumulate_grad(&sum(dw));
        if let (Some(b), Some(db)) = (&mut self.bias, db) {
            b.accumulate_grad(&sum(db));
        }
        expand(dx, &lead)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// Collapses `[.., k]` into the `[rows, k]` matrix the tile algorithms work
/// on, returning the leading axes for [`expand`].
pub(crate) fn collapse(x: &Tensor) -> (Tensor, Vec<usize>) {
    let (rows, k) = x.shape().as_matrix();
    (x.reshape([rows, k]), x.dims()[..x.rank() - 1].to_vec())
}

/// Gives a `[rows, n]` result the leading axes [`collapse`] took off.
pub(crate) fn expand(y: Tensor, lead: &[usize]) -> Tensor {
    let n = y.dims()[1];
    y.reshaped([lead, &[n]].concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::Linear;
    use colossalai_comm::{OpKind, World};
    use colossalai_tensor::init;
    use colossalai_topology::systems::{system_i, system_iii};

    #[test]
    fn tile_assemble_roundtrip() {
        let g = Tensor::arange(36).reshaped([6, 6]);
        for j in [1usize, 2, 3] {
            let tiles: Vec<Tensor> = (0..j * j).map(|i| tile_of(&g, j, i / j, i % j)).collect();
            assert_eq!(assemble_tiles(&tiles, j), g);
        }
    }

    fn equivalence_case(j: usize, m: usize, k: usize, n: usize, with_bias: bool, seed: u64) {
        let p = j * j;
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let b = with_bias.then(|| init::uniform([n], -0.2, 0.2, &mut rng));
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);

        let mut serial = Linear::from_parts("s", w.clone(), b.clone());
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let cluster = if p <= 8 { system_i() } else { system_iii() };
        let world = World::new(cluster);
        let results = world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid2d::new(ctx, &members);
            let (r, c) = (grid.row, grid.col);
            let mut l = Linear2d::from_global(ctx, &grid, "l2d", &w, b.as_ref());
            let y_tile = l.forward(&tile_of(&x, j, r, c));
            let dx_tile = l.backward(&tile_of(&dy, j, r, c));
            let mut grads = Vec::new();
            l.visit_params(&mut |p| grads.push(p.grad().clone()));
            (y_tile, dx_tile, grads)
        });

        let y_tiles: Vec<Tensor> = results.iter().map(|(y, _, _)| y.clone()).collect();
        let dx_tiles: Vec<Tensor> = results.iter().map(|(_, dx, _)| dx.clone()).collect();
        let y_got = assemble_tiles(&y_tiles, j);
        let dx_got = assemble_tiles(&dx_tiles, j);
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

        // weight gradient tiles reassemble the serial gradient
        let dw_tiles: Vec<Tensor> = results.iter().map(|(_, _, g)| g[0].clone()).collect();
        let dw_got = assemble_tiles(&dw_tiles, j);
        let dw_want = serial.weight().grad();
        assert!(
            dw_got.allclose(dw_want, 1e-3),
            "dw diff {}",
            dw_got.max_abs_diff(dw_want)
        );

        if with_bias {
            // bias grads: each column shard equals the serial slice, and is
            // replicated down the column
            let db_want = serial.bias().unwrap().grad();
            for (idx, (_, _, g)) in results.iter().enumerate() {
                let c = idx % j;
                let want = db_want.narrow(0, c * (n / j), n / j);
                assert!(g[1].allclose(&want, 1e-3), "db tile ({idx})");
            }
        }
    }

    #[test]
    fn linear2d_matches_serial_2x2() {
        equivalence_case(2, 4, 6, 8, true, 200);
    }

    #[test]
    fn linear2d_matches_serial_2x2_no_bias() {
        equivalence_case(2, 6, 4, 4, false, 201);
    }

    #[test]
    fn linear2d_matches_serial_3x3() {
        equivalence_case(3, 6, 9, 12, true, 202);
    }

    #[test]
    fn forward_broadcast_volume_matches_summa() {
        // one forward pass moves (j-1)(S_X + S_W) elements via broadcasts
        let j = 2;
        let (m, k, n) = (8, 8, 8);
        let mut rng = init::rng(203);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let world = World::new(system_i());
        world.run_on(j * j, |ctx| {
            let members: Vec<usize> = (0..j * j).collect();
            let grid = Grid2d::new(ctx, &members);
            let mut l = Linear2d::from_global(ctx, &grid, "l", &w, None);
            let _ = l.forward(&tile_of(&x, j, grid.row, grid.col));
        });
        let s_x = (m * k) as u64;
        let s_w = (k * n) as u64;
        let measured = world.stats().elements_of(OpKind::Broadcast);
        assert_eq!(measured, (j as u64 - 1) * (s_x + s_w));
    }

    #[test]
    fn full_fwd_bwd_volume_is_table1() {
        // fwd + bwd are three SUMMA passes, each moving every X panel and
        // every W panel j - 1 times (dY never travels): exactly Table 1's
        // 3(j-1)(S_X + S_W), for a rectangular weight too
        let j = 2;
        let (m, k, n) = (8, 4, 12);
        let mut rng = init::rng(204);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);
        let world = World::new(system_i());
        world.run_on(j * j, |ctx| {
            let members: Vec<usize> = (0..j * j).collect();
            let grid = Grid2d::new(ctx, &members);
            let mut l = Linear2d::from_global(ctx, &grid, "l", &w, None);
            let _ = l.forward(&tile_of(&x, j, grid.row, grid.col));
            let _ = l.backward(&tile_of(&dy, j, grid.row, grid.col));
        });
        let stats = world.stats();
        let measured = stats.elements_of(OpKind::Broadcast) + stats.elements_of(OpKind::Reduce);
        let shape = crate::volume::MatmulShape {
            b: 1,
            s: m,
            h: k,
            n,
        };
        assert_eq!(measured, crate::volume::volume_2d(shape, j));
    }

    #[test]
    #[should_panic(expected = "device thread panicked")]
    fn grid_requires_square_count() {
        let world = World::new(system_i());
        world.run_on(3, |ctx| {
            let members: Vec<usize> = (0..3).collect();
            let _ = Grid2d::new(ctx, &members);
        });
    }
}
