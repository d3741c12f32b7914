//! 3D tensor parallelism over an `l x l x l` device cube (Agarwal et al.'s
//! 3D matmul, as adapted for tensor parallelism by Bian et al. — the
//! algorithm inside Colossal-AI).
//!
//! Layouts for `Y = X W` with `X: [M, K]`, `W: [K, N]` on device `(i, j, k)`:
//!
//! * `X` tile `[M/l^2, K/l]` — the first dimension is partitioned *twice*
//!   (by `i`, then `k`), the last once (by `j`), exactly the paper's
//!   "partition the first and last dimension only where the first dimension
//!   will be partitioned twice";
//! * `W` tile `[K/l^2, N/l]` — `K` split by `(j, i)`, `N` by `k`;
//! * `Y` tile `[M/l^2, N/l]` — `M` split by `(i, j)`, `N` by `k`.
//!
//! Forward: all-gather `X` over the `k`-axis, all-gather `W` over the
//! `i`-axis, local matmul, reduce-scatter over the `j`-axis. Each pass
//! therefore moves `(l-1)/l * (S_X + S_W + S_Y)` elements — the Table 1 row.

use crate::tp2d::{collapse, expand};
use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::{matmul, matmul_at, matmul_bt, Tensor};
use colossalai_topology::DeviceId;

/// A device's place in the cube, with its three axis groups.
#[derive(Clone)]
pub struct Grid3d {
    pub l: usize,
    pub i: usize,
    pub j: usize,
    pub k: usize,
    /// Group varying `i` (fixed `j, k`).
    pub i_group: Group,
    /// Group varying `j` (fixed `i, k`).
    pub j_group: Group,
    /// Group varying `k` (fixed `i, j`).
    pub k_group: Group,
    /// Group varying both `i` and `j` (fixed `k`) — bias reduction.
    pub ij_group: Group,
}

impl Grid3d {
    /// Builds the cube over `members` ordered `members[i*l^2 + j*l + k]`.
    pub fn new(ctx: &DeviceCtx, members: &[DeviceId]) -> Self {
        let p = members.len();
        let l = crate::volume::int_cbrt(p).unwrap_or_else(|| {
            panic!("3D tensor parallelism requires a cubic device count, got {p}")
        });
        let my = members
            .iter()
            .position(|&m| m == ctx.rank())
            .expect("calling device not in 3D cube");
        let (i, rest) = (my / (l * l), my % (l * l));
        let (j, k) = (rest / l, rest % l);
        let at = |i: usize, j: usize, k: usize| members[i * l * l + j * l + k];
        let i_members: Vec<DeviceId> = (0..l).map(|q| at(q, j, k)).collect();
        let j_members: Vec<DeviceId> = (0..l).map(|q| at(i, q, k)).collect();
        let k_members: Vec<DeviceId> = (0..l).map(|q| at(i, j, q)).collect();
        let ij_members: Vec<DeviceId> = (0..l)
            .flat_map(|qi| (0..l).map(move |qj| (qi, qj)))
            .map(|(qi, qj)| at(qi, qj, k))
            .collect();
        Grid3d {
            l,
            i,
            j,
            k,
            i_group: ctx.group(&i_members),
            j_group: ctx.group(&j_members),
            k_group: ctx.group(&k_members),
            ij_group: ctx.group(&ij_members),
        }
    }
}

/// Slices the `X` tile `[M/l^2, K/l]` for device `(i, j, k)`.
pub fn tile_x_3d(global: &Tensor, g: &Grid3d) -> Tensor {
    let (m, kk) = (global.dims()[0], global.dims()[1]);
    let l = g.l;
    assert!(
        m % (l * l) == 0 && kk % l == 0,
        "X {m}x{kk} not tileable by l={l}"
    );
    let row_block = g.i * l + g.k;
    global
        .narrow(0, row_block * (m / (l * l)), m / (l * l))
        .narrow(1, g.j * (kk / l), kk / l)
}

/// Slices the `W` tile `[K/l^2, N/l]` for device `(i, j, k)`.
pub fn tile_w_3d(global: &Tensor, g: &Grid3d) -> Tensor {
    let (kk, n) = (global.dims()[0], global.dims()[1]);
    let l = g.l;
    assert!(
        kk % (l * l) == 0 && n % l == 0,
        "W {kk}x{n} not tileable by l={l}"
    );
    let row_block = g.j * l + g.i;
    global
        .narrow(0, row_block * (kk / (l * l)), kk / (l * l))
        .narrow(1, g.k * (n / l), n / l)
}

/// Slices the `Y` tile `[M/l^2, N/l]` for device `(i, j, k)`.
pub fn tile_y_3d(global: &Tensor, g: &Grid3d) -> Tensor {
    let (m, n) = (global.dims()[0], global.dims()[1]);
    let l = g.l;
    let row_block = g.i * l + g.j;
    global
        .narrow(0, row_block * (m / (l * l)), m / (l * l))
        .narrow(1, g.k * (n / l), n / l)
}

/// 3D-parallel linear layer.
pub struct Linear3d {
    ctx: DeviceCtx,
    grid: Grid3d,
    w: Param,
    bias: Option<Param>,
    cached_x: Option<Tensor>,
}

impl Linear3d {
    pub fn from_global(
        ctx: &DeviceCtx,
        grid: &Grid3d,
        name: &str,
        w_global: &Tensor,
        b_global: Option<&Tensor>,
    ) -> Self {
        let w = tile_w_3d(w_global, grid);
        let bias = b_global.map(|b| {
            let n = b.numel();
            Param::new(
                format!("{name}.bias"),
                b.narrow(0, grid.k * (n / grid.l), n / grid.l),
            )
        });
        Linear3d {
            ctx: ctx.clone(),
            grid: grid.clone(),
            w: Param::new(format!("{name}.weight"), w),
            bias,
            cached_x: None,
        }
    }
}

impl Layer for Linear3d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (x, lead) = collapse(x);
        self.cached_x = Some(x.clone());
        let g = &self.grid;
        // gather the full row-block of X over the k axis
        let x_ij = g.k_group.all_gather_cat(&self.ctx, x, 0);
        // gather the full W panel over the i axis
        let w_jk = g
            .i_group
            .all_gather_cat(&self.ctx, self.w.value().clone(), 0);
        // local partial product, then sum over j with reduce-scatter
        let partial = matmul(&x_ij, &w_jk);
        let mut y = g.j_group.reduce_scatter(&self.ctx, partial, 0);
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

        if let Some(b) = &mut self.bias {
            let partial = colossalai_tensor::ops::sum_axis(dy, 0);
            let full = g.ij_group.all_reduce(&self.ctx, partial);
            b.accumulate_grad(&full);
        }

        // dX = dY W^T: gather dY over j, W over i; sum over k
        let dy_ik = g.j_group.all_gather_cat(&self.ctx, dy.clone(), 0);
        let w_jk = g
            .i_group
            .all_gather_cat(&self.ctx, self.w.value().clone(), 0);
        let partial_dx = matmul_bt(&dy_ik, &w_jk);
        let dx = g.k_group.reduce_scatter(&self.ctx, partial_dx, 0);

        // dW = X^T dY: gather X over k, dY over j; sum over i
        let x_ij = g.k_group.all_gather_cat(&self.ctx, x, 0);
        let partial_dw = matmul_at(&x_ij, &dy_ik);
        let dw = g.i_group.reduce_scatter(&self.ctx, partial_dw, 0);
        self.w.accumulate_grad(&dw);
        expand(dx, &lead)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::Linear;
    use colossalai_comm::{OpKind, World};
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    fn run_case(l: usize, m: usize, k: usize, n: usize, with_bias: bool, seed: u64) {
        let p = l * l * l;
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let b = with_bias.then(|| init::uniform([n], -0.2, 0.2, &mut rng));
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);

        let mut serial = Linear::from_parts("s", w.clone(), b.clone());
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid3d::new(ctx, &members);
            let mut layer = Linear3d::from_global(ctx, &grid, "l3d", &w, b.as_ref());
            let y_tile = layer.forward(&tile_x_3d(&x, &grid));
            // verify forward tile placement immediately
            assert!(
                y_tile.allclose(&tile_y_3d(&y_want, &grid), 1e-3),
                "({}, {}, {}): fwd tile diff {}",
                grid.i,
                grid.j,
                grid.k,
                y_tile.max_abs_diff(&tile_y_3d(&y_want, &grid))
            );
            let dx_tile = layer.backward(&tile_y_3d(&dy, &grid));
            assert!(
                dx_tile.allclose(&tile_x_3d(&dx_want, &grid), 1e-3),
                "dx tile diff {}",
                dx_tile.max_abs_diff(&tile_x_3d(&dx_want, &grid))
            );
            let mut grads = Vec::new();
            layer.visit_params(&mut |p| grads.push(p.grad().clone()));
            (grid.i, grid.j, grid.k, grads)
        });

        // weight gradient tiles match the serial gradient's tiles
        let world2 = World::new(system_i());
        let dw_want = serial.weight().grad().clone();
        let checks: Vec<(usize, Tensor)> = results
            .iter()
            .enumerate()
            .map(|(idx, (_, _, _, g))| (idx, g[0].clone()))
            .collect();
        world2.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid3d::new(ctx, &members);
            let (idx, dw_got) = &checks[ctx.rank()];
            let _ = idx;
            let want = tile_w_3d(&dw_want, &grid);
            assert!(
                dw_got.allclose(&want, 1e-3),
                "dw tile diff {}",
                dw_got.max_abs_diff(&want)
            );
        });
    }

    #[test]
    fn linear3d_matches_serial_l2() {
        run_case(2, 8, 8, 8, false, 400);
    }

    #[test]
    fn linear3d_matches_serial_l2_with_bias() {
        run_case(2, 4, 8, 4, true, 401);
    }

    #[test]
    fn linear3d_matches_serial_rectangular() {
        run_case(2, 8, 4, 12, false, 402);
    }

    #[test]
    fn forward_volume_matches_table1_pass() {
        // one forward pass: AG(X over k) + AG(W over i) + RS(Y over j)
        // = (l-1)/l * (S_X + S_W + S_Y) elements
        let l = 2;
        let (m, k, n) = (8, 8, 8);
        let mut rng = init::rng(403);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let world = World::new(system_i());
        world.run_on(l * l * l, |ctx| {
            let members: Vec<usize> = (0..l * l * l).collect();
            let grid = Grid3d::new(ctx, &members);
            let mut layer = Linear3d::from_global(ctx, &grid, "l", &w, None);
            let _ = layer.forward(&tile_x_3d(&x, &grid));
        });
        let stats = world.stats();
        let measured =
            stats.elements_of(OpKind::AllGather) + stats.elements_of(OpKind::ReduceScatter);
        let (s_x, s_w, s_y) = ((m * k) as u64, (k * n) as u64, (m * n) as u64);
        // Ring-counted element-hops: every device *receives* (l-1)/l of its
        // gathered panel, and there are l^3 devices holding S/l^3 each, so a
        // full gather phase moves (l-1) * S element-hops. Table 1 prints
        // (l-1)/l * S — the same scaling in l, counted per unique datum
        // rather than per hop; `volume::volume_3d` keeps the paper's form.
        let expected = (l as u64 - 1) * (s_x + s_w + s_y);
        assert_eq!(measured, expected);
        assert_eq!(
            measured / l as u64,
            (l as u64 - 1) * (s_x + s_w + s_y) / l as u64,
            "paper convention = measured / l"
        );
    }

    #[test]
    #[should_panic(expected = "device thread panicked")]
    fn cube_requires_cubic_count() {
        let world = World::new(system_i());
        world.run_on(4, |ctx| {
            let members: Vec<usize> = (0..4).collect();
            let _ = Grid3d::new(ctx, &members);
        });
    }
}
