//! LayerNorm over a hidden axis that is sharded across a process group
//! (Colossal-AI's `layernorm_2d`, generalised): each device normalizes its
//! `[rows, h/n]` slice with row statistics (mean, variance) assembled by
//! all-reduces over the group that splits the hidden axis — the grid row
//! under 2D / 2.5D, the `j` (or `k`) axis under 3D.

use crate::tp2d::{collapse, expand};
use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_tensor::Tensor;

/// LayerNorm over `[.., h/n]` slices: statistics span `hidden`; gamma and
/// beta are sharded like the hidden axis. Their gradients are this device's
/// rows' contribution only: devices that hold other rows of the same slice
/// sum them with a [`crate::GradSync`] over the groups that split the rows.
pub struct LayerNorm2d {
    ctx: DeviceCtx,
    hidden: Group,
    gamma: Param,
    beta: Param,
    eps: f32,
    /// Full (global) normalized width.
    h_global: usize,
    cache: Option<(Tensor, Tensor, Tensor)>, // (x, mean, inv_std) per global row
}

impl LayerNorm2d {
    /// `hidden` is the group whose members hold the slices of one row.
    pub fn new(ctx: &DeviceCtx, hidden: &Group, name: &str, h_global: usize) -> Self {
        assert!(
            h_global.is_multiple_of(hidden.size()),
            "hidden {h_global} not divisible by the {} devices that split it",
            hidden.size()
        );
        let local = h_global / hidden.size();
        LayerNorm2d {
            ctx: ctx.clone(),
            hidden: hidden.clone(),
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([local])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([local])),
            eps: 1e-5,
            h_global,
            cache: None,
        }
    }
}

impl Layer for LayerNorm2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (x, lead) = collapse(x);
        let x = &x;
        let rows = x.dims()[0];
        let h = self.h_global as f32;

        // per-global-row sums assembled across the devices holding the row
        let local_sum = colossalai_tensor::ops::sum_axis(x, 1);
        let local_sq = colossalai_tensor::ops::sum_axis(&x.map(|v| v * v), 1);
        let sum = self.hidden.all_reduce(&self.ctx, local_sum);
        let sq = self.hidden.all_reduce(&self.ctx, local_sq);

        let mean = sum.map(|s| s / h);
        let inv_std = sq
            .zip(&mean, |q, m| q / h - m * m)
            .map(|var| 1.0 / (var + self.eps).sqrt());

        let mut y = x.clone();
        for r in 0..rows {
            let m = mean.data()[r];
            let is = inv_std.data()[r];
            let row = &mut y.data_mut()[r * x.dims()[1]..(r + 1) * x.dims()[1]];
            for (v, (&g, &b)) in row.iter_mut().zip(
                self.gamma
                    .value()
                    .data()
                    .iter()
                    .zip(self.beta.value().data()),
            ) {
                *v = (*v - m) * is * g + b;
            }
        }
        self.cache = Some((x.clone(), mean, inv_std));
        expand(y, &lead)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, mean, inv_std) = self.cache.take().expect("backward before forward");
        let (rows, local) = (x.dims()[0], x.dims()[1]);
        let h = self.h_global as f32;
        let (dy, lead) = collapse(dy);

        let (xs, dys) = (x.data(), dy.data());
        let (means, inv_stds) = (mean.data(), inv_std.data());
        let row = |r: usize| r * local..(r + 1) * local;

        // dgamma / dbeta: column sums over the rows this device holds
        let mut dgamma = Tensor::zeros([local]);
        let mut dbeta = Tensor::zeros([local]);
        // row sums of dy*gamma and dy*gamma*xhat span the `hidden` group
        let mut s1_local = Tensor::zeros([rows]);
        let mut s2_local = Tensor::zeros([rows]);
        {
            let gamma = self.gamma.value().data();
            let (dgamma, dbeta) = (dgamma.data_mut(), dbeta.data_mut());
            let (s1, s2) = (s1_local.data_mut(), s2_local.data_mut());
            for r in 0..rows {
                let (m, is) = (means[r], inv_stds[r]);
                let (x_row, dy_row) = (&xs[row(r)], &dys[row(r)]);
                for c in 0..local {
                    let xhat = (x_row[c] - m) * is;
                    let d = dy_row[c];
                    let dyg = d * gamma[c];
                    s1[r] += dyg;
                    s2[r] += dyg * xhat;
                    dgamma[c] += d * xhat;
                    dbeta[c] += d;
                }
            }
        }
        let s1 = self.hidden.all_reduce(&self.ctx, s1_local);
        let s2 = self.hidden.all_reduce(&self.ctx, s2_local);
        self.gamma.accumulate_grad(&dgamma);
        self.beta.accumulate_grad(&dbeta);

        let mut dx = Tensor::zeros(x.shape().clone());
        {
            let gamma = self.gamma.value().data();
            let (s1, s2, dx) = (s1.data(), s2.data(), dx.data_mut());
            for r in 0..rows {
                let (m, is) = (means[r], inv_stds[r]);
                let (x_row, dy_row, dx_row) = (&xs[row(r)], &dys[row(r)], &mut dx[row(r)]);
                for c in 0..local {
                    let xhat = (x_row[c] - m) * is;
                    let dyg = dy_row[c] * gamma[c];
                    dx_row[c] = is * (dyg - s1[r] / h - xhat * s2[r] / h);
                }
            }
        }
        expand(dx, &lead)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp2d::{assemble_tiles, tile_of, Grid2d};
    use crate::GradSync;
    use colossalai_autograd::LayerNorm;
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    #[test]
    fn layernorm2d_matches_serial() {
        let (j, m, h) = (2usize, 4usize, 8usize);
        let mut rng = init::rng(850);
        let x = init::uniform([m, h], -2.0, 2.0, &mut rng);
        let dy = init::uniform([m, h], -1.0, 1.0, &mut rng);

        let mut serial = LayerNorm::new("ln", h);
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);
        let mut serial_grads = Vec::new();
        serial.visit_params(&mut |p| serial_grads.push(p.grad().clone()));

        let world = World::new(system_i());
        let results = world.run_on(j * j, |ctx| {
            let members: Vec<usize> = (0..j * j).collect();
            let grid = Grid2d::new(ctx, &members);
            let ln = LayerNorm2d::new(ctx, &grid.row_group, "ln", h);
            let mut ln = GradSync::new(ctx, vec![grid.col_group.clone()], ln);
            let y = ln.forward(&tile_of(&x, j, grid.row, grid.col));
            let dx = ln.backward(&tile_of(&dy, j, grid.row, grid.col));
            let mut grads = Vec::new();
            ln.visit_params(&mut |p| grads.push(p.grad().clone()));
            (y, dx, grads, grid.col)
        });
        let y_tiles: Vec<Tensor> = results.iter().map(|(y, _, _, _)| y.clone()).collect();
        let dx_tiles: Vec<Tensor> = results.iter().map(|(_, d, _, _)| d.clone()).collect();
        assert!(assemble_tiles(&y_tiles, j).allclose(&y_want, 1e-4));
        assert!(assemble_tiles(&dx_tiles, j).allclose(&dx_want, 2e-4));
        // gamma/beta grad slices match the serial slices (per column)
        for (_, _, grads, col) in &results {
            for (gi, want) in serial_grads.iter().enumerate() {
                let slice = want.narrow(0, col * (h / j), h / j);
                assert!(
                    grads[gi].allclose(&slice, 2e-4),
                    "param {gi} col {col}: diff {}",
                    grads[gi].max_abs_diff(&slice)
                );
            }
        }
    }
}
