//! `tp_modes`: the paper's headline feature. One `run_on(8)` on System II
//! (bimodal links, Fig 11); every step trains the same `M x K x N` linear
//! layer (forward, backward, SGD) under 1D (4 ranks), 2D (4), 2.5D (8,
//! depth 2) and 3D (8) tensor parallelism, each checked tile by tile against
//! a serial `Linear`. Tiles are 96-192 wide: about a third of the host time
//! is the rendezvous latency of many small sub-group collectives on the
//! thread-backed scheduler, the rest the tile products. (At 256 cubed the
//! latency share was two thirds, and steps/s moved 43 % between quiet and
//! busy phases of the host, which no bound can hold.) Virtual time is where
//! the modes separate.

use super::{run_steps, within_tolerance, ProbeShape, Segment, Workload};
use crate::measure::{spanned, Spans, SplitMix};
use colossalai_autograd::{Layer, Linear};
use colossalai_comm::{DeviceCtx, World};
use colossalai_parallel::tp25d::{tile_x_25d, Grid25d, Linear25d};
use colossalai_parallel::tp2d::{tile_of, Grid2d, Linear2d};
use colossalai_parallel::tp3d::{tile_x_3d, tile_y_3d, Grid3d, Linear3d};
use colossalai_parallel::ColumnParallelLinear;
use colossalai_tensor::matmul::matmul_flops;
use colossalai_tensor::Tensor;
use colossalai_topology::systems::system_ii;
use std::time::Instant;

const RANKS: usize = 8;
/// Small enough that rounding differences between a mode's reduction order
/// and the serial one do not compound past the tolerance within a segment.
const LR: f32 = 1e-3;
pub const MODE_NAMES: [&str; 4] = [
    "parallel.tp1d",
    "parallel.tp2d",
    "parallel.tp25d",
    "parallel.tp3d",
];

pub struct TpModes {
    m: usize,
    k: usize,
    n: usize,
    steps: usize,
    x: Tensor,
    dy: Tensor,
    w: Tensor,
    b: Tensor,
    /// Serial output and input gradient per step, `[M, N]` and `[M, K]`.
    y_ref: Vec<Tensor>,
    dx_ref: Vec<Tensor>,
}

fn sgd(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| {
        let g = p.grad().clone();
        p.value_mut().axpy(-LR, &g);
    });
    layer.zero_grad();
}

fn close(got: &Tensor, want: &Tensor) -> bool {
    got.dims() == want.dims()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(&g, &w)| within_tolerance(g, w))
}

type Tiler<'a> = Box<dyn Fn(&Tensor) -> Tensor + 'a>;

/// One tensor-parallel mode as this rank sees it: its shard of the layer,
/// its tiles of the fixed input and output gradient, and how to cut the
/// serial results into the tile this rank must reproduce.
struct Mode<'a> {
    index: usize,
    layer: Box<dyn Layer + 'a>,
    x: Tensor,
    dy: Tensor,
    tile_y: Tiler<'a>,
    tile_dx: Tiler<'a>,
}

impl TpModes {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (m, k, n, steps) = if smoke {
            (32, 32, 32, 3)
        } else {
            (384, 384, 384, 13)
        };

        let mut gen = SplitMix::new(seed ^ 0x7b_0d35);
        let scale = 1.0 / (k as f32).sqrt();
        let x = Tensor::from_vec([m, k], gen.units(m * k));
        let dy = Tensor::from_vec([m, n], gen.units(m * n));
        let w = Tensor::from_vec(
            [k, n],
            gen.units(k * n).into_iter().map(|v| v * scale).collect(),
        );
        let b = Tensor::from_vec([n], gen.units(n));
        let mut serial = Linear::from_parts("serial", w.clone(), Some(b.clone()));
        let (mut y_ref, mut dx_ref) = (Vec::new(), Vec::new());
        for _ in 0..steps {
            y_ref.push(serial.forward(&x));
            dx_ref.push(serial.backward(&dy));
            sgd(&mut serial);
        }
        TpModes {
            m,
            k,
            n,
            steps,
            x,
            dy,
            w,
            b,
            y_ref,
            dx_ref,
        }
    }

    /// The modes `ctx`'s rank takes part in, in the order every rank runs them.
    fn modes<'a>(&'a self, ctx: &'a DeviceCtx) -> Vec<Mode<'a>> {
        let rank = ctx.rank();
        let (w, b) = (&self.w, Some(&self.b));
        let four: Vec<usize> = (0..4).collect();
        let eight: Vec<usize> = (0..RANKS).collect();
        let mut modes = Vec::new();
        if rank < 4 {
            let group = ctx.group(&four);
            modes.push(Mode {
                index: 0,
                layer: Box::new(ColumnParallelLinear::from_global(
                    ctx, &group, "tp1d", w, b, true,
                )),
                x: self.x.clone(),
                dy: self.dy.clone(),
                tile_y: Box::new(Tensor::clone),
                tile_dx: Box::new(Tensor::clone),
            });
            let grid = Grid2d::new(ctx, &four);
            let (j, r, c) = (grid.j, grid.row, grid.col);
            let tile = move |t: &Tensor| tile_of(t, j, r, c);
            modes.push(Mode {
                index: 1,
                layer: Box::new(Linear2d::from_global(ctx, &grid, "tp2d", w, b)),
                x: tile(&self.x),
                dy: tile(&self.dy),
                tile_y: Box::new(tile),
                tile_dx: Box::new(tile),
            });
        }
        let grid = Grid25d::new(ctx, &eight, 2);
        let layer = Linear25d::from_global(ctx, &grid, "tp25d", w, b);
        let (g1, g2) = (grid.clone(), grid.clone());
        modes.push(Mode {
            index: 2,
            layer: Box::new(layer),
            x: tile_x_25d(&self.x, &grid),
            dy: tile_x_25d(&self.dy, &grid),
            tile_y: Box::new(move |t| tile_x_25d(t, &g1)),
            tile_dx: Box::new(move |t| tile_x_25d(t, &g2)),
        });
        let grid = Grid3d::new(ctx, &eight);
        let layer = Linear3d::from_global(ctx, &grid, "tp3d", w, b);
        let (g1, g2) = (grid.clone(), grid.clone());
        modes.push(Mode {
            index: 3,
            layer: Box::new(layer),
            x: tile_x_3d(&self.x, &grid),
            dy: tile_y_3d(&self.dy, &grid),
            tile_y: Box::new(move |t| tile_y_3d(t, &g1)),
            tile_dx: Box::new(move |t| tile_x_3d(t, &g2)),
        });
        modes
    }
}

impl Workload for TpModes {
    fn name(&self) -> &'static str {
        "tp_modes"
    }

    fn ranks(&self) -> usize {
        RANKS
    }

    fn segment_steps(&self) -> usize {
        self.steps
    }

    fn cluster(&self) -> colossalai_topology::Cluster {
        system_ii()
    }

    fn segment(&self, spans: Option<&Spans>) -> Segment {
        let start = Instant::now();
        let world = World::new(system_ii());
        world.set_tracing(spans.is_some());
        let out = world.run_on(RANKS, |ctx| {
            let rank = ctx.rank();
            let spans = spans.filter(|_| rank == 0);
            let mut modes = self.modes(ctx);
            let mut step_failed = vec![false; self.steps];
            let mut virtual_s = [0.0f64; 4];
            let timing = run_steps(rank == 0, start, self.steps, |s| {
                spanned(spans, "step", s, || {
                    for mode in &mut modes {
                        let clock = ctx.clock();
                        let ok = spanned(spans, MODE_NAMES[mode.index], s, || {
                            let y = mode.layer.forward(&mode.x);
                            let dx = mode.layer.backward(&mode.dy);
                            sgd(mode.layer.as_mut());
                            close(&y, &(mode.tile_y)(&self.y_ref[s]))
                                && close(&dx, &(mode.tile_dx)(&self.dx_ref[s]))
                        });
                        virtual_s[mode.index] += ctx.clock() - clock;
                        step_failed[s] |= !ok;
                    }
                });
            });
            (step_failed, ctx.clock(), virtual_s, timing)
        });

        let failed = (0..self.steps)
            .filter(|&s| out.iter().any(|r| r.0[s]))
            .count() as u64;
        let clock = out.iter().map(|r| r.1).fold(0.0, f64::max);
        let exact = [
            "parallel.tp1d.virtual_ms",
            "parallel.tp2d.virtual_ms",
            "parallel.tp25d.virtual_ms",
            "parallel.tp3d.virtual_ms",
        ]
        .into_iter()
        .zip(out[0].2)
        .map(|(name, total)| (name, total * 1e3 / self.steps as f64))
        .collect();
        let timing = out
            .into_iter()
            .next()
            .and_then(|r| r.3)
            .expect("rank 0 timed the segment");
        Segment {
            timing,
            measured_steps: self.steps - 1,
            attempted: self.steps as u64,
            failed,
            virtual_step_s: clock / self.steps as f64,
            world,
            counted_steps: self.steps,
            exact,
        }
    }

    fn probe_shape(&self) -> ProbeShape {
        ProbeShape {
            // the 2D tile product, the most frequent one in a step
            gemm: Some((self.m / 2, self.k / 2, self.n / 2)),
            rows: self.m,
            width: self.n,
            vocab: self.n,
            optim_params: self.k * self.n,
            group: 2,
            message_elems: (self.m / 2) * (self.k / 2),
            stackless: false,
            // forward, dX and dW are each one M x K x N product, per mode
            flops_per_step: 4 * 3 * matmul_flops(self.m, self.k, self.n),
        }
    }
}
