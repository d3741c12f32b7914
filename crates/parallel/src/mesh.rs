//! 2D, 2.5D and 3D tensor parallelism as one [`TensorParallel`] mode.
//!
//! All three shard every activation twice — the batch rows over some of the
//! mesh axes, the hidden axis over another — and differ only in which
//! distributed linear does the matmul and which process groups play which
//! role. A `Sharding` names those groups for one layout; the rest of the
//! mode (LayerNorm, embeddings, heads, loss, scatter and gather) is written
//! against it once.
//!
//! | mode | linear | hidden split by | batch rows split by |
//! |---|---|---|---|
//! | 2D `j x j` | [`Linear2d`] | grid row (`col` index) | grid column |
//! | 2.5D `j x j x d` | [`Linear25d`] | grid row | depth, then grid column |
//! | 3D `l^3`, stream | [`Linear3d`], input | `j` axis | `i`, then `k` |
//! | 3D `l^3`, branch | [`Linear3d`], output | `k` axis | `i`, then `j` |
//!
//! Under 2D and 2.5D the stream and the branch share one layout. Under 3D a
//! `Stream -> Branch` linear runs on the cube as built and a `Branch ->
//! Stream` one on the cube with its `j` and `k` axes exchanged, whose input
//! layout is the first one's output layout and vice versa: consecutive
//! linears chain X -> Y -> X with no re-layout between them.

use crate::grad_sync::GradSync;
use crate::norm2d::LayerNorm2d;
use crate::tp25d::{Grid25d, Linear25d};
use crate::tp2d::{Grid2d, Linear2d};
use crate::tp3d::{Grid3d, Linear3d};
use crate::vocab_parallel::{mean_loss_over_rows, vocab_parallel_cross_entropy};
use colossalai_autograd::{Embedding, Gelu, Layer, Param, PositionEmbedding, Sequential};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_models::{Layout, TensorParallel};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::Tensor;
use colossalai_topology::DeviceId;

/// The process groups that cut one activation layout.
#[derive(Clone)]
struct Sharding {
    /// Its members hold the hidden-axis slices of the same rows, in order.
    hidden: Group,
    /// Together they split the batch rows, outermost first: this device
    /// holds row block `(rank_0 * size_1 + rank_1) ..`.
    batch: Vec<Group>,
}

impl Sharding {
    /// This device's part of a full `[batch, ..]` tensor: its block of the
    /// leading axis and, with `hidden`, its slice of the last one.
    fn cut(&self, x: &Tensor, hidden: bool) -> Tensor {
        let (parts, index) = self.batch.iter().fold((1, 0), |(parts, index), g| {
            (parts * g.size(), index * g.size() + g.rank())
        });
        let rows = x.dims()[0] / parts;
        let x = x.narrow(0, index * rows, rows);
        if !hidden {
            return x;
        }
        let last = x.rank() - 1;
        let width = x.dims()[last] / self.hidden.size();
        x.narrow(last, self.hidden.rank() * width, width)
    }

    /// The inverse of `cut(.., true)`.
    fn gather(&self, ctx: &DeviceCtx, y: &Tensor) -> Tensor {
        let mut full = self.hidden.all_gather_cat(ctx, y.clone(), y.rank() - 1);
        for group in self.batch.iter().rev() {
            full = group.all_gather_cat(ctx, full, 0);
        }
        full
    }
}

#[derive(Clone)]
enum Mesh {
    TwoD(Grid2d),
    TwoPointFiveD(Grid25d),
    /// The cube, and the cube over the same devices with `j` and `k`
    /// exchanged.
    ThreeD(Grid3d, Grid3d),
}

/// 2D / 2.5D / 3D tensor parallelism over the devices of one tensor group.
#[derive(Clone)]
pub struct MeshParallel {
    ctx: DeviceCtx,
    mesh: Mesh,
    stream: Sharding,
    branch: Sharding,
}

impl MeshParallel {
    /// 2D over `members` (row-major `j x j`, see [`Grid2d::new`]).
    pub fn two_d(ctx: &DeviceCtx, members: &[DeviceId]) -> Self {
        let grid = Grid2d::new(ctx, members);
        let tile = Sharding {
            hidden: grid.row_group.clone(),
            batch: vec![grid.col_group.clone()],
        };
        Self::new(ctx, Mesh::TwoD(grid), tile.clone(), tile)
    }

    /// 2.5D over `members` (depth-major `d x j x j`, see [`Grid25d::new`]).
    pub fn two_point_five_d(ctx: &DeviceCtx, members: &[DeviceId], depth: usize) -> Self {
        let grid = Grid25d::new(ctx, members, depth);
        let tile = Sharding {
            hidden: grid.grid2d.row_group.clone(),
            batch: vec![grid.depth_group.clone(), grid.grid2d.col_group.clone()],
        };
        Self::new(ctx, Mesh::TwoPointFiveD(grid), tile.clone(), tile)
    }

    /// 3D over `members` (`i`-major `l x l x l`, see [`Grid3d::new`]).
    pub fn three_d(ctx: &DeviceCtx, members: &[DeviceId]) -> Self {
        let grid = Grid3d::new(ctx, members);
        let l = grid.l;
        // device (i, j, k) of the exchanged cube is device (i, k, j) of this one
        let exchanged: Vec<DeviceId> = (0..members.len())
            .map(|at| members[at / (l * l) * l * l + at % l * l + at / l % l])
            .collect();
        let stream = Sharding {
            hidden: grid.j_group.clone(),
            batch: vec![grid.i_group.clone(), grid.k_group.clone()],
        };
        let branch = Sharding {
            hidden: grid.k_group.clone(),
            batch: vec![grid.i_group.clone(), grid.j_group.clone()],
        };
        let mesh = Mesh::ThreeD(grid, Grid3d::new(ctx, &exchanged));
        Self::new(ctx, mesh, stream, branch)
    }

    fn new(ctx: &DeviceCtx, mesh: Mesh, stream: Sharding, branch: Sharding) -> Self {
        MeshParallel {
            ctx: ctx.clone(),
            mesh,
            stream,
            branch,
        }
    }

    /// The distributed linear taking the stream layout to the branch layout
    /// (`enter`) or back.
    fn mesh_linear(
        &self,
        name: &str,
        w: &Tensor,
        b: Option<&Tensor>,
        enter: bool,
    ) -> Box<dyn Layer> {
        let ctx = &self.ctx;
        match &self.mesh {
            Mesh::TwoD(grid) => Box::new(Linear2d::from_global(ctx, grid, name, w, b)),
            Mesh::TwoPointFiveD(grid) => Box::new(Linear25d::from_global(ctx, grid, name, w, b)),
            Mesh::ThreeD(cube, exchanged) => {
                let grid = if enter { cube } else { exchanged };
                Box::new(Linear3d::from_global(ctx, grid, name, w, b))
            }
        }
    }

    /// `layer`, whose parameters are replicated across the devices that hold
    /// other rows of the stream, with their gradients summed over them.
    fn row_replicated(&self, layer: impl Layer + 'static) -> Box<dyn Layer> {
        Box::new(GradSync::new(&self.ctx, self.stream.batch.clone(), layer))
    }

    /// This device's hidden-axis slice of a global `[rows, hidden]` table.
    fn stream_columns(&self, table: &Tensor) -> Tensor {
        let width = table.dims()[1] / self.stream.hidden.size();
        table.narrow(1, self.stream.hidden.rank() * width, width)
    }

    fn sharding(&self, layout: Layout) -> &Sharding {
        match layout {
            Layout::Branch => &self.branch,
            _ => &self.stream,
        }
    }
}

/// `inner` applied to this device's part of the full input. Its backward
/// returns the gradient of that part.
struct CutInput {
    sharding: Sharding,
    /// Cut the hidden axis too (`false` for token ids, which have none).
    hidden: bool,
    inner: Box<dyn Layer>,
}

impl Layer for CutInput {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(&self.sharding.cut(x, self.hidden))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

/// `inner` with its output gathered into the full tensor on every device,
/// and the full output gradient cut back into `inner`'s part of it.
struct GatherOutput {
    ctx: DeviceCtx,
    sharding: Sharding,
    inner: Box<dyn Layer>,
}

impl Layer for GatherOutput {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.sharding.gather(&self.ctx, &self.inner.forward(x))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(&self.sharding.cut(dy, true))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

impl TensorParallel for MeshParallel {
    fn linear(
        &self,
        name: &str,
        w: Tensor,
        b: Option<Tensor>,
        from: Layout,
        to: Layout,
        gelu: bool,
    ) -> Box<dyn Layer> {
        // a full input is cut into the branch layout and a full output is
        // gathered from it, so every linear runs between the two mesh layouts
        let inner = self.mesh_linear(name, &w, b.as_ref(), to != Layout::Stream);
        match (from, to) {
            (Layout::Full, _) => Box::new(CutInput {
                sharding: self.branch.clone(),
                hidden: true,
                inner,
            }),
            (_, Layout::Full) => Box::new(GatherOutput {
                ctx: self.ctx.clone(),
                sharding: self.branch.clone(),
                inner,
            }),
            _ if gelu => Box::new(Sequential::new(vec![inner, Box::new(Gelu::new())])),
            _ => inner,
        }
    }

    fn layer_norm(&self, name: &str, dim: usize) -> Box<dyn Layer> {
        self.row_replicated(LayerNorm2d::new(&self.ctx, &self.stream.hidden, name, dim))
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads / self.branch.hidden.size()
    }

    fn token_embedding(
        &self,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        // every device looks its rows' ids up in its hidden-axis slice of
        // the table: the stream tile with no forward communication
        let table = init::normal([vocab, dim], 0.0, 0.02, rng);
        self.row_replicated(CutInput {
            sharding: self.stream.clone(),
            hidden: false,
            inner: Box::new(Embedding::from_table(name, self.stream_columns(&table))),
        })
    }

    fn position_embedding(
        &self,
        name: &str,
        max_seq: usize,
        dim: usize,
        rng: &mut InitRng,
    ) -> Box<dyn Layer> {
        let table = init::normal([max_seq, dim], 0.0, 0.02, rng);
        self.row_replicated(PositionEmbedding::from_table(
            name,
            self.stream_columns(&table),
        ))
    }

    fn loss(&self, logits: &Tensor, targets: &[usize], total: usize) -> (f32, Tensor) {
        // the devices of `branch.hidden` hold the vocabulary slices of the
        // same rows; the row groups hold the other rows
        let (ctx, vocab) = (&self.ctx, &self.branch.hidden);
        mean_loss_over_rows(ctx, &self.branch.batch, logits, targets, total, |l, t| {
            vocab_parallel_cross_entropy(ctx, vocab, l, t)
        })
    }

    fn shard(&self, x: &Tensor, layout: Layout) -> Tensor {
        match layout {
            Layout::Full => x.clone(),
            _ => self.sharding(layout).cut(x, false),
        }
    }

    fn gather(&self, y: &Tensor, layout: Layout) -> Tensor {
        match layout {
            Layout::Full => y.clone(),
            _ => self.sharding(layout).gather(&self.ctx, y),
        }
    }
}
