//! 2D, 2.5D and 3D tensor parallelism as one [`TensorParallel`] mode.
//!
//! All three put the devices on a three-axis grid and shard every
//! activation twice — the batch rows over some grid axes, the hidden axis
//! over another — and differ only in the grid, in which axes cut what, and
//! in which distributed linear does the matmul. [`MeshLayout`] is that
//! table as a value; the grids, the tiles, the shardings below,
//! `check_model` and the cost model of `throughput` all read it, and
//! [`axis_group`] lists the members of every one of their process groups.
//!
//! | mode | grid | linear | stream rows / hidden | branch rows / hidden | weight rows / columns | weight replicas |
//! |---|---|---|---|---|---|---|
//! | 2D | `[1, j, j]` | [`Linear2d`] | 1 / 2 | 1 / 2 | 1 / 2 | none |
//! | 2.5D | `[d, j, j]` | [`Linear25d`] | 0, 1 / 2 | 0, 1 / 2 | 1 / 2 | 0, summed in the linear |
//! | 3D | `[l, l, l]` | [`Linear3d`] | 0, 2 / 1 | 0, 1 / 2 | 1, 0 / 2 | none |
//!
//! Axis 0 is the 2.5D depth (size 1 under 2D), axis 1 the grid row and axis
//! 2 the grid column; under 3D they are `i`, `j` and `k`. Row axes are
//! listed outermost first. The norms and embeddings hold stream columns
//! replicated over the stream's row axes: their [`Param::replicas`] name the
//! stream's row groups, and the gradient reducer sums them there. Under 2D
//! and 2.5D the stream and the branch share one layout. Under 3D a
//! `Stream -> Branch` linear runs on the cube as built and a
//! `Branch -> Stream` one on the cube with axes 1 and 2 exchanged, whose
//! input layout is the first one's output layout and vice versa:
//! consecutive linears chain X -> Y -> X with no re-layout between them.

use crate::norm2d::LayerNorm2d;
use crate::tp25d::{Grid25d, Linear25d};
use crate::tp2d::{Grid2d, Linear2d};
use crate::tp3d::{Grid3d, Linear3d};
use crate::vocab_parallel::{mean_loss_over_rows, vocab_parallel_cross_entropy};
use crate::volume::TpMode;
use colossalai_autograd::{Embedding, Gelu, Layer, Param, PositionEmbedding, Sequential};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_models::{Layout, TensorParallel};
use colossalai_tensor::init::{self, InitRng};
use colossalai_tensor::Tensor;
use colossalai_topology::DeviceId;

/// Which grid axes cut one tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// The axes that split the rows (the leading axis), outermost first.
    pub rows: &'static [usize],
    /// The axis that splits the last axis.
    pub cols: usize,
}

/// One row of the module table: a 2D / 2.5D / 3D device grid and the axes
/// that cut the stream, the branch and a linear's weight on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshLayout {
    /// [`TpMode::grid`]: device `members[(a0 * n1 + a1) * n2 + a2]` sits at
    /// position `[a0, a1, a2]` of grid `[n0, n1, n2]`.
    pub grid: [usize; 3],
    /// The residual stream: the input of a `Stream -> Branch` linear.
    pub stream: Cut,
    /// The branch: that linear's output, and the logits.
    pub branch: Cut,
    /// A linear's `[in, out]` weight.
    pub weight: Cut,
}

impl MeshLayout {
    /// `mode`'s layout over `grid`. Panics for 1D, which has none.
    pub fn over(mode: TpMode, grid: [usize; 3]) -> MeshLayout {
        let cut = |rows, cols| Cut { rows, cols };
        let (stream, branch, weight) = match mode {
            TpMode::OneD => panic!("1D tensor parallelism has no mesh layout"),
            TpMode::TwoD => (cut(&[1], 2), cut(&[1], 2), cut(&[1], 2)),
            TpMode::TwoPointFiveD { .. } => (cut(&[0, 1], 2), cut(&[0, 1], 2), cut(&[1], 2)),
            TpMode::ThreeD => (cut(&[0, 2], 1), cut(&[0, 1], 2), cut(&[1, 0], 2)),
        };
        MeshLayout {
            grid,
            stream,
            branch,
            weight,
        }
    }

    /// The block of a full `[rows, .., cols]` tensor that grid position `at`
    /// holds under `cut`.
    pub(crate) fn tile(&self, x: &Tensor, cut: Cut, at: [usize; 3]) -> Tensor {
        let rows: Vec<(usize, usize)> = cut.rows.iter().map(|&a| (at[a], self.grid[a])).collect();
        tile(x, &rows, Some((at[cut.cols], self.grid[cut.cols])))
    }
}

/// The members of the process group through grid position `at` along
/// `axes`: the devices whose positions differ from `at` only on `axes`,
/// row-major over `axes` as listed. Every 2D / 2.5D / 3D group is one, and
/// so is every group of the `[dp, pp, tp]` grid of `core::ParallelContext`.
pub fn axis_group(
    members: &[DeviceId],
    grid: [usize; 3],
    at: [usize; 3],
    axes: &[usize],
) -> Vec<DeviceId> {
    let count: usize = axes.iter().map(|&a| grid[a]).product();
    (0..count)
        .map(|mut q| {
            let mut pos = at;
            for &a in axes.iter().rev() {
                pos[a] = q % grid[a];
                q /= grid[a];
            }
            members[(pos[0] * grid[1] + pos[1]) * grid[2] + pos[2]]
        })
        .collect()
}

/// The grid position of `members[index]`.
pub fn position(grid: [usize; 3], index: usize) -> [usize; 3] {
    [
        index / (grid[1] * grid[2]),
        index / grid[2] % grid[1],
        index % grid[2],
    ]
}

/// The grid position of the calling device.
pub(crate) fn my_position(ctx: &DeviceCtx, members: &[DeviceId], grid: [usize; 3]) -> [usize; 3] {
    let index = members
        .iter()
        .position(|&m| m == ctx.rank())
        .expect("calling device not in the grid");
    position(grid, index)
}

/// The block of `x` at row block `rows` of its leading axis — `(index,
/// parts)` digits, outermost first, read as one mixed-radix index — and,
/// with `cols`, at column block `cols` of its last axis. Every tile and
/// shard of the mesh modes is one.
pub(crate) fn tile(x: &Tensor, rows: &[(usize, usize)], cols: Option<(usize, usize)>) -> Tensor {
    let (index, parts) = rows
        .iter()
        .fold((0, 1), |(index, parts), &(i, n)| (index * n + i, parts * n));
    let (c, width) = cols.unwrap_or((0, 1));
    let last = x.rank() - 1;
    let (m, k) = (x.dims()[0], x.dims()[last]);
    assert!(
        m.is_multiple_of(parts) && k.is_multiple_of(width),
        "{:?} does not cut into {parts} row blocks and {width} column blocks",
        x.dims()
    );
    let x = match rows {
        [] => x.clone(),
        _ => x.narrow(0, index * (m / parts), m / parts),
    };
    match cols {
        Some(_) => x.narrow(last, c * (k / width), k / width),
        None => x,
    }
}

/// The calling device's `(index, parts)` block along `group`.
fn block(group: &Group) -> (usize, usize) {
    (group.rank(), group.size())
}

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
    /// The groups along `cut`'s axes through the calling device.
    fn new(ctx: &DeviceCtx, members: &[DeviceId], layout: &MeshLayout, cut: Cut) -> Sharding {
        let at = my_position(ctx, members, layout.grid);
        let group = |axis| ctx.group(&axis_group(members, layout.grid, at, &[axis]));
        Sharding {
            hidden: group(cut.cols),
            batch: cut.rows.iter().map(|&axis| group(axis)).collect(),
        }
    }

    /// This device's part of a full `[batch, ..]` tensor: its block of the
    /// leading axis and, with `hidden`, its slice of the last one.
    fn cut(&self, x: &Tensor, hidden: bool) -> Tensor {
        let rows: Vec<(usize, usize)> = self.batch.iter().map(block).collect();
        tile(x, &rows, hidden.then(|| block(&self.hidden)))
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
    /// The cube, and the cube over the same devices with axes 1 and 2
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
    /// `mode` (2D, 2.5D or 3D) over `members`, laid out on its grid as
    /// [`MeshLayout`] places them. Every member must call with the same list.
    pub fn new(ctx: &DeviceCtx, mode: TpMode, members: &[DeviceId]) -> Self {
        let p = members.len();
        let grid = mode
            .grid(p)
            .unwrap_or_else(|| panic!("{} does not admit {p} devices", mode.label()));
        let layout = MeshLayout::over(mode, grid);
        let mesh = match mode {
            TpMode::TwoD => Mesh::TwoD(Grid2d::new(ctx, members)),
            TpMode::TwoPointFiveD { depth } => {
                Mesh::TwoPointFiveD(Grid25d::new(ctx, members, depth))
            }
            _ => {
                // the whole cube listed with axes 1 and 2 exchanged
                let exchanged = axis_group(members, grid, [0; 3], &[0, 2, 1]);
                Mesh::ThreeD(Grid3d::new(ctx, members), Grid3d::new(ctx, &exchanged))
            }
        };
        MeshParallel {
            ctx: ctx.clone(),
            mesh,
            stream: Sharding::new(ctx, members, &layout, layout.stream),
            branch: Sharding::new(ctx, members, &layout, layout.branch),
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

    /// `layer` with its parameters marked replicated over the groups that
    /// split the stream's rows, outermost first.
    fn row_replicated(&self, mut layer: impl Layer + 'static) -> Box<dyn Layer> {
        let rows: Vec<_> = self
            .stream
            .batch
            .iter()
            .map(|g| g.members().to_vec())
            .collect();
        layer.visit_params(&mut |p| p.replicas = rows.clone());
        Box::new(layer)
    }

    /// This device's hidden-axis slice of a global `[rows, hidden]` table.
    fn stream_columns(&self, table: &Tensor) -> Tensor {
        tile(table, &[], Some(block(&self.stream.hidden)))
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
