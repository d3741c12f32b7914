//! The dense `f32` tensor type used across the whole workspace.

use crate::pool;
use crate::shape::Shape;
use std::fmt;
use std::mem;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// The owned backing buffer of a [`Tensor`], wrapped so the buffer recycles
/// through the global [`pool`] when the last handle drops instead of hitting
/// the system allocator. `Clone` (the copy-on-write unshare path) draws its
/// copy from the pool too, so steady-state training mutates recycled memory
/// instead of faulting in fresh pages every step.
pub struct Storage {
    buf: Vec<f32>,
}

impl Storage {
    /// Wraps a caller-provided buffer (it will recycle on drop).
    #[inline]
    fn from_vec(buf: Vec<f32>) -> Self {
        Storage { buf }
    }

    /// A zero-filled buffer of length `n`, pooled when possible.
    #[inline]
    fn zeroed(n: usize) -> Self {
        Storage {
            buf: pool::take_zeroed(n),
        }
    }

    /// Consumes the storage, handing the buffer to the caller. The `Drop`
    /// that still runs sees an empty `Vec` (capacity 0), which the pool
    /// ignores.
    #[inline]
    fn into_buf(mut self) -> Vec<f32> {
        mem::take(&mut self.buf)
    }

    /// A pooled deep copy of a slice (the unshare / `into_vec`-while-shared
    /// path).
    #[inline]
    fn copied_from(src: &[f32]) -> Self {
        let mut buf = pool::take_buffer(src.len());
        buf.extend_from_slice(src);
        Storage { buf }
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        pool::recycle(mem::take(&mut self.buf));
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        Storage::copied_from(&self.buf)
    }
}

/// A dense, contiguous, row-major `f32` tensor with copy-on-write storage.
///
/// This is the single numeric currency of the reproduction: simulated-device
/// buffers, parameters, gradients and activations are all `Tensor`s. The
/// buffer is shared behind an [`Arc`], so `Clone` (and [`Tensor::reshape`])
/// is O(1) — collectives that fan one buffer out to `p` ranks hand out `p`
/// handles to a single allocation instead of `p` deep copies. A handle may
/// also name just a contiguous range of the allocation ([`Tensor::view`]):
/// a parameter is a view of the gathered bucket it arrived in. Every
/// mutation path goes through [`Tensor::data_mut`], which first copies the
/// handle's own range into fresh storage unless the handle is the only one
/// and covers the whole allocation, so tensors still *behave* exactly like
/// independent values: writing through one handle can never be observed
/// through another.
///
/// # Examples
///
/// ```
/// use colossalai_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::ones([2, 2]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
///
/// let mut d = c.clone();          // shares storage with c
/// assert!(d.shares_storage(&c));
/// d.scale(2.0);                   // unshares before writing
/// assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    storage: Arc<Storage>,
    /// Where this handle's `shape.numel()` elements start in `storage`.
    offset: usize,
}

/// Same shape and same elements, wherever each side's storage lives.
impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Tensor {
    /// A handle to all of a fresh `storage`.
    fn owning(shape: Shape, storage: Storage) -> Self {
        Tensor {
            shape,
            storage: Arc::new(storage),
            offset: 0,
        }
    }

    /// Builds a tensor from a shape and matching data buffer.
    ///
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor::owning(shape, Storage::from_vec(data))
    }

    /// Builds a tensor by copying a slice into pooled storage.
    pub fn from_slice(shape: impl Into<Shape>, data: &[f32]) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor::owning(shape, Storage::copied_from(data))
    }

    /// All-zeros tensor (drawn from the storage pool when possible).
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::owning(shape, Storage::zeroed(n))
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut buf = pool::take_buffer(n);
        buf.resize(n, value);
        Tensor::owning(shape, Storage::from_vec(buf))
    }

    /// Rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::owning(Shape::scalar(), Storage::from_vec(vec![value]))
    }

    /// `[0, 1, 2, .., n-1]` as a 1-D tensor (useful in tests).
    pub fn arange(n: usize) -> Self {
        let mut buf = pool::take_buffer(n);
        buf.extend((0..n).map(|i| i as f32));
        Tensor::owning(Shape::new([n]), Storage::from_vec(buf))
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Read-only view of the backing buffer in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.storage.buf[self.offset..self.offset + self.numel()]
    }

    /// Mutable view of the backing buffer in row-major order.
    ///
    /// This is the copy-on-write point: if the storage is shared with other
    /// handles, or this handle is a view of part of it, exactly the
    /// handle's own elements are copied into fresh pooled storage first, so
    /// the returned slice is always exclusively owned (and the handle no
    /// longer pins the storage it was a view of).
    pub fn data_mut(&mut self) -> &mut [f32] {
        if !self.covers_storage() {
            self.storage = Arc::new(Storage::copied_from(self.data()));
            self.offset = 0;
        }
        // a handle to the whole storage copies all of it, and only if shared
        Arc::make_mut(&mut self.storage).buf.as_mut_slice()
    }

    /// Consumes the tensor, returning its elements as a buffer (copying —
    /// into a pooled buffer — if the storage is still shared with other
    /// handles or this handle is a view of part of it).
    pub fn into_vec(self) -> Vec<f32> {
        if !self.covers_storage() {
            return Storage::copied_from(self.data()).into_buf();
        }
        match Arc::try_unwrap(self.storage) {
            Ok(storage) => storage.into_buf(),
            Err(shared) => Storage::copied_from(&shared.buf).into_buf(),
        }
    }

    /// True if `self` and `other` share one storage allocation (i.e. both
    /// are copy-on-write handles to the same buffer, or views of it).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Whether this handle names every element of its storage.
    fn covers_storage(&self) -> bool {
        self.offset == 0 && self.numel() == self.storage.buf.len()
    }

    /// An O(1) handle to the `shape.numel()` elements starting at flat
    /// element `start`, under `shape`. Copy-on-write like every shared
    /// handle: writing through the view (or through `self`) copies the
    /// writer's own range first. A view keeps the *whole* storage alive, so
    /// it suits a piece whose siblings live just as long (the parameters
    /// inside one gathered bucket); a lone shard is cut with
    /// [`Tensor::narrow`], which copies.
    pub fn view(&self, start: usize, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert!(
            start + shape.numel() <= self.numel(),
            "view [{start}, {}) out of bounds for {} elements",
            start + shape.numel(),
            self.numel()
        );
        Tensor {
            shape,
            storage: self.storage.clone(),
            offset: self.offset + start,
        }
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data()[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index (unsharing the storage if needed).
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// The value of a rank-0 or single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data()[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    /// The result shares storage with `self` (copy-on-write).
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into shape {}",
            self.numel(),
            shape
        );
        self.view(0, shape)
    }

    /// In-place variant of [`Tensor::reshape`] (no buffer copy).
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.numel());
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, returning a new (pooled) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = pool::take_buffer(self.numel());
        buf.extend(self.data().iter().map(|&x| f(x)));
        Tensor::owning(self.shape.clone(), Storage::from_vec(buf))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut buf = pool::take_buffer(self.numel());
        buf.extend(
            self.data()
                .iter()
                .zip(other.data().iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor::owning(self.shape.clone(), Storage::from_vec(buf))
    }

    /// `self += alpha * other`, the fused update at the heart of every
    /// optimizer and gradient accumulation step. The loop runs over
    /// fixed-width `chunks_exact` lanes so the compiler can drop bounds
    /// checks and autovectorize.
    #[inline]
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        axpy_slices(self.data_mut(), alpha, other.data());
    }

    /// Multiplies every element by `s` in place (autovectorized like
    /// [`Tensor::axpy`]).
    #[inline]
    pub fn scale(&mut self, s: f32) {
        scale_slice(self.data_mut(), s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data().is_empty() {
            0.0
        } else {
            self.sum() / self.data().len() as f32
        }
    }

    /// Maximum element. Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data().is_empty(), "max() of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data()
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose() requires rank 2");
        self.permute(&[1, 0])
    }

    /// Generic dimension permutation (copies).
    ///
    /// The output is written front to back in *runs*: the innermost block of
    /// output dimensions that walks the source with one constant stride
    /// (adjacent dimensions merge when the outer one's source stride spans
    /// the inner one exactly; extent-1 dimensions drop out). A run of stride
    /// 1 is contiguous on both sides and is one `memcpy`; any other stride
    /// is a gather. The source offset of the next run comes from a stride
    /// odometer over the remaining dimensions, so no element costs a
    /// division or an allocation.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape = Shape::new(perm.iter().map(|&p| self.dims()[p]).collect::<Vec<_>>());
        // (extent, source stride) of the merged output dimensions,
        // innermost first
        let in_strides = self.shape.strides();
        let mut dims: Vec<(usize, usize)> = Vec::with_capacity(perm.len());
        for &p in perm.iter().rev() {
            let (extent, stride) = (self.dims()[p], in_strides[p]);
            match dims.last_mut() {
                _ if extent == 1 => {}
                Some((inner, inner_stride)) if stride == *inner * *inner_stride => *inner *= extent,
                _ => dims.push((extent, stride)),
            }
        }
        let (&(run, run_stride), outer) = dims.split_first().unwrap_or((&(1, 1), &[]));
        let data = self.data();
        let numel = data.len();
        let mut out = pool::take_buffer(numel);
        let mut index = vec![0usize; outer.len()];
        let mut src = 0usize;
        while out.len() < numel {
            if run_stride == 1 {
                out.extend_from_slice(&data[src..src + run]);
            } else {
                out.extend((0..run).map(|i| data[src + i * run_stride]));
            }
            for (i, &(extent, stride)) in index.iter_mut().zip(outer) {
                *i += 1;
                src += stride;
                if *i < extent {
                    break;
                }
                src -= extent * stride;
                *i = 0;
            }
        }
        Tensor::owning(out_shape, Storage::from_vec(out))
    }

    /// Copies a contiguous slab `start..start+len` of dimension `dim`.
    ///
    /// This is the sharding primitive: splitting a batch, a hidden dimension
    /// or a sequence across devices is `narrow` along the relevant axis. It
    /// copies even where the slab is contiguous, so a shard never keeps the
    /// tensor it was cut from alive ([`Tensor::view`] is the O(1) form).
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Tensor {
        assert!(dim < self.rank(), "narrow dim {dim} out of range");
        let extent = self.dims()[dim];
        assert!(
            start + len <= extent,
            "narrow [{start}, {}) out of bounds for extent {extent}",
            start + len
        );
        let outer: usize = self.dims()[..dim].iter().product();
        let inner: usize = self.dims()[dim + 1..].iter().product();
        let data = self.data();
        let mut out = pool::take_buffer(outer * len * inner);
        for o in 0..outer {
            let base = o * extent * inner + start * inner;
            out.extend_from_slice(&data[base..base + len * inner]);
        }
        Tensor::from_vec(self.shape.with_dim(dim, len), out)
    }

    /// Splits dimension `dim` into `parts` equal chunks.
    ///
    /// Panics unless the extent divides evenly — all sharding grids in this
    /// system require exact divisibility, mirroring the paper's constraints
    /// (e.g. attention heads divisible by the 1D parallel size).
    pub fn chunk(&self, dim: usize, parts: usize) -> Vec<Tensor> {
        let extent = self.dims()[dim];
        assert!(
            parts > 0 && extent.is_multiple_of(parts),
            "dim {dim} extent {extent} not divisible into {parts} parts"
        );
        let each = extent / parts;
        (0..parts)
            .map(|p| self.narrow(dim, p * each, each))
            .collect()
    }

    /// Splits dimension `dim` into `parts` chunks without requiring even
    /// divisibility: the first `extent % parts` chunks carry one extra
    /// element (torch `tensor_split` semantics).
    pub fn chunk_ragged(&self, dim: usize, parts: usize) -> Vec<Tensor> {
        assert!(parts > 0, "chunk into zero parts");
        let extent = self.dims()[dim];
        let base = extent / parts;
        let extra = extent % parts;
        let mut start = 0;
        (0..parts)
            .map(|p| {
                let len = base + usize::from(p < extra);
                let piece = self.narrow(dim, start, len);
                start += len;
                piece
            })
            .collect()
    }

    /// Concatenates tensors along `dim`. All other extents must agree.
    pub fn cat(tensors: &[Tensor], dim: usize) -> Tensor {
        assert!(!tensors.is_empty(), "cat of empty list");
        let first = &tensors[0];
        let rank = first.rank();
        assert!(dim < rank, "cat dim {dim} out of range");
        let mut total = 0usize;
        for t in tensors {
            assert_eq!(t.rank(), rank, "cat rank mismatch");
            for d in 0..rank {
                if d != dim {
                    assert_eq!(
                        t.dims()[d],
                        first.dims()[d],
                        "cat extent mismatch on dim {d}"
                    );
                }
            }
            total += t.dims()[dim];
        }
        let out_shape = first.shape.with_dim(dim, total);
        let outer: usize = first.dims()[..dim].iter().product();
        let inner: usize = first.dims()[dim + 1..].iter().product();
        // one pooled buffer of the output's capacity, extended in output
        // order: every element is written exactly once, none zeroed first
        let mut out = pool::take_buffer(out_shape.numel());
        for o in 0..outer {
            for t in tensors {
                let part = t.dims()[dim] * inner;
                out.extend_from_slice(&t.data()[o * part..(o + 1) * part]);
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Stacks rank-equal tensors along a new leading dimension.
    pub fn stack(tensors: &[Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "stack of empty list");
        let first_shape = tensors[0].shape.clone();
        let mut data = pool::take_buffer(first_shape.numel() * tensors.len());
        for t in tensors {
            assert_eq!(t.shape, first_shape, "stack shape mismatch");
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(first_shape.dims());
        Tensor::from_vec(dims, data)
    }

    /// Adds a rank-1 bias of length `n` to the last dimension (`n`-wide rows).
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_bias_assign(bias);
        out
    }

    /// In-place variant of [`Tensor::add_bias`]: allocation-free on a
    /// uniquely-owned tensor (e.g. a fresh GEMM output).
    pub fn add_bias_assign(&mut self, bias: &Tensor) {
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        let n = bias.numel();
        assert_eq!(
            *self.dims().last().expect("add_bias on scalar"),
            n,
            "bias length mismatch"
        );
        for row in self.data_mut().chunks_mut(n) {
            for (x, &b) in row.iter_mut().zip(bias.data().iter()) {
                *x += b;
            }
        }
    }

    /// Memory footprint in bytes if stored as `f32`.
    pub fn bytes_f32(&self) -> usize {
        self.numel() * 4
    }

    /// Memory footprint in bytes if stored as `f16`.
    pub fn bytes_f16(&self) -> usize {
        self.numel() * 2
    }
}

/// `dst[i] += alpha * src[i]` over 8-wide exact chunks (bounds-check-free,
/// autovectorizable) with a scalar tail. Public so benches can pin its
/// throughput and optimizers can fuse over raw slices.
#[inline]
pub fn axpy_slices(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    const LANES: usize = 8;
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for i in 0..LANES {
            dc[i] += alpha * sc[i];
        }
    }
    for (x, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x += alpha * b;
    }
}

/// `dst[i] *= s` over 8-wide exact chunks with a scalar tail.
#[inline]
pub fn scale_slice(dst: &mut [f32], s: f32) {
    const LANES: usize = 8;
    let mut d = dst.chunks_exact_mut(LANES);
    for dc in &mut d {
        for x in dc.iter_mut() {
            *x *= s;
        }
    }
    for x in d.into_remainder() {
        *x *= s;
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "data={:?})", self.data())
        } else {
            let data = self.data();
            write!(
                f,
                "data=[{}, {}, .. {} elements])",
                data[0],
                data[1],
                data.len()
            )
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.])
    }

    #[test]
    fn construction_and_access() {
        let t = t2x3();
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn elementwise_ops() {
        let a = t2x3();
        let b = Tensor::full([2, 3], 2.0);
        assert_eq!((&a + &b).data(), &[3., 4., 5., 6., 7., 8.]);
        assert_eq!((&a * &b).data(), &[2., 4., 6., 8., 10., 12.]);
        assert_eq!((&a - &b).data(), &[-1., 0., 1., 2., 3., 4.]);
        assert_eq!((&a / &b).data(), &[0.5, 1., 1.5, 2., 2.5, 3.]);
        assert_eq!((-&a).data(), &[-1., -2., -3., -4., -5., -6.]);
        assert_eq!((&a * 10.0).data(), &[10., 20., 30., 40., 50., 60.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros([4]);
        a.axpy(0.5, &Tensor::from_vec([4], vec![2., 4., 6., 8.]));
        assert_eq!(a.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn transpose_2d() {
        let t = t2x3().transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        // involution
        assert_eq!(t.transpose(), t2x3());
    }

    #[test]
    fn permute_matches_transpose() {
        let t = t2x3();
        assert_eq!(t.permute(&[1, 0]), t.transpose());
        // identity permutation
        assert_eq!(t.permute(&[0, 1]), t);
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::arange(24).reshaped([2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
    }

    #[test]
    fn narrow_middle_dim() {
        let t = Tensor::arange(24).reshaped([2, 3, 4]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.dims(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn chunk_then_cat_roundtrip() {
        let t = Tensor::arange(24).reshaped([2, 3, 4]);
        for dim in 0..3 {
            let parts = t.dims()[dim];
            let chunks = t.chunk(dim, parts);
            assert_eq!(Tensor::cat(&chunks, dim), t);
        }
    }

    #[test]
    fn stack_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::ones([2, 3]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.dims(), &[2, 2, 3]);
        assert_eq!(s.at(&[1, 1, 1]), 1.0);
    }

    #[test]
    fn add_bias_broadcasts_rows() {
        let x = Tensor::zeros([2, 2, 3]);
        let b = Tensor::from_vec([3], vec![1., 2., 3.]);
        let y = x.add_bias(&b);
        assert_eq!(y.at(&[1, 1, 2]), 3.0);
    }

    #[test]
    fn reductions() {
        let t = t2x3();
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert!((t.norm() - 91.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_shape_mismatch() {
        let _ = t2x3().zip(&Tensor::zeros([3, 2]), |a, _| a);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn chunk_requires_divisibility() {
        t2x3().chunk(1, 2);
    }

    #[test]
    fn a_handle_is_four_words() {
        // the element offset took the place of `Shape`'s capacity word
        assert_eq!(mem::size_of::<Tensor>(), 4 * mem::size_of::<usize>());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let a = t2x3();
        let mut b = a.clone();
        assert!(b.shares_storage(&a));
        b.set(&[0, 0], 9.0);
        assert!(!b.shares_storage(&a));
        assert_eq!(
            a.at(&[0, 0]),
            1.0,
            "mutating a clone must not leak into the original"
        );
        assert_eq!(b.at(&[0, 0]), 9.0);
    }

    #[test]
    fn reshape_shares_storage() {
        let a = t2x3();
        let r = a.reshape([3, 2]);
        assert!(r.shares_storage(&a));
        assert_eq!(r.at(&[2, 1]), 6.0);
    }

    #[test]
    fn every_mutation_path_unshares() {
        let base = t2x3();
        type Mutation = Box<dyn Fn(&mut Tensor)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(|t| t.set(&[0, 0], -1.0)),
            Box::new(|t| t.data_mut()[0] = -1.0),
            Box::new(|t| t.map_inplace(|x| x + 1.0)),
            Box::new(|t| t.axpy(2.0, &Tensor::ones([2, 3]))),
            Box::new(|t| t.scale(0.5)),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut copy = base.clone();
            assert!(copy.shares_storage(&base));
            mutate(&mut copy);
            assert!(
                !copy.shares_storage(&base),
                "mutation {i} failed to unshare"
            );
            assert_eq!(
                base.data(),
                &[1., 2., 3., 4., 5., 6.],
                "mutation {i} leaked"
            );
        }
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let a = t2x3();
        let b = a.clone();
        assert_eq!(b.into_vec(), vec![1., 2., 3., 4., 5., 6.]); // shared: copies
        assert_eq!(a.into_vec(), vec![1., 2., 3., 4., 5., 6.]); // unique: moves
    }
}
