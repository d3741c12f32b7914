//! Shape and stride arithmetic for dense row-major tensors.

use std::fmt;

/// The shape of a dense tensor: one extent per dimension.
///
/// A scalar is represented by an empty shape (`rank() == 0`, `numel() == 1`).
/// Shapes are always paired with contiguous row-major strides in this crate;
/// strided slices materialize copies instead of aliasing (the only O(1)
/// sub-tensor is a contiguous `Tensor::view`), which keeps the kernel code
/// simple.
///
/// The extents are a boxed slice, not a `Vec`: a shape never grows, and
/// without the capacity word a `Tensor` handle — shape, storage and element
/// offset — stays four words (`hybrid_4096` moves thousands of 256-element
/// tensors per step and read 2–6 % slower with a fifth).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Box<[usize]>);

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// Zero-sized dimensions are allowed and yield `numel() == 0`.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into().into_boxed_slice())
    }

    /// Scalar shape (rank 0).
    pub fn scalar() -> Self {
        Shape(Box::default())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `d`. Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C-order) strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1usize;
        for (s, &d) in strides.iter_mut().zip(self.0.iter()).rev() {
            *s = acc;
            acc *= d;
        }
        strides
    }

    /// Linear offset of a multi-index. Panics on rank or bounds mismatch.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} != shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0usize;
        let mut acc = 1usize;
        for (&i, &d) in index.iter().zip(self.0.iter()).rev() {
            assert!(i < d, "index {i} out of bounds for dim of extent {d}");
            off += i * acc;
            acc *= d;
        }
        off
    }

    /// Inverse of [`Shape::offset`]: the multi-index of linear element `off`.
    pub fn unravel(&self, mut off: usize) -> Vec<usize> {
        assert!(off < self.numel().max(1), "offset {off} out of bounds");
        let mut idx = vec![0; self.rank()];
        for (i, &d) in idx.iter_mut().zip(self.0.iter()).rev() {
            *i = off % d;
            off /= d;
        }
        idx
    }

    /// Returns a shape with dimension `d` replaced by `extent`.
    pub fn with_dim(&self, d: usize, extent: usize) -> Shape {
        let mut dims = self.0.clone();
        dims[d] = extent;
        Shape(dims)
    }

    /// Interprets `self` as a matrix by collapsing all leading dimensions:
    /// `[d0, .., dk, n] -> (d0*..*dk, n)`. Rank must be >= 1.
    pub fn as_matrix(&self) -> (usize, usize) {
        assert!(self.rank() >= 1, "cannot view a scalar as a matrix");
        let n = *self.0.last().unwrap();
        (self.numel() / n.max(1), n)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v.into_boxed_slice())
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.into())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::new([3, 5, 7]);
        for off in 0..s.numel() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx), off);
        }
    }

    #[test]
    fn as_matrix_collapses_leading() {
        let s = Shape::new([2, 3, 8]);
        assert_eq!(s.as_matrix(), (6, 8));
        let v = Shape::new([5]);
        assert_eq!(v.as_matrix(), (1, 5));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        Shape::new([2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn zero_extent_dim() {
        let s = Shape::new([4, 0, 2]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn with_dim_replaces() {
        let s = Shape::new([4, 6]).with_dim(1, 3);
        assert_eq!(s.dims(), &[4, 3]);
    }
}
