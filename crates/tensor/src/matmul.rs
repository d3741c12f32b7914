//! Matrix-multiplication entry points.
//!
//! All distributed matmul algorithms (1D/2D/2.5D/3D tensor parallelism)
//! bottom out in these local kernels. Every variant — plain, transposed, and
//! batched — routes through the packed register-blocked core in
//! [`crate::kernel`]; transposed operands are passed as strided views so the
//! transpose is never materialized and never touches the hot loop.
//!
//! The seed kernels ([`gemm_ref_ikj`], [`gemm_ref_blocked`]) are kept as
//! reference baselines for the `gemm_kernels` benchmark and for differential
//! tests; they are not used by any production path.

use crate::kernel::{for_each_batch, gemm_mat_auto, Mat};
use crate::tensor::Tensor;

/// Block edge for the reference tiled kernel; sized so that three `B x B`
/// f32 tiles fit comfortably in a typical 32 KiB L1 data cache.
const BLOCK: usize = 48;

/// `C = A @ B` for rank-2 operands `(m, k) @ (k, n) -> (m, n)`.
///
/// Inputs of higher rank should be collapsed first (see [`matmul_nd`]).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    let mut out = crate::pool::take_zeroed(m * n);
    gemm(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec([m, n], out)
}

/// `C += A @ B` on raw row-major slices. The accumulation form is what the
/// SUMMA / Cannon / 2.5D loops need (they accumulate partial products panel
/// by panel into a local tile).
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm lhs size");
    assert_eq!(b.len(), k * n, "gemm rhs size");
    assert_eq!(c.len(), m * n, "gemm out size");
    gemm_mat_auto(Mat::row_major(a, k), Mat::row_major(b, n), c, m, k, n);
}

/// Reference i-k-j kernel from the seed tree, kept for benchmarking and
/// differential tests. The `a_ip == 0.0` skip made sparse-ish inputs cheap
/// but costs a branch per scalar on dense ones.
pub fn gemm_ref_ikj(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ip * b_pj;
            }
        }
    }
}

/// Reference cache-blocked kernel from the seed tree, kept for benchmarking
/// and differential tests.
pub fn gemm_ref_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    let c_row = &mut c[i * n + j0..i * n + j1];
                    for p in p0..p1 {
                        let a_ip = a[i * k + p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n + j0..p * n + j1];
                        for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row.iter()) {
                            *c_ij += a_ip * b_pj;
                        }
                    }
                }
            }
        }
    }
}

/// `A @ B` where `A` may have arbitrary leading dimensions:
/// `[d0, .., dk, K] @ [K, N] -> [d0, .., dk, N]`.
///
/// This is the shape contract of a linear layer applied to `(batch, seq, K)`
/// activations.
pub fn matmul_nd(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(a.rank() >= 1, "matmul_nd lhs must have rank >= 1");
    assert_eq!(b.rank(), 2, "matmul_nd rhs must be rank 2");
    let (rows, k) = a.shape().as_matrix();
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nd inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(rows * n);
    gemm(a.data(), b.data(), &mut out, rows, k, n);
    let mut dims = a.dims().to_vec();
    *dims.last_mut().unwrap() = n;
    Tensor::from_vec(dims, out)
}

/// `A @ B^T` without materializing the transpose: `(m, k) @ (n, k)^T -> (m, n)`.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_bt inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(m * n);
    gemm_mat_auto(
        Mat::row_major(a.data(), k),
        Mat::transposed(b.data(), k),
        &mut out,
        m,
        k,
        n,
    );
    Tensor::from_vec([m, n], out)
}

/// Fused gradient-accumulating `A^T @ B`: `out += a^T @ b` without the
/// temporary tensor (and its zero-fill and second axpy pass) that
/// `matmul_at` + `Tensor::axpy` would cost. Bitwise-identical to that
/// composed pair: for `k <= kernel::KC` each output element gets its
/// fully-reduced ascending-`k` dot added exactly once (see
/// [`crate::kernel::gemm_mat_acc`]); deeper reductions fall back to the
/// composed path itself.
pub fn matmul_at_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_at_acc inner-dimension mismatch");
    assert_eq!(
        out.dims(),
        &[m, n][..],
        "matmul_at_acc output shape mismatch"
    );
    if k <= crate::kernel::KC {
        crate::kernel::gemm_mat_acc(
            Mat::transposed(a.data(), m),
            Mat::row_major(b.data(), n),
            out.data_mut(),
            m,
            k,
            n,
        );
    } else {
        out.axpy(1.0, &matmul_at(a, b));
    }
}

/// `A^T @ B` without materializing the transpose: `(k, m)^T @ (k, n) -> (m, n)`.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_at inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(m * n);
    gemm_mat_auto(
        Mat::transposed(a.data(), m),
        Mat::row_major(b.data(), n),
        &mut out,
        m,
        k,
        n,
    );
    Tensor::from_vec([m, n], out)
}

/// Batched matmul over matching leading batch dimensions:
/// `[batch, m, k] @ [batch, k, n] -> [batch, m, n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm lhs must be rank 3");
    assert_eq!(b.rank(), 3, "bmm rhs must be rank 3");
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "bmm batch mismatch");
    assert_eq!(k, k2, "bmm inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(ba * m * n);
    for_each_batch(ba, m * n, &mut out, |t, c_t| {
        gemm_mat_auto(
            Mat::row_major(&a.data()[t * m * k..(t + 1) * m * k], k),
            Mat::row_major(&b.data()[t * k * n..(t + 1) * k * n], n),
            c_t,
            m,
            k,
            n,
        );
    });
    Tensor::from_vec([ba, m, n], out)
}

/// Batched `A @ B^T`: `[batch, m, k] @ [batch, n, k]^T -> [batch, m, n]`.
pub fn bmm_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm_bt lhs must be rank 3");
    assert_eq!(b.rank(), 3, "bmm_bt rhs must be rank 3");
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, n, k2) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "bmm_bt batch mismatch");
    assert_eq!(k, k2, "bmm_bt inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(ba * m * n);
    for_each_batch(ba, m * n, &mut out, |t, c_t| {
        gemm_mat_auto(
            Mat::row_major(&a.data()[t * m * k..(t + 1) * m * k], k),
            Mat::transposed(&b.data()[t * n * k..(t + 1) * n * k], k),
            c_t,
            m,
            k,
            n,
        );
    });
    Tensor::from_vec([ba, m, n], out)
}

/// Batched `A^T @ B`: `[batch, k, m]^T @ [batch, k, n] -> [batch, m, n]`.
pub fn bmm_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm_at lhs must be rank 3");
    assert_eq!(b.rank(), 3, "bmm_at rhs must be rank 3");
    let (ba, k, m) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "bmm_at batch mismatch");
    assert_eq!(k, k2, "bmm_at inner-dimension mismatch");
    let mut out = crate::pool::take_zeroed(ba * m * n);
    for_each_batch(ba, m * n, &mut out, |t, c_t| {
        gemm_mat_auto(
            Mat::transposed(&a.data()[t * k * m..(t + 1) * k * m], m),
            Mat::row_major(&b.data()[t * k * n..(t + 1) * k * n], n),
            c_t,
            m,
            k,
            n,
        );
    });
    Tensor::from_vec([ba, m, n], out)
}

/// FLOPs of a dense `(m, k) @ (k, n)` multiply (multiply-add counted as 2).
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    fn rand_t(dims: [usize; 2], seed: u64) -> Tensor {
        // tiny deterministic LCG; avoids pulling rand into the kernel tests
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let n = dims[0] * dims[1];
        let data = (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect();
        Tensor::from_vec(dims, data)
    }

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn blocked_matches_naive_across_sizes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 7, 3),
            (48, 48, 48),
            (65, 130, 49),
            (100, 3, 100),
        ] {
            let a = rand_t([m, k], (m * 31 + k) as u64);
            let b = rand_t([k, n], (k * 17 + n) as u64);
            let got = matmul(&a, &b);
            let want = naive(&a, &b);
            assert!(
                got.allclose(&want, 1e-3),
                "mismatch at ({m},{k},{n}): {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn packed_matches_reference_kernels() {
        for &(m, k, n) in &[(5, 7, 3), (48, 48, 48), (65, 130, 49), (100, 3, 100)] {
            let a = rand_t([m, k], (m * 3 + k) as u64);
            let b = rand_t([k, n], (k * 5 + n) as u64);
            let mut packed = vec![0.0f32; m * n];
            gemm(a.data(), b.data(), &mut packed, m, k, n);
            let mut ikj = vec![0.0f32; m * n];
            gemm_ref_ikj(a.data(), b.data(), &mut ikj, m, k, n);
            let mut blocked = vec![0.0f32; m * n];
            gemm_ref_blocked(a.data(), b.data(), &mut blocked, m, k, n);
            let tol = 1e-4 * k as f32;
            for j in 0..m * n {
                assert!((packed[j] - ikj[j]).abs() <= tol, "vs ikj at ({m},{k},{n})");
                assert!(
                    (packed[j] - blocked[j]).abs() <= tol,
                    "vs blocked at ({m},{k},{n})"
                );
            }
        }
    }

    #[test]
    fn matmul_nd_collapses_batch() {
        let a = rand_t([6, 4], 1).reshaped([2, 3, 4]);
        let b = rand_t([4, 5], 2);
        let c = matmul_nd(&a, &b);
        assert_eq!(c.dims(), &[2, 3, 5]);
        let flat = matmul(&a.reshape([6, 4]), &b);
        assert_eq!(c.data(), flat.data());
    }

    #[test]
    fn bt_and_at_match_explicit_transpose() {
        let a = rand_t([7, 5], 3);
        let b = rand_t([9, 5], 4);
        assert!(matmul_bt(&a, &b).allclose(&matmul(&a, &b.transpose()), 1e-4));
        let a2 = rand_t([5, 7], 5);
        let b2 = rand_t([5, 9], 6);
        assert!(matmul_at(&a2, &b2).allclose(&matmul(&a2.transpose(), &b2), 1e-4));
    }

    #[test]
    fn bmm_per_batch() {
        let a = rand_t([6, 4], 7).reshaped([2, 3, 4]);
        let b = rand_t([8, 5], 8).reshaped([2, 4, 5]);
        let c = bmm(&a, &b);
        for t in 0..2 {
            let at = a.narrow(0, t, 1).reshaped([3, 4]);
            let bt = b.narrow(0, t, 1).reshaped([4, 5]);
            let ct = c.narrow(0, t, 1).reshaped([3, 5]);
            assert!(ct.allclose(&matmul(&at, &bt), 1e-4));
        }
    }

    #[test]
    fn bmm_bt_matches_explicit() {
        let a = rand_t([6, 4], 11).reshaped([2, 3, 4]);
        let b = rand_t([10, 4], 12).reshaped([2, 5, 4]);
        let c = bmm_bt(&a, &b);
        let want = bmm(&a, &b.permute(&[0, 2, 1]));
        assert!(c.allclose(&want, 1e-4));
    }

    #[test]
    fn bmm_at_matches_explicit() {
        let a = rand_t([8, 3], 13).reshaped([2, 4, 3]);
        let b = rand_t([8, 5], 14).reshaped([2, 4, 5]);
        let c = bmm_at(&a, &b);
        let want = bmm(&a.permute(&[0, 2, 1]), &b);
        assert!(c.allclose(&want, 1e-4));
    }

    #[test]
    fn gemm_accumulates() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::ones([2, 2]);
        let mut c = vec![1.0f32; 4];
        gemm(a.data(), b.data(), &mut c, 2, 2, 2);
        assert_eq!(c, vec![3.0; 4]); // 1 (existing) + 2 (dot of ones)
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn shape_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
