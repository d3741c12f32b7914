//! Property tests for the packed GEMM core: every routed variant (plain,
//! transposed, batched) must agree with a naive triple loop on
//! arbitrary shapes — including degenerate ones (`1 x N`, `N x 1`, zero-size
//! dims) and sizes that straddle the microtile and cache-block boundaries.

use colossalai_tensor::kernel::{self, gemm_mat, Mat};
use colossalai_tensor::{bmm, bmm_at, bmm_bt, matmul, matmul_at, matmul_bt, Tensor};
use rand::Rng;

/// Dimension menu biased toward the edges the kernel has to get right:
/// degenerate sizes, the microtile extents `MR`/`NR`/`NR_WIDE`, the
/// `B`-row stream's row threshold and straddlers of each.
const DIMS: &[usize] = &[
    0,
    1,
    2,
    kernel::MR - 1,
    kernel::MR,
    kernel::MR + 1,
    kernel::NR - 1,
    kernel::NR,
    kernel::NR + 1,
    kernel::NR_WIDE - 1,
    kernel::NR_WIDE,
    kernel::NR_WIDE + 1,
    kernel::B_ROW_STREAM_MAX_M - 1,
    kernel::B_ROW_STREAM_MAX_M,
    kernel::B_ROW_STREAM_MAX_M + 1,
];

/// Inner-dimension menu, with the row stream's depth threshold and its
/// straddlers; kept moderate so the naive reference stays fast in debug
/// builds (the `KC`/`MC`/`NC` straddlers are covered by the unit tests in
/// `kernel.rs`).
const KDIMS: &[usize] = &[
    0,
    1,
    2,
    kernel::MR + 1,
    kernel::ROW_STREAM_MAX_K - 1,
    kernel::ROW_STREAM_MAX_K,
    kernel::ROW_STREAM_MAX_K + 1,
    40,
];

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn rand_t(dims: impl Into<colossalai_tensor::Shape>, seed: u64) -> Tensor {
    let mut rng = colossalai_tensor::init::rng(seed);
    colossalai_tensor::init::uniform(dims, -2.0, 2.0, &mut rng)
}

fn tol(k: usize) -> f32 {
    1e-4 * (k.max(1) as f32)
}

#[test]
fn packed_gemm_matches_naive() {
    for case in 0..48 {
        let mut draw = colossalai_tensor::init::rng(case);
        let mi = draw.gen_range(0..DIMS.len());
        let ki = draw.gen_range(0..KDIMS.len());
        let ni = draw.gen_range(0..DIMS.len());
        let seed = draw.gen_range(0u64..1000);
        let (m, k, n) = (DIMS[mi], KDIMS[ki], DIMS[ni]);
        let a = rand_t([m, k], seed);
        let b = rand_t([k, n], seed + 1);
        let mut c = vec![0.0f32; m * n];
        gemm_mat(
            Mat::row_major(a.data(), k),
            Mat::row_major(b.data(), n),
            &mut c,
            m,
            k,
            n,
        );
        let want = naive(a.data(), b.data(), m, k, n);
        for (got, want) in c.iter().zip(&want) {
            assert!(
                (got - want).abs() <= tol(k),
                "({m},{k},{n}): {got} vs {want}"
            );
        }
    }
}

#[test]
fn transposed_variants_match_materialized() {
    for case in 0..48 {
        let mut draw = colossalai_tensor::init::rng(case);
        let mi = draw.gen_range(0..DIMS.len());
        let ki = draw.gen_range(0..KDIMS.len());
        let ni = draw.gen_range(0..DIMS.len());
        let seed = draw.gen_range(0u64..1000);
        // matmul_bt / matmul_at feed strided views into the packed kernel;
        // they must agree with explicitly transposing first
        let (m, k, n) = (DIMS[mi].max(1), KDIMS[ki].max(1), DIMS[ni].max(1));
        let a = rand_t([m, k], seed);
        let bt = rand_t([n, k], seed + 3);
        assert!(matmul_bt(&a, &bt).allclose(&matmul(&a, &bt.transpose()), tol(k)));
        let at = rand_t([k, m], seed + 4);
        let b = rand_t([k, n], seed + 5);
        assert!(matmul_at(&at, &b).allclose(&matmul(&at.transpose(), &b), tol(k)));
    }
}

#[test]
fn batched_variants_match_per_batch() {
    for case in 0..48 {
        let mut draw = colossalai_tensor::init::rng(case);
        let ba = draw.gen_range(1usize..4);
        let mi = draw.gen_range(0..DIMS.len());
        let ki = draw.gen_range(0..KDIMS.len());
        let ni = draw.gen_range(0..DIMS.len());
        let seed = draw.gen_range(0u64..1000);
        let (m, k, n) = (DIMS[mi].max(1), KDIMS[ki].max(1), DIMS[ni].max(1));
        let a = rand_t([ba, m, k], seed);
        let b = rand_t([ba, k, n], seed + 6);
        let c = bmm(&a, &b);
        for t in 0..ba {
            let at = a.narrow(0, t, 1).reshaped([m, k]);
            let bt = b.narrow(0, t, 1).reshaped([k, n]);
            let ct = c.narrow(0, t, 1).reshaped([m, n]);
            assert!(
                ct.allclose(&matmul(&at, &bt), tol(k)),
                "batch {t} of ({ba},{m},{k},{n})"
            );
        }
        let b_t = rand_t([ba, n, k], seed + 7);
        assert!(bmm_bt(&a, &b_t).allclose(&bmm(&a, &b_t.permute(&[0, 2, 1])), tol(k)));
        let a_t = rand_t([ba, k, m], seed + 8);
        assert!(bmm_at(&a_t, &b).allclose(&bmm(&a_t.permute(&[0, 2, 1]), &b), tol(k)));
    }
}

#[test]
fn gemm_accumulation_contract() {
    for case in 0..48 {
        let mut draw = colossalai_tensor::init::rng(case);
        let mi = draw.gen_range(0..DIMS.len());
        let ki = draw.gen_range(0..KDIMS.len());
        let ni = draw.gen_range(0..DIMS.len());
        let seed = draw.gen_range(0u64..1000);
        // C += A@B on a non-zero C: running twice must add exactly twice
        let (m, k, n) = (DIMS[mi], KDIMS[ki], DIMS[ni]);
        let a = rand_t([m, k], seed);
        let b = rand_t([k, n], seed + 9);
        let mut once = vec![0.0f32; m * n];
        colossalai_tensor::gemm(a.data(), b.data(), &mut once, m, k, n);
        let mut twice = once.clone();
        colossalai_tensor::gemm(a.data(), b.data(), &mut twice, m, k, n);
        for (o, t) in once.iter().zip(&twice) {
            assert!((t - 2.0 * o).abs() <= tol(k));
        }
    }
}
