//! Algebraic property tests for the tensor kernels.

use colossalai_tensor::{bmm, matmul, matmul_at, matmul_bt, Shape, Tensor};
use rand::Rng;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = colossalai_tensor::init::rng(seed);
    colossalai_tensor::init::uniform([rows, cols], -2.0, 2.0, &mut rng)
}

#[test]
fn chunk_cat_inverse() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let rows = draw.gen_range(1usize..6);
        let cols_blocks = draw.gen_range(1usize..5);
        let parts = draw.gen_range(1usize..5);
        let seed = draw.gen_range(0u64..1000);
        let cols = cols_blocks * parts;
        let t = tensor(rows, cols, seed);
        let chunks = t.chunk(1, parts);
        assert_eq!(Tensor::cat(&chunks, 1), t);
    }
}

#[test]
fn transpose_involution() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let rows = draw.gen_range(1usize..8);
        let cols = draw.gen_range(1usize..8);
        let seed = draw.gen_range(0u64..1000);
        let t = tensor(rows, cols, seed);
        assert_eq!(t.transpose().transpose(), t);
    }
}

#[test]
fn permute_roundtrip_3d() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let a = draw.gen_range(1usize..4);
        let b = draw.gen_range(1usize..4);
        let c = draw.gen_range(1usize..4);
        let seed = draw.gen_range(0u64..1000);
        let t = tensor(a * b, c, seed).reshaped([a, b, c]);
        let p = t.permute(&[2, 0, 1]);
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }
}

/// The loop `Tensor::permute` replaced: every output element unravels its
/// own multi-index and re-ravels it against the source strides.
fn permute_by_multi_index(t: &Tensor, perm: &[usize]) -> Tensor {
    let out_shape = Shape::new(perm.iter().map(|&p| t.dims()[p]).collect::<Vec<_>>());
    let in_strides = t.shape().strides();
    let data = (0..t.numel())
        .map(|out_off| {
            let out_idx = out_shape.unravel(out_off);
            let in_off: usize = perm
                .iter()
                .zip(&out_idx)
                .map(|(&p, &i)| i * in_strides[p])
                .sum();
            t.data()[in_off]
        })
        .collect();
    Tensor::from_vec(out_shape, data)
}

/// Every ordering of `0..rank`, by Heap's algorithm.
fn permutations(rank: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, perm: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(perm.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, perm, out);
            perm.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(rank, &mut (0..rank).collect(), &mut out);
    out
}

#[test]
fn permute_matches_the_multi_index_oracle_for_every_permutation() {
    const EXTENTS: [usize; 5] = [1, 2, 3, 5, 8];
    let mut draw = colossalai_tensor::init::rng(99);
    for rank in 1..=5usize {
        let perms = permutations(rank);
        assert_eq!(perms.len(), (1..=rank).product::<usize>());
        assert!(perms.contains(&(0..rank).collect()), "identity included");
        for perm in &perms {
            // fresh extents per permutation: runs of 1s, merged and split
            // dimensions all turn up across the 153 cases
            let mut dims: Vec<usize> = (0..rank)
                .map(|_| EXTENTS[draw.gen_range(0usize..5)])
                .collect();
            let t = Tensor::arange(dims.iter().product()).reshaped(dims.clone());
            let got = t.permute(perm);
            assert_eq!(
                got,
                permute_by_multi_index(&t, perm),
                "{dims:?} by {perm:?}"
            );
            // a zero extent anywhere leaves an empty tensor of the permuted shape
            dims[draw.gen_range(0..rank)] = 0;
            let empty = Tensor::zeros(dims.clone()).permute(perm);
            let want: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
            assert_eq!((empty.dims(), empty.numel()), (&want[..], 0));
        }
    }
    // rank 0: one element, nothing to permute
    assert_eq!(Tensor::scalar(3.0).permute(&[]), Tensor::scalar(3.0));
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let m = draw.gen_range(1usize..5);
        let k = draw.gen_range(1usize..5);
        let n = draw.gen_range(1usize..5);
        let seed = draw.gen_range(0u64..1000);
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        let c = tensor(k, n, seed + 2);
        let lhs = matmul(&a, &b.zip(&c, |x, y| x + y));
        let rhs = matmul(&a, &b).zip(&matmul(&a, &c), |x, y| x + y);
        assert!(lhs.allclose(&rhs, 1e-4), "diff {}", lhs.max_abs_diff(&rhs));
    }
}

#[test]
fn matmul_transpose_identity() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let m = draw.gen_range(1usize..5);
        let k = draw.gen_range(1usize..5);
        let n = draw.gen_range(1usize..5);
        let seed = draw.gen_range(0u64..1000);
        // (A B)^T = B^T A^T
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 7);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert!(lhs.allclose(&rhs, 1e-4));
        // the fused transposed kernels agree with explicit transposes
        assert!(matmul_bt(&a, &b.transpose()).allclose(&matmul(&a, &b), 1e-4));
        assert!(matmul_at(&a.transpose(), &b).allclose(&matmul(&a, &b), 1e-4));
    }
}

#[test]
fn block_matmul_equals_full() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let mb = draw.gen_range(1usize..4);
        let kb = draw.gen_range(1usize..4);
        let n = draw.gen_range(1usize..5);
        let seed = draw.gen_range(0u64..1000);
        // [A1; A2] @ B == [A1 @ B; A2 @ B]  (row-block identity behind every
        // distributed decomposition in the workspace)
        let (m, k) = (mb * 2, kb * 2);
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 3);
        let full = matmul(&a, &b);
        let blocks = a.chunk(0, 2);
        let stacked = Tensor::cat(&[matmul(&blocks[0], &b), matmul(&blocks[1], &b)], 0);
        assert!(stacked.allclose(&full, 1e-4));
        // A @ [B1 B2] == [A @ B1, A @ B2] requires even n
        if n % 2 == 0 {
            let bcols = b.chunk(1, 2);
            let side = Tensor::cat(&[matmul(&a, &bcols[0]), matmul(&a, &bcols[1])], 1);
            assert!(side.allclose(&full, 1e-4));
        }
        // inner-dimension split: A = [A1 A2], B = [B1; B2]:
        // A @ B == A1 @ B1 + A2 @ B2 (the SUMMA accumulation identity)
        let acols = a.chunk(1, 2);
        let brows = b.chunk(0, 2);
        let sum = matmul(&acols[0], &brows[0]).zip(&matmul(&acols[1], &brows[1]), |x, y| x + y);
        assert!(sum.allclose(&full, 1e-4));
    }
}

#[test]
fn bmm_is_batched_matmul() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let batch = draw.gen_range(1usize..4);
        let m = draw.gen_range(1usize..4);
        let k = draw.gen_range(1usize..4);
        let n = draw.gen_range(1usize..4);
        let seed = draw.gen_range(0u64..1000);
        let a = tensor(batch * m, k, seed).reshaped([batch, m, k]);
        let b = tensor(batch * k, n, seed + 5).reshaped([batch, k, n]);
        let c = bmm(&a, &b);
        for t in 0..batch {
            let at = a.narrow(0, t, 1).reshaped([m, k]);
            let bt = b.narrow(0, t, 1).reshaped([k, n]);
            let ct = c.narrow(0, t, 1).reshaped([m, n]);
            assert!(ct.allclose(&matmul(&at, &bt), 1e-4));
        }
    }
}

#[test]
fn softmax_invariant_under_shift() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let cols = draw.gen_range(2usize..8);
        let shift = draw.gen_range(-5.0f32..5.0);
        let seed = draw.gen_range(0u64..1000);
        use colossalai_tensor::ops::softmax;
        let x = tensor(3, cols, seed);
        let shifted = x.map(|v| v + shift);
        let a = softmax(&x);
        let b = softmax(&shifted);
        assert!(a.allclose(&b, 1e-5), "softmax must be shift-invariant");
    }
}

#[test]
fn narrow_matches_indexing() {
    for case in 0..64 {
        let mut draw = colossalai_tensor::init::rng(case);
        let rows = draw.gen_range(2usize..6);
        let cols = draw.gen_range(2usize..6);
        let seed = draw.gen_range(0u64..1000);
        let t = tensor(rows, cols, seed);
        let start = rows / 2;
        let len = rows - start;
        let n = t.narrow(0, start, len);
        for i in 0..len {
            for j in 0..cols {
                assert_eq!(n.at(&[i, j]), t.at(&[start + i, j]));
            }
        }
    }
}
