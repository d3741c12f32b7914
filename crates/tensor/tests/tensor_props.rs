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

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_view_reads_the_slice_it_names_and_shares_its_parents_storage() {
    let parent = tensor(6, 7, 11);
    for (start, rows, cols) in [(0, 6, 7), (0, 2, 3), (5, 4, 4), (41, 1, 1), (42, 0, 3)] {
        let view = parent.view(start, [rows, cols]);
        assert_eq!(view.dims(), &[rows, cols]);
        assert_eq!(view.numel(), rows * cols);
        assert_eq!(view.data(), &parent.data()[start..start + rows * cols]);
        assert!(view.shares_storage(&parent), "a view is O(1)");
        // reshape and clone keep the offset: the same elements of the same storage
        for same in [view.reshape([rows * cols]), view.clone()] {
            assert!(same.shares_storage(&parent));
            assert_eq!(same.data().as_ptr(), view.data().as_ptr());
            assert_eq!(same.data(), view.data());
        }
        // a view of a view counts from the outer view's start
        if rows * cols >= 2 {
            let inner = view.view(1, [rows * cols - 1]);
            assert_eq!(inner.data(), &parent.data()[start + 1..start + rows * cols]);
        }
    }
    // narrow still cuts a shard with storage of its own
    assert!(!parent.narrow(0, 2, 3).shares_storage(&parent));
    assert!(!parent.chunk(0, 2)[0].shares_storage(&parent));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn a_view_past_the_end_is_rejected() {
    let _ = tensor(2, 3, 1).view(4, [3]);
}

#[test]
fn writing_through_a_view_copies_exactly_its_range() {
    let parent = tensor(4, 8, 12);
    let before = bits(&parent);
    let mut view = parent.view(8, [2, 8]);
    let sibling = parent.view(4, [12]);
    view.data_mut()[3] = 99.0;
    assert_eq!(bits(&parent), before, "the parent reads as before");
    assert_eq!(bits(&sibling), before[4..16], "and so does a sibling");
    assert!(!view.shares_storage(&parent));
    assert_eq!(view.data()[3], 99.0);
    assert_eq!(view.data()[..3], parent.data()[8..11]);
    assert_eq!(view.data()[4..], parent.data()[12..24]);
    // uniquely owned from element 0 of storage all its own: a second write
    // stays put and `into_vec` hands that very buffer over
    let home = view.data().as_ptr();
    view.scale(2.0);
    assert_eq!(view.data().as_ptr(), home);
    let moved = view.into_vec();
    assert_eq!(moved.as_ptr(), home);

    // the parent, too, copies before writing while a view is alive
    let mut parent = parent;
    parent.data_mut()[5] = -1.0;
    assert_eq!(bits(&sibling), before[4..16]);
    // a view that outlives every other handle still copies only its range
    let whole = tensor(4, 8, 13);
    let mut last = whole.view(16, [16]);
    let want = bits(&last);
    drop(whole);
    assert_eq!(last.data_mut().len(), 16);
    assert_eq!(bits(&last), want);
}

#[test]
fn every_operation_on_a_view_equals_that_on_a_copy() {
    for case in 0..32 {
        let mut draw = colossalai_tensor::init::rng(500 + case);
        let (m, k, n) = (
            draw.gen_range(1usize..6),
            draw.gen_range(1usize..6),
            draw.gen_range(1usize..6),
        );
        let parent = tensor(1, 3 + m * k + 5, case);
        let start = draw.gen_range(0usize..4);
        let view = parent.view(start, [m, k]);
        let copy = Tensor::from_slice([m, k], &parent.data()[start..start + m * k]);
        assert!(!copy.shares_storage(&parent));

        assert_eq!(view, copy, "== compares contents, not storage");
        assert_ne!(view, copy.map(|x| x + 1.0));
        assert_ne!(view, copy.reshape([m * k]), "same elements, another shape");
        assert_eq!(view.clone().into_vec(), copy.clone().into_vec());
        assert_eq!(view.sum().to_bits(), copy.sum().to_bits());
        for dim in 0..2 {
            let len = view.dims()[dim];
            assert_eq!(
                view.narrow(dim, len / 2, len - len / 2),
                copy.narrow(dim, len / 2, len - len / 2)
            );
            let both = [view.clone(), copy.clone()];
            assert_eq!(
                Tensor::cat(&both, dim),
                Tensor::cat(&[copy.clone(), copy.clone()], dim)
            );
        }
        assert_eq!(view.permute(&[1, 0]), copy.permute(&[1, 0]));
        let other = tensor(m, k, 900 + case);
        let (mut via_view, mut via_copy) = (view.clone(), copy.clone());
        via_view.axpy(0.5, &other);
        via_copy.axpy(0.5, &other);
        assert_eq!(bits(&via_view), bits(&via_copy));
        let mut acc = other.clone();
        acc.axpy(-2.0, &view);
        let mut acc_copy = other.clone();
        acc_copy.axpy(-2.0, &copy);
        assert_eq!(bits(&acc), bits(&acc_copy));
        let rhs = tensor(k, n, 700 + case);
        assert_eq!(bits(&matmul(&view, &rhs)), bits(&matmul(&copy, &rhs)));
        let lhs = tensor(n, m, 800 + case);
        assert_eq!(bits(&matmul(&lhs, &view)), bits(&matmul(&lhs, &copy)));
        assert_eq!(
            bits(&matmul_bt(&rhs.transpose(), &view)),
            bits(&matmul_bt(&rhs.transpose(), &copy))
        );
        assert_eq!(format!("{view:?}"), format!("{copy:?}"));
    }
}
