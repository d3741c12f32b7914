//! Bench: local GEMM kernel generations on transformer shapes.
//!
//! Compares the two seed kernels (`gemm_ref_ikj`, `gemm_ref_blocked`) against
//! the packed register-blocked core (`kernel::gemm_mat`, on the widest
//! `kernel::lanes()` the CPU has, printed first), on shapes a transformer
//! actually hits:
//!
//! * `512x512x512` — the square reference point quoted in `results/`;
//! * `128x768x768`  — BERT-base attention output projection, 128 tokens;
//! * `128x768x3072` — BERT-base MLP up-projection, 128 tokens;
//! * `64x64x64`     — a per-device tile after 2D/3D sharding.
//!
//! Run with `cargo bench --bench gemm_kernels`; numbers are recorded in
//! `results/gemm_kernels.txt`.

use colossalai_bench::{bench_fn, median_secs};
use colossalai_tensor::kernel::{self, gemm_mat, Mat};
use colossalai_tensor::matmul::{gemm_ref_blocked, gemm_ref_ikj, matmul_flops};
use colossalai_tensor::{axpy_slices, scale_slice};

const SHAPES: &[(usize, usize, usize)] = &[
    (512, 512, 512),
    (128, 768, 768),
    (128, 768, 3072),
    (64, 64, 64),
];

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn main() {
    println!("packed runs on {:?} lanes", kernel::lanes());
    for &(m, k, n) in SHAPES {
        let a = rand_vec(m * k, 3);
        let b = rand_vec(k * n, 5);
        let mut out = vec![0.0f32; m * n];
        let gflop = matmul_flops(m, k, n) as f64 / 1e9;
        let label = |kernel: &str| format!("gemm_kernels/{kernel}/{m}x{k}x{n} ({gflop:.2} GFLOP)");
        let (am, bm) = (Mat::row_major(&a, k), Mat::row_major(&b, n));

        bench_fn(&label("seed_ikj"), || {
            out.fill(0.0);
            gemm_ref_ikj(&a, &b, &mut out, m, k, n);
            std::hint::black_box(&mut out);
        });
        bench_fn(&label("seed_blocked"), || {
            out.fill(0.0);
            gemm_ref_blocked(&a, &b, &mut out, m, k, n);
            std::hint::black_box(&mut out);
        });
        bench_fn(&label("packed"), || {
            out.fill(0.0);
            gemm_mat(am, bm, &mut out, m, k, n);
            std::hint::black_box(&mut out);
        });
    }
    micro_assert_axpy_scale();
}

/// Guards the `chunks_exact` rewrite of `Tensor::axpy`/`scale`: the chunked
/// slice kernels must not regress against the plain scalar loops. The floor
/// is lenient (1.5x) so noisy shared-CPU CI never flakes; a real regression
/// (e.g. a dropped `#[inline]` forcing an outlined call per element) blows
/// well past it.
fn micro_assert_axpy_scale() {
    const N: usize = 1 << 16;
    const REPS: usize = 200;
    let src = rand_vec(N, 11);
    let base = rand_vec(N, 13);

    let mut dst = base.clone();
    let naive_axpy = median_secs(9, || {
        for _ in 0..REPS {
            for (a, &b) in dst.iter_mut().zip(&src) {
                *a += 0.5 * b;
            }
        }
        std::hint::black_box(&mut dst);
    });
    let mut dst = base.clone();
    let chunked_axpy = median_secs(9, || {
        for _ in 0..REPS {
            axpy_slices(&mut dst, 0.5, &src);
        }
        std::hint::black_box(&mut dst);
    });

    let mut dst = base.clone();
    let naive_scale = median_secs(9, || {
        for _ in 0..REPS {
            for v in dst.iter_mut() {
                *v *= 1.0001;
            }
        }
        std::hint::black_box(&mut dst);
    });
    let mut dst = base;
    let chunked_scale = median_secs(9, || {
        for _ in 0..REPS {
            scale_slice(&mut dst, 1.0001);
        }
        std::hint::black_box(&mut dst);
    });

    println!(
        "axpy  {N} elems x{REPS}: chunked {:.3} ms vs naive {:.3} ms ({:.2}x)",
        chunked_axpy * 1e3,
        naive_axpy * 1e3,
        naive_axpy / chunked_axpy
    );
    println!(
        "scale {N} elems x{REPS}: chunked {:.3} ms vs naive {:.3} ms ({:.2}x)",
        chunked_scale * 1e3,
        naive_scale * 1e3,
        naive_scale / chunked_scale
    );
    assert!(
        chunked_axpy <= naive_axpy * 1.5,
        "chunked axpy regressed: {chunked_axpy:.6}s vs naive {naive_axpy:.6}s"
    );
    assert!(
        chunked_scale <= naive_scale * 1.5,
        "chunked scale regressed: {chunked_scale:.6}s vs naive {naive_scale:.6}s"
    );
}
