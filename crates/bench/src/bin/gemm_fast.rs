//! Deterministic vs fast-mode GEMM on the transformer shapes quoted in
//! `results/gemm_kernels.txt`: the same packed register-blocked core, once
//! with the default mul-then-add microkernel and once with the FMA
//! microkernel (`compute.fast` / `set_fast_mode`).
//!
//! Timing is a median over interleaved passes (same de-noising rationale as
//! `world_scale`): every pass times every (shape, kernel) cell once, so
//! machine-speed drift hits all rows alike instead of biasing the ratios.
//!
//! `--json` emits one object for the CI gate:
//! `{"fma": bool, "shapes": [{"shape": "512x512x512", "det_gflops": ..,
//!   "fast_gflops": .., "fast_speedup": ..}, ..]}` — the gate asserts
//! `fast_speedup >= 1.0` on the two largest shapes, but only when `fma` is
//! true (without the hardware FMA unit the fast microkernel's `mul_add`
//! falls back to the correctly-rounded libm routine, which is *slower* by
//! design — same bits, no claim of speed).

use colossalai_bench::print_table;
use colossalai_tensor::kernel::{gemm_mat, Mat};
use colossalai_tensor::matmul::matmul_flops;
use colossalai_tensor::{fma_available, set_fast_mode};
use std::time::Instant;

const SHAPES: &[(usize, usize, usize)] = &[(512, 512, 512), (128, 768, 3072), (128, 768, 768)];
/// Interleaved timing passes per cell; the median is reported.
const REPS: usize = 7;

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

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Row {
    shape: String,
    det_gflops: f64,
    fast_gflops: f64,
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let fma = fma_available();

    // cells[shape][kernel] = timing samples; kernels are det=0, fast=1
    let mut cells: Vec<[Vec<f64>; 2]> = SHAPES.iter().map(|_| Default::default()).collect();
    let inputs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = SHAPES
        .iter()
        .map(|&(m, k, n)| (rand_vec(m * k, 3), rand_vec(k * n, 5), vec![0.0f32; m * n]))
        .collect();
    let mut inputs = inputs;

    // warm-up pass (untimed): page in the panels and resolve dispatch
    for pass in 0..=REPS {
        for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
            let (a, b, out) = &mut inputs[i];
            for (kernel, samples) in cells[i].iter_mut().enumerate() {
                set_fast_mode(kernel == 1);
                out.iter_mut().for_each(|x| *x = 0.0);
                let t = Instant::now();
                gemm_mat(Mat::row_major(a, k), Mat::row_major(b, n), out, m, k, n);
                let dt = t.elapsed().as_secs_f64();
                std::hint::black_box(&mut *out);
                if pass > 0 {
                    samples.push(dt);
                }
            }
        }
    }
    set_fast_mode(false);

    let rows: Vec<Row> = SHAPES
        .iter()
        .zip(&mut cells)
        .map(|(&(m, k, n), c)| {
            let gflop = matmul_flops(m, k, n) as f64 / 1e9;
            Row {
                shape: format!("{m}x{k}x{n}"),
                det_gflops: gflop / median(&mut c[0]),
                fast_gflops: gflop / median(&mut c[1]),
            }
        })
        .collect();

    if json {
        let shapes: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"shape\": \"{}\", \"det_gflops\": {:.2}, \
                     \"fast_gflops\": {:.2}, \"fast_speedup\": {:.3}}}",
                    r.shape,
                    r.det_gflops,
                    r.fast_gflops,
                    r.fast_gflops / r.det_gflops
                )
            })
            .collect();
        println!("{{\"fma\": {fma}, \"shapes\": [{}]}}", shapes.join(", "));
        return;
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                format!("{:.2}", r.det_gflops),
                format!("{:.2}", r.fast_gflops),
                format!("{:.2}x", r.fast_gflops / r.det_gflops),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fast numeric mode GEMM (serial core, median of {REPS} interleaved \
             passes, hardware FMA {})",
            if fma { "available" } else { "NOT available" }
        ),
        &["m x k x n", "det GFLOP/s", "fast GFLOP/s", "fast speedup"],
        &table,
    );
    println!(
        "\ndet = mul-then-add microkernel (bitwise-reproducible default); \
         fast = FMA microkernel (compute.fast), same packing and \
         blocking. Its ULP budget is derived in DESIGN.md §13 and \
         enforced by crates/tensor/tests/fast_props.rs."
    );
}
