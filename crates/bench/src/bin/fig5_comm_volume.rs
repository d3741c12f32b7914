//! E1 — Table 1 / Fig 5: communication volume of tensor-parallel modes for
//! `Y = W X` (h = 1024, s = 512, b = 32) as the device count scales.

use colossalai_bench::{fmt_elements, print_table};
use colossalai_parallel::volume::{fig5_series, MatmulShape, TpMode};

fn main() {
    let shape = MatmulShape {
        b: 32,
        s: 512,
        h: 1024,
        n: 1024,
    };
    println!(
        "Fig 5 shape: X = (b={}, s={}, h={}), S_X = {}, S_W = {}",
        shape.b,
        shape.s,
        shape.h,
        fmt_elements(shape.s_x()),
        fmt_elements(shape.s_w())
    );

    // Table 1's closed forms at representative counts
    let counts = [4usize, 8, 16, 32, 64, 128, 256, 512];
    let series = fig5_series(&counts);
    let mut rows = Vec::new();
    for (p, entries) in &series {
        let cell = |label: &str| -> String {
            entries
                .iter()
                .find(|(l, _)| l == label)
                .map_or("-".to_string(), |(_, v)| fmt_elements(*v))
        };
        rows.push(vec![
            p.to_string(),
            cell("1D"),
            cell("2D"),
            cell("2.5D (d=2)"),
            cell("3D"),
        ]);
    }
    print_table(
        "Fig 5: total communication volume (elements) per Y = WX",
        &["#GPUs", "1D", "2D", "2.5D (d=2)", "3D"],
        &rows,
    );

    // crossover commentary like the paper's Section 3.1
    let v1_64 = TpMode::OneD.volume(shape, 64);
    let v2_64 = TpMode::TwoD.volume(shape, 64);
    let v3_64 = TpMode::ThreeD.volume(shape, 64);
    println!(
        "\nAt 64 GPUs: 2D moves {:.1}% and 3D {:.1}% of 1D's volume — the \
         advanced modes' advantage that drives Table 3.",
        100.0 * v2_64 as f64 / v1_64 as f64,
        100.0 * v3_64 as f64 / v1_64 as f64
    );
}
