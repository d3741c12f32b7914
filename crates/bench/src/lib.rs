//! # colossalai-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation section. Each `src/bin/*` binary prints the rows/series of
//! one artifact (see DESIGN.md's per-experiment index); the `benches/`
//! directory holds `harness = false` micro-benchmarks of the underlying kernels,
//! timed with [`bench_fn`].

/// Prints a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Median seconds over `runs` timed executions of `f`.
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[runs / 2]
}

/// Times `f` for the `benches/` mains: one warm-up call sizes a batch of
/// about 10 ms, then the median of 10 batches is printed per call.
pub fn bench_fn(label: &str, mut f: impl FnMut()) {
    let warm = std::time::Instant::now();
    f();
    let once = warm.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.01 / once) as usize).clamp(1, 10_000);
    let per_call = median_secs(10, || (0..iters).for_each(|_| f())) / iters as f64;
    println!(
        "{label:<56} {:>12.3} us/iter  (median of 10 x {iters})",
        per_call * 1e6
    );
}

/// Formats bytes as a human-readable size.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Formats bytes/second as GB/s (decimal, like NCCL reports).
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    format!("{:.1} GB/s", bytes_per_sec / 1e9)
}

/// Parses `--trace <path>` from the process arguments; `Some(path)` asks a
/// bench binary to enable world tracing and export Chrome-trace JSON.
pub fn trace_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            let path = args
                .next()
                .expect("--trace requires an output path (e.g. --trace trace.json)");
            return Some(path);
        }
    }
    None
}

/// Writes the world's recorded trace as Chrome-trace JSON to `path`.
pub fn write_trace(world: &colossalai_comm::World, path: &str) {
    std::fs::write(path, world.trace_json())
        .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
    eprintln!(
        "wrote Chrome trace ({} spans) to {path}",
        world.trace().len()
    );
}

/// Formats element counts compactly (K/M/G).
pub fn fmt_elements(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512.00 B");
        assert_eq!(fmt_bytes(1 << 20), "1.00 MiB");
        assert_eq!(fmt_bytes(80 * (1 << 30)), "80.00 GiB");
    }

    #[test]
    fn element_formatting() {
        assert_eq!(fmt_elements(999), "999");
        assert_eq!(fmt_elements(1_500), "1.50K");
        assert_eq!(fmt_elements(2_000_000), "2.00M");
        assert_eq!(fmt_elements(3_000_000_000), "3.00G");
    }

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(fmt_bandwidth(184.0e9), "184.0 GB/s");
    }
}
