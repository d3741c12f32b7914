//! Runs the shipped binary end to end at `--smoke` size and holds its output
//! to the contract in `BENCHMARK.json`.

use serde_json::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_colossalai-benchmark");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn map(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        other => panic!("expected a number, found {other:?}"),
    }
}

/// Median of a per-layer metric in one workload's section of the report.
fn layer_median(workload: &Value, metric: &str) -> f64 {
    let m = workload.get("per_layer").and_then(|p| p.get(metric));
    number(m.and_then(|m| m.get("median")).expect(metric))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn all_smoke_meets_the_contract() {
    let text = stdout_of(&["all", "--smoke", "--seconds", "0.3", "--seed", "11"]);
    let report = serde_json::parse(text.lines().last().expect("a report line")).expect("JSON");
    let workloads = map(report.get("workloads").expect("workloads"));
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["dp_gemm", "zero3_comm", "tp_modes", "hybrid_4096"]);

    for (name, w) in workloads {
        assert!(number(w.get("ops_attempted").unwrap()) >= 1.0, "{name}");
        assert_eq!(number(w.get("ops_failed").unwrap()), 0.0, "{name}");

        let e2e = map(w.get("end_to_end").unwrap());
        let e2e_names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            e2e_names,
            ["steps_per_s", "cpu_ms_per_step", "peak_rss_mb", "setup_s"],
            "{name}"
        );
        assert!(e2e.len() <= 16);
        for (metric, m) in e2e {
            assert!(valid_name(metric), "{metric}");
            let median = number(m.get("median").unwrap());
            assert!(median > 0.0, "{name}.{metric} = {median}");
            let bound = number(m.get("bound").unwrap());
            assert!(bound > 0.0 && bound <= 0.25, "{metric} bound {bound}");
        }

        let layers = map(w.get("per_layer").unwrap());
        assert!(layers.len() <= 128);
        for (metric, m) in layers {
            assert!(valid_name(metric), "{metric}");
            assert!(number(m.get("median").unwrap()).is_finite(), "{metric}");
        }
        let layer = |metric: &str| layer_median(w, metric);
        assert_eq!(
            layer("virtual.traced_equals_untraced"),
            1.0,
            "{name}: tracing changed the virtual clock"
        );
        assert!(layer("virtual.step_ms") > 0.0, "{name}");
        assert!(layer("comm.group.ops_per_step") > 0.0, "{name}");
    }

    // the separation the workloads exist for, visible even at smoke size
    let layer = |w: &str, metric: &str| {
        layer_median(&workloads.iter().find(|(n, _)| n == w).unwrap().1, metric)
    };
    assert_eq!(layer("hybrid_4096", "tensor.kernel.flops_per_step"), 0.0);
    assert!(layer("dp_gemm", "tensor.kernel.flops_per_step") > 0.0);
    assert!(layer("dp_gemm", "core.engine.backward_ms") > 0.0);
    assert_eq!(layer("zero3_comm", "core.engine.backward_ms"), 0.0);
    assert!(layer("zero3_comm", "parallel.zero.step_ms") > 0.0);
    assert!(layer("tp_modes", "parallel.tp3d.virtual_ms") > 0.0);
    assert!(layer("tp_modes", "comm.world.peak_threads") >= 8.0);
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let generated = serde_json::parse(stdout_of(&["spec"]).trim()).expect("JSON");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(on_disk.len() <= 64 << 10, "BENCHMARK.json over 64 KiB");
    assert_eq!(
        serde_json::parse(&on_disk).expect("JSON"),
        generated,
        "regenerate BENCHMARK.json with `colossalai-benchmark spec`"
    );

    let keys: Vec<&str> = map(&generated).iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut seen = std::collections::BTreeSet::new();
    for part in ["workloads", "end_to_end", "per_layer"] {
        let Some(Value::Seq(items)) = generated.get(part) else {
            panic!("{part} is not a list");
        };
        for item in items {
            let Some(Value::Str(name)) = item.get("name") else {
                panic!("{part} entry without a name");
            };
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
            if let Some(Value::Str(unit)) = item.get("unit") {
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit {unit}"
                );
            }
            if let Some(Value::Str(why)) = item.get("why") {
                assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            }
        }
    }
    assert!(seen.contains("setup_s"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seconds", "1"][..],
        &["--seconds", "1"],
        &["--workload", "dp_gemm", "--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("run the binary");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
