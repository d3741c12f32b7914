//! `all`: every workload in child processes of this binary, gathered into
//! one JSON report. `compare`: two such reports against the bounds.

use crate::measure::{iqr_frac, median};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Options;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// One child run: its result line and its `info:` line, parsed.
struct Child {
    result: Value,
    info: Value,
}

fn run_child(o: &Options, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let (Some(dir), true) = (&o.trace_out, trace) {
        cmd.arg("--trace-out").arg(dir);
    }
    // the child measures the default path whatever this shell exports
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("COLOSSAL_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or_else(|| format!("{workload} child printed no result"))
            .and_then(|l| serde_json::parse(l).map_err(|e| format!("{workload} child: {e}")))
    };
    let result = parse(lines.next())?;
    let info = parse(lines.next().and_then(|l| l.strip_prefix("info: ")))?;
    if !out.status.success() && result.get("correct") != Some(&Value::Bool(false)) {
        return Err(format!("{workload} child failed: {}", out.status));
    }
    Ok(Child { result, info })
}

/// `name -> values over the repetitions`, kept in spec order.
type Series = Vec<(&'static str, Vec<f64>)>;

fn collect(series: &mut Series, child: &Value, names: &[&'static str]) -> Result<(), String> {
    let metrics = child.get("metrics").ok_or("result without metrics")?;
    for &name in names {
        let value = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(number)
            .ok_or_else(|| format!("result without metric {name}"))?;
        match series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => series.push((name, vec![value])),
        }
    }
    Ok(())
}

fn floats(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::Float(v)).collect())
}

fn entry(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Runs every workload `reps` times (seeds `seed..seed+reps`), once untraced
/// for the end-to-end metrics and once traced for the per-layer ones, and
/// prints one JSON object. Exits non-zero when any operation failed.
pub fn all(o: &Options) -> Result<ExitCode, String> {
    let e2e_names: Vec<&'static str> = END_TO_END.iter().map(|e| e.name).collect();
    let layer_names: Vec<&'static str> = PER_LAYER.iter().map(|p| p.name).collect();
    let mut workloads = Vec::new();
    let mut host = None;
    let mut any_failed = false;
    for w in &WORKLOADS {
        let (mut e2e, mut layers): (Series, Series) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut info = Value::Null;
        for rep in 0..o.reps {
            let seed = o.seed + rep as u64;
            for trace in [false, true] {
                eprintln!("{}: seed {seed}, trace {}", w.name, u8::from(trace));
                let child = run_child(o, w.name, seed, trace)?;
                let count = |key| child.result.get(key).and_then(number).unwrap_or(0.0) as u64;
                attempted += count("attempted");
                failed += count("failed");
                any_failed |= child.result.get("correct") != Some(&Value::Bool(true));
                if trace {
                    collect(&mut layers, &child.result, &layer_names)?;
                    info = child.info;
                } else {
                    collect(&mut e2e, &child.result, &e2e_names)?;
                }
            }
        }
        let end_to_end = e2e
            .iter()
            .zip(&END_TO_END)
            .map(|((name, values), def)| {
                let e = entry(vec![
                    ("unit", Value::Str(def.unit.into())),
                    ("better", Value::Str(def.better.as_str().into())),
                    ("bound", Value::Float(def.bound)),
                    ("median", Value::Float(median(values))),
                    ("iqr_frac", Value::Float(iqr_frac(values))),
                    ("values", floats(values)),
                ]);
                (name.to_string(), e)
            })
            .collect();
        let per_layer = layers
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, values), def)| {
                let e = entry(vec![
                    ("unit", Value::Str(def.unit.into())),
                    ("better", Value::Str(def.better.as_str().into())),
                    ("exact", Value::Bool(def.exact)),
                    ("median", Value::Float(median(values))),
                    ("values", floats(values)),
                ]);
                (name.to_string(), e)
            })
            .collect();
        let pick = |key: &str| info.get(key).cloned().unwrap_or(Value::Null);
        host.get_or_insert_with(|| {
            entry(vec![
                ("nproc", pick("nproc")),
                ("fma", pick("fma")),
                ("scrubbed_env", pick("scrubbed_env")),
                ("seed", Value::UInt(o.seed)),
                ("reps", Value::UInt(o.reps as u64)),
                ("seconds", Value::Float(o.seconds)),
                ("smoke", Value::Bool(o.smoke)),
            ])
        });
        workloads.push((
            w.name.to_string(),
            entry(vec![
                ("why", Value::Str(w.why.into())),
                ("segment_steps", pick("segment_steps")),
                ("ops_attempted", Value::UInt(attempted)),
                ("ops_failed", Value::UInt(failed)),
                ("end_to_end", Value::Map(end_to_end)),
                ("per_layer", Value::Map(per_layer)),
                ("host_share", pick("host_share")),
            ]),
        ));
    }
    let report = entry(vec![
        ("host", host.unwrap_or(Value::Null)),
        ("workloads", Value::Map(workloads)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Seconds one driver run measures for: long enough that the slowest
/// workload completes about ten segments.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json` as the tables in `spec` define it. The file at the repo
/// root is this function's output; `tests/smoke.rs` holds them together.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Value>| Value::Seq(items);
    let text = |s: &str| Value::Str(s.into());
    let workloads = WORKLOADS
        .iter()
        .map(|w| entry(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            entry(vec![
                ("name", text(e.name)),
                ("unit", text(e.unit)),
                ("better", text(e.better.as_str())),
                ("bound", Value::Float(e.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|p| {
            entry(vec![
                ("name", text(p.name)),
                ("unit", text(p.unit)),
                ("better", text(p.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let spec = entry(vec![
        ("command", list(command.into_iter().map(text).collect())),
        ("paths", list(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        ("workloads", list(workloads)),
        ("end_to_end", list(end_to_end)),
        ("per_layer", list(per_layer)),
    ]);
    serde_json::to_string(&spec).expect("the spec holds finite numbers")
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::parse(last).map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict on one end-to-end metric: `b` against `a`, given the larger
/// of the two sets' spreads and the metric's bound.
fn verdict(a: f64, b: f64, spread: f64, bound: f64, better: Better) -> &'static str {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > spread.max(bound) {
        "better"
    } else {
        "same"
    }
}

/// Prints one row per workload and end-to-end metric, then one row per
/// exact per-layer metric that differs. Exits non-zero on `worse` or on an
/// exact metric that changed.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut bad = false;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for w in &WORKLOADS {
        let section = |r: &Value, part: &str, metric: &str| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|ws| ws.get(part))
                .and_then(|p| p.get(metric))
                .cloned()
                .ok_or_else(|| format!("{}: no {part} metric {metric}", w.name))
        };
        let field = |m: &Value, key: &str| {
            m.get(key)
                .and_then(number)
                .ok_or_else(|| format!("{}: metric without {key}", w.name))
        };
        for def in &END_TO_END {
            let (ma, mb) = (
                section(&ra, "end_to_end", def.name)?,
                section(&rb, "end_to_end", def.name)?,
            );
            let (va, vb) = (field(&ma, "median")?, field(&mb, "median")?);
            let spread = field(&ma, "iqr_frac")?.max(field(&mb, "iqr_frac")?);
            let v = verdict(va, vb, spread, def.bound, def.better);
            bad |= v == "worse";
            println!(
                "{:<12} {:<16} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>5.0}%  {v}",
                w.name,
                def.name,
                va,
                vb,
                (vb - va) / va * 100.0,
                spread * 100.0,
                def.bound * 100.0
            );
        }
        let mut exact_same = 0;
        for def in PER_LAYER.iter().filter(|p| p.exact) {
            let values =
                |r: &Value| section(r, "per_layer", def.name).map(|m| m.get("values").cloned());
            let (xa, xb) = (values(&ra)?, values(&rb)?);
            // every repetition in both sets must read the same bits; JSON
            // round-trips an f64 exactly
            let all: Vec<f64> = [xa, xb]
                .into_iter()
                .flatten()
                .flat_map(|v| match v {
                    Value::Seq(items) => items.iter().filter_map(number).collect(),
                    _ => Vec::new(),
                })
                .collect();
            if all.iter().all(|v| v.to_bits() == all[0].to_bits()) {
                exact_same += 1;
            } else {
                bad = true;
                println!("{:<12} {:<46} differs: {all:?}", w.name, def.name);
            }
        }
        println!(
            "{:<12} exact per-layer metrics identical: {exact_same} of {}",
            w.name,
            PER_LAYER.iter().filter(|p| p.exact).count()
        );
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(100.0, 104.0, 0.02, 0.10, Lower), "same");
        assert_eq!(verdict(100.0, 115.0, 0.02, 0.10, Lower), "worse");
        assert_eq!(verdict(100.0, 85.0, 0.02, 0.10, Higher), "worse");
        assert_eq!(verdict(100.0, 80.0, 0.02, 0.10, Lower), "better");
        assert_eq!(verdict(100.0, 104.0, 0.15, 0.10, Lower), "unresolved");
    }
}
