//! The repo's benchmark: four training workloads, host and virtual clocks
//! end to end, per-layer probes and a traced run. See `README.md` beside
//! this crate for the metric glossary and the baseline.
//!
//! ```text
//! colossalai-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      [--smoke] [--trace-out <dir>]
//! colossalai-benchmark all [--seed <n>] [--seconds <s>] [--reps <r>] [--smoke] [--trace-out <dir>]
//! colossalai-benchmark compare <a.json> <b.json>
//! colossalai-benchmark spec        # prints BENCHMARK.json from the tables in `spec.rs`
//! ```
//!
//! The first form is what the driver runs: one workload, one process, and as
//! the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod measure;
mod probes;
mod report;
mod run;
mod spec;
mod workloads;

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options shared by the single-workload and `all` forms.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reps: usize,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        reps: 1,
        smoke: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str| format!("{flag}: expected {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| bad("a number of seconds"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--reps" => {
                o.reps = value()?.parse().map_err(|_| bad("a count"))?;
                if !(1..=50).contains(&o.reps) {
                    return Err(bad("a count from 1 to 50"));
                }
            }
            "--smoke" => o.smoke = true,
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Removes every `COLOSSAL_*` variable from this process before the library
/// reads any (its knobs resolve once, on first use): the benchmark measures
/// the default path. Returns what was removed.
fn scrub_knobs() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("COLOSSAL_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

fn strings(items: &[String]) -> Value {
    Value::Seq(items.iter().cloned().map(Value::Str).collect())
}

/// The driver's form: run one workload and print its result line.
fn run_one(o: &Options) -> Result<ExitCode, String> {
    let scrubbed = scrub_knobs();
    if !scrubbed.is_empty() {
        eprintln!("ignoring ambient knobs: {}", scrubbed.join(", "));
    }
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::build(name, o.seed, o.smoke).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let out = run::run(
        w.as_ref(),
        o.seed,
        o.seconds,
        o.trace,
        o.trace_out.as_deref(),
    );

    let units = |name: &str| {
        spec::END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(spec::PER_LAYER.iter().map(|p| (p.name, p.unit)))
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| unit)
            .expect("every emitted metric is in the spec")
    };
    let metrics = out
        .metrics
        .iter()
        .map(|&(name, value)| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(units(name).into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    // what `all` records beside the metrics; the driver reads only the last line
    let info = Value::Map(vec![
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "fma".into(),
            Value::Bool(colossalai_tensor::fma_available()),
        ),
        ("scrubbed_env".into(), strings(&scrubbed)),
        (
            "segment_steps".into(),
            Value::UInt(w.segment_steps() as u64),
        ),
        (
            "host_share".into(),
            Value::Map(
                out.host_share
                    .iter()
                    .map(|&(n, share)| (n.to_string(), Value::Float(share)))
                    .collect(),
            ),
        ),
    ]);
    println!("info: {}", serde_json::to_string(&info).expect("finite"));
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(out.correct)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    let text = serde_json::to_string(&line).map_err(|e| format!("non-finite metric: {e}"))?;
    println!("{text}");
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => parse_options(&args[1..]).and_then(|o| report::all(&o)),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("spec") => {
            println!("{}", report::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_options(&args).and_then(|o| run_one(&o)),
    };
    result.unwrap_or_else(|message| {
        eprintln!("colossalai-benchmark: {message}");
        ExitCode::from(2)
    })
}
