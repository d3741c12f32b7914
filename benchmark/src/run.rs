//! One measured run of one workload: segments until `--seconds` have
//! passed, end-to-end metrics from the untraced segments, and — with
//! `--trace 1` — per-layer metrics from interleaved traced segments, the
//! world's gauges and the probes.

use crate::measure::{
    calibration_ms, chrome_trace_json, iqr_frac, median, peak_rss_mb, quantile, self_times,
    span_median_ms, stolen_cpu_seconds, HostSpan, Spans,
};
use crate::probes;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::tp_modes::MODE_NAMES;
use crate::workloads::{slowest_rank, Segment, Workload};
use colossalai_memory::offload::PlacementPolicy;
use colossalai_models::TransformerConfig;
use colossalai_parallel::memcalc::SeqMode;
use colossalai_parallel::throughput::{bert_step, offload_step, tp_best_throughput};
use colossalai_parallel::volume::TpMode;
use colossalai_topology::systems::{system_ii, system_iii, system_iv};
use colossalai_topology::Cluster;
use std::path::Path;
use std::time::Instant;

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of the spec table that was asked for.
    pub metrics: Vec<(&'static str, f64)>,
    /// Rank 0's host self time by span name over the traced segments, as a
    /// share of the traced step wall (empty without `--trace 1`).
    pub host_share: Vec<(&'static str, f64)>,
}

/// Host timings summed over segments.
#[derive(Default)]
struct Timings {
    setups: Vec<f64>,
    step_walls: Vec<f64>,
    /// Mean step wall of each segment.
    segment_means: Vec<f64>,
    /// Process CPU milliseconds per measured step of each segment.
    segment_cpu_ms: Vec<f64>,
}

/// The quantile of the per-segment samples a run reports. On a shared host
/// the noise is one-sided (a neighbour can only add time) and comes in
/// bursts of seconds, so a run's median moves with how many of its segments
/// a burst hit, while its first quartile stays close to what the program
/// does when left alone. A change to the program moves every quantile.
const REPORTED_QUANTILE: f64 = 0.25;

impl Timings {
    fn add(&mut self, seg: &Segment) {
        let walls = &seg.timing.step_walls;
        self.setups.push(seg.timing.setup_s);
        self.step_walls.extend(walls);
        self.segment_means
            .push(walls.iter().sum::<f64>() / walls.len() as f64);
        self.segment_cpu_ms
            .push(seg.timing.window.cpu_s * 1e3 / seg.measured_steps as f64);
    }

    /// Seconds per step: the first quartile over segments of a segment's
    /// mean step wall. Rank 0's single steps are multimodal by construction
    /// (more ranks than cores, so a step is short when rank 0 ran ahead and
    /// long when it waited), but their sum over a segment is how long the
    /// job took.
    fn step_seconds(&self) -> f64 {
        quantile(&self.segment_means, REPORTED_QUANTILE)
    }
}

/// Share of a segment's CPU capacity (wall x cores) the hypervisor may take
/// before the segment stops counting as a measurement of the program.
const STEAL_LIMIT: f64 = 0.02;
/// Undisturbed segments a run needs before it leaves the disturbed ones out.
const MIN_UNDISTURBED: usize = 3;

/// Totals over the segments of one kind (traced or not).
#[derive(Default)]
struct Totals {
    /// Every segment, and those the hypervisor left alone.
    all: Timings,
    undisturbed: Timings,
    attempted: u64,
    failed: u64,
    virtual_steps: Vec<f64>,
    last: Option<Segment>,
}

impl Totals {
    /// Runs one segment and books it. Checks count whatever happened to the
    /// host; timings of a segment during which the hypervisor took more than
    /// `STEAL_LIMIT` of the machine are kept apart.
    fn run(&mut self, w: &dyn Workload, spans: Option<&Spans>) {
        let (start, stolen_before) = (Instant::now(), stolen_cpu_seconds());
        let seg = w.segment(spans);
        let capacity = start.elapsed().as_secs_f64()
            * std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let stolen = (stolen_cpu_seconds() - stolen_before) / capacity;
        self.all.add(&seg);
        if stolen <= STEAL_LIMIT {
            self.undisturbed.add(&seg);
        }
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        self.virtual_steps.push(seg.virtual_step_s);
        self.last = Some(seg);
    }

    /// The timings to report: the undisturbed segments when there are enough
    /// of them, every segment otherwise.
    fn timings(&self) -> &Timings {
        if self.undisturbed.setups.len() >= MIN_UNDISTURBED {
            &self.undisturbed
        } else {
            &self.all
        }
    }

    /// Segments left out of the timings because the host was taken away.
    fn disturbed(&self) -> usize {
        self.all.setups.len() - self.timings().setups.len()
    }

    /// Every segment charged the same virtual time, bit for bit.
    fn virtual_repeats(&self) -> bool {
        self.virtual_steps
            .iter()
            .all(|v| v.to_bits() == self.virtual_steps[0].to_bits())
    }

    fn last(&self) -> &Segment {
        self.last.as_ref().expect("at least one segment ran")
    }
}

/// The paper-scale closed forms of `parallel::throughput`, as ratios, and
/// their mean relative error against the paper's 1.40 / 2.76 / 1.43. No
/// executed path touches them today; they are recorded so the rewrite that
/// replaces them has a before and an after.
fn throughput_ratios() -> Vec<(&'static str, f64)> {
    let four: Vec<usize> = (0..4).collect();
    let vit = TransformerConfig::vit_fig11_4gpu();
    fn best(mode: TpMode, cfg: &TransformerConfig, cluster: &Cluster, devices: &[usize]) -> f64 {
        tp_best_throughput(mode, cfg, cluster, devices).map_or(0.0, |e| e.throughput())
    }
    let fig11 = best(TpMode::TwoD, &vit, &system_ii(), &four)
        / best(TpMode::OneD, &vit, &system_ii(), &four);

    let large = TransformerConfig::vit_table3_large();
    let sixty_four: Vec<usize> = (0..64).collect();
    let advanced = [
        TpMode::TwoD,
        TpMode::TwoPointFiveD { depth: 4 },
        TpMode::ThreeD,
    ]
    .into_iter()
    .map(|m| best(m, &large, &system_iv(), &sixty_four))
    .fold(0.0, f64::max);
    let table3 = advanced / best(TpMode::OneD, &large, &system_iv(), &sixty_four);

    let bert = TransformerConfig::bert_base();
    let fig13 = bert_step(
        SeqMode::SequenceParallel,
        &bert,
        &system_iii(),
        &four,
        64,
        512,
    )
    .throughput()
        / bert_step(
            SeqMode::TensorParallel1d,
            &bert,
            &system_iii(),
            &four,
            64,
            512,
        )
        .throughput();

    let gpt = TransformerConfig::gpt2_10b();
    let fig14 = offload_step(PlacementPolicy::Adaptive, &gpt, &system_ii(), &four, 4).throughput()
        / offload_step(PlacementPolicy::StaticCpu, &gpt, &system_ii(), &four, 4).throughput();

    let err = [(fig11, 1.40), (table3, 2.76), (fig13, 1.43)]
        .iter()
        .map(|(got, paper)| ((got - paper) / paper).abs())
        .sum::<f64>()
        / 3.0;
    vec![
        ("parallel.throughput.fig11_sysII_2d_over_1d", fig11),
        ("parallel.throughput.table3_best_over_1d", table3),
        ("parallel.throughput.fig13_sp_over_tp", fig13),
        ("parallel.throughput.fig14_adaptive_over_static", fig14),
        ("parallel.throughput.paper_ratio_err", err),
    ]
}

fn end_to_end(plain: &Totals) -> Vec<(&'static str, f64)> {
    let t = plain.timings();
    vec![
        ("steps_per_s", 1.0 / t.step_seconds()),
        (
            "cpu_ms_per_step",
            quantile(&t.segment_cpu_ms, REPORTED_QUANTILE),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", quantile(&t.setups, REPORTED_QUANTILE)),
    ]
}

fn per_layer(
    w: &dyn Workload,
    seed: u64,
    plain: &Totals,
    traced: &Totals,
    spans: &[HostSpan],
    calib: (f64, f64),
) -> Vec<(&'static str, f64)> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let (plain_t, traced_t) = (plain.timings(), traced.timings());
    let walls_ms: Vec<f64> = plain_t.step_walls.iter().map(|s| s * 1e3).collect();
    let p50 = median(&walls_ms);
    m.push(("driver.samples", walls_ms.len() as f64));
    m.push(("driver.step_ms_p50", p50));
    m.push(("driver.step_ms_p90", quantile(&walls_ms, 0.9)));
    m.push(("driver.iqr_frac", iqr_frac(&walls_ms)));
    m.push(("driver.calib_ms", 0.5 * (calib.0 + calib.1)));
    m.push((
        "driver.calib_drift_pct",
        (calib.1 - calib.0) / calib.0 * 100.0,
    ));
    m.push((
        "driver.trace_overhead_pct",
        (traced_t.step_seconds() / plain_t.step_seconds() - 1.0) * 100.0,
    ));
    m.push((
        "driver.segments",
        (plain.all.setups.len() + traced.all.setups.len()) as f64,
    ));
    m.push((
        "driver.disturbed_segments",
        (plain.disturbed() + traced.disturbed()) as f64,
    ));

    // virtual clock: the traced world's rollup, per step on the rank that
    // bounds the step
    let seg = traced.last();
    let steps = seg.counted_steps as f64;
    m.push(("virtual.step_ms", plain.last().virtual_step_s * 1e3));
    m.push((
        "virtual.traced_equals_untraced",
        f64::from(
            plain.virtual_repeats()
                && traced.virtual_repeats()
                && seg.virtual_step_s.to_bits() == plain.last().virtual_step_s.to_bits(),
        ),
    ));
    let rollup = seg.world.trace_rollup();
    let slow = slowest_rank(&rollup).copied().unwrap_or_default();
    for (name, seconds) in [
        ("virtual.compute_ms", slow.compute),
        ("virtual.comm_ms", slow.comm),
        ("virtual.overlap_ms", slow.comm_overlap),
        ("virtual.mem_ms", slow.mem),
        ("virtual.idle_ms", slow.idle),
    ] {
        m.push((name, seconds * 1e3 / steps));
    }
    m.push((
        "comm.trace.spans_per_step",
        seg.world.trace().len() as f64 / steps,
    ));

    // the world's counters (identical in traced and untraced segments)
    let stats = seg.world.stats();
    m.push(("comm.group.ops_per_step", stats.ops as f64 / steps));
    m.push((
        "comm.group.mb_per_step",
        stats.bytes as f64 / (1u64 << 20) as f64 / steps,
    ));
    let plain_world = &plain.last().world;
    m.push((
        "comm.world.rank_step_us",
        plain_t.step_seconds() * 1e6 / w.ranks() as f64,
    ));
    m.push((
        "comm.world.wakeups_per_msg",
        plain_world.wake_stats().wakeups_per_msg(),
    ));
    m.push((
        "comm.world.peak_threads",
        plain_world.thread_stats().peak_live as f64,
    ));

    // process-wide pool and intra-op gauges over the last untraced window
    let window = &plain.last().timing.window;
    let window_steps = plain.last().measured_steps as f64;
    let mb = (1u64 << 20) as f64;
    m.push(("tensor.pool.hit_rate", window.pool.hit_rate()));
    m.push((
        "tensor.pool.misses_per_step",
        window.pool.misses as f64 / window_steps,
    ));
    m.push((
        "tensor.pool.recycled_mb_per_step",
        window.pool.recycled_bytes as f64 / mb / window_steps,
    ));
    m.push((
        "tensor.pool.pooled_hw_mb",
        window.pool.pooled_high_water as f64 / mb,
    ));
    m.push((
        "tensor.par.jobs_per_step",
        window.par.jobs as f64 / window_steps,
    ));
    m.push(("tensor.par.util", window.par.util()));
    m.push((
        "tensor.par.contended_per_step",
        (window.par.contended_fallbacks + window.par.contended_waits) as f64 / window_steps,
    ));

    // rank 0's host spans around each layer call (0 where a workload never
    // enters the layer)
    for (name, span) in [
        ("core.engine.forward_ms", "core.engine.forward"),
        ("core.engine.backward_ms", "core.engine.backward"),
        ("core.engine.step_ms", "core.engine.step"),
        ("parallel.zero.materialize_ms", "parallel.zero.materialize"),
        ("parallel.zero.step_ms", "parallel.zero.step"),
        ("parallel.tp1d.host_ms", MODE_NAMES[0]),
        ("parallel.tp2d.host_ms", MODE_NAMES[1]),
        ("parallel.tp25d.host_ms", MODE_NAMES[2]),
        ("parallel.tp3d.host_ms", MODE_NAMES[3]),
    ] {
        m.push((name, span_median_ms(spans, span)));
    }

    m.extend(seg.exact.iter().copied());
    m.extend(throughput_ratios());
    m.extend(probes::run(w, seed));
    m
}

/// Orders `found` like the spec table and fills what a workload does not
/// produce with 0 (its layer does not run there).
fn in_spec_order(
    names: &[&'static str],
    found: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    for (name, _) in found {
        assert!(names.contains(name), "metric {name} is not in the spec");
    }
    names
        .iter()
        .map(|&name| {
            let value = found.iter().find(|(n, _)| *n == name).map_or(0.0, |f| f.1);
            (name, value)
        })
        .collect()
}

/// Runs `w` for about `seconds`. With `trace`, half the segments are traced
/// and the result holds the per-layer metrics; without, the end-to-end ones.
pub fn run(
    w: &dyn Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> RunOutput {
    let calib_before = calibration_ms();
    let recorder = Spans::default();
    let (mut plain, mut traced) = (Totals::default(), Totals::default());
    let mut spans: Vec<HostSpan> = Vec::new();
    let start = Instant::now();
    // interleave traced and untraced segments so host drift lands on both
    while plain.last.is_none() || start.elapsed().as_secs_f64() < seconds {
        plain.run(w, None);
        if trace {
            traced.run(w, Some(&recorder));
            spans.extend(recorder.take());
        }
    }

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let mut correct = failed == 0 && plain.virtual_repeats();
    let mut host_share = Vec::new();
    let metrics = if trace {
        let found = per_layer(
            w,
            seed,
            &plain,
            &traced,
            &spans,
            (calib_before, calibration_ms()),
        );
        correct &= found
            .iter()
            .any(|&(n, v)| n == "virtual.traced_equals_untraced" && v == 1.0);
        let step_total: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        host_share = self_times(&spans)
            .into_iter()
            .map(|(name, t)| (name, t / step_total))
            .collect();
        if let Some(dir) = trace_out {
            write_traces(dir, w.name(), &spans, traced.last());
        }
        let names: Vec<&'static str> = PER_LAYER.iter().map(|p| p.name).collect();
        in_spec_order(&names, &found)
    } else {
        let names: Vec<&'static str> = END_TO_END.iter().map(|e| e.name).collect();
        in_spec_order(&names, &end_to_end(&plain))
    };
    RunOutput {
        correct,
        attempted,
        failed,
        metrics,
        host_share,
    }
}

/// Chrome-trace files of the run: rank 0's host spans over all traced
/// segments, and the last traced world's virtual-time trace.
fn write_traces(dir: &Path, workload: &str, spans: &[HostSpan], last: &Segment) {
    std::fs::create_dir_all(dir).expect("create the --trace-out directory");
    for (suffix, json) in [
        ("host", chrome_trace_json(spans)),
        ("virtual", last.world.trace_json()),
    ] {
        let path = dir.join(format!("{workload}.{suffix}.json"));
        std::fs::write(&path, json).expect("write a trace file");
        eprintln!("wrote {}", path.display());
    }
}
