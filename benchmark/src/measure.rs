//! Clocks, gauges and statistics the workloads and probes share. Everything
//! here looks at the process from outside (`/proc`, `Instant`); nothing
//! reaches into the library.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (rank `(len + 1) * p`, interpolated between the neighbouring order
/// statistics): the spread the driver holds against a metric's bound,
/// computed the way the driver computes it.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let v = sorted(values);
    let quartile = |p: f64| {
        let rank = (v.len() + 1) as f64 * p;
        // at the ends Python keeps the last pair and extrapolates
        let below = (rank.floor() as usize).clamp(1, v.len() - 1);
        v[below - 1] + (v[below] - v[below - 1]) * (rank - below as f64)
    };
    (quartile(0.75) - quartile(0.25)) / m.abs()
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, living and
/// joined, from the process CPU-time clock. (`/proc/self/stat` holds the
/// same total in 10 ms ticks, too coarse for a segment's window.)
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the hypervisor has taken from this machine since boot (the
/// `steal` field of the `cpu` line of `/proc/stat`, all CPUs, 10 ms ticks).
pub fn stolen_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal: f64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0);
    steal / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Milliseconds a fixed integer loop takes (median of five): a reference
/// that depends on the host's speed at this moment and on nothing in the
/// repo. Timed before and after a run, it tells host drift apart from a
/// change in the program.
pub fn calibration_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..4_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Seconds per call of `f`, as the median over batches: calls `f` in batches
/// of a size that lasts about a millisecond, for about `budget_s` seconds.
pub fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and the storage pool
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / once) as usize).clamp(1, 1 << 20);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples)
}

/// The benchmark's input generator (splitmix64). The library never sees the
/// seed, only the tensors and token ids drawn here.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the bias of the modulo is below 2^-40 for the
    /// vocabulary sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    pub fn units(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.unit()).collect()
    }
}

/// One host-time span around a call into a library layer.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Training step the call belongs to (segment-local).
    pub step: usize,
}

/// In-memory span recorder for the traced run. Only rank 0 records, so the
/// mutex is never contended; it exists because the rank closure is shared by
/// every rank thread.
pub struct Spans {
    origin: Instant,
    inner: Mutex<SpanState>,
}

#[derive(Default)]
struct SpanState {
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            inner: Mutex::new(SpanState::default()),
        }
    }
}

impl Spans {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, step: usize, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut st = self.inner.lock().expect("span recorder lock");
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let start = self.now();
            st.spans.push(HostSpan {
                name,
                start,
                end: start,
                parent,
                step,
            });
            st.open.push(id);
            id
        };
        let r = f();
        let mut st = self.inner.lock().expect("span recorder lock");
        st.spans[id].end = self.now();
        st.open.pop();
        r
    }

    pub fn take(&self) -> Vec<HostSpan> {
        std::mem::take(&mut self.inner.lock().expect("span recorder lock").spans)
    }
}

/// Runs `f` under a span when `spans` is there, bare otherwise: the untraced
/// run pays one branch per call and records nothing.
pub fn spanned<R>(
    spans: Option<&Spans>,
    name: &'static str,
    step: usize,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => s.span(name, step, f),
        None => f(),
    }
}

/// Self time per span name: each span's duration minus what its direct
/// children cover, summed by name, in seconds.
pub fn self_times(spans: &[HostSpan]) -> Vec<(&'static str, f64)> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += t,
            None => by_name.push((s.name, t)),
        }
    }
    by_name
}

/// Median duration in milliseconds of the spans called `name` (0 when the
/// workload never enters that layer).
pub fn span_median_ms(spans: &[HostSpan], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) * 1e3)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the host spans.
pub fn chrome_trace_json(spans: &[HostSpan]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{}}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.step
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_linear_interpolation() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert!((iqr_frac(&[8.0, 1.0, 4.0, 2.0]) - 5.75 / 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_frac(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Spans::default();
        rec.span("outer", 0, || {
            rec.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let spans = rec.take();
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        let outer = own.iter().find(|(n, _)| *n == "outer").unwrap().1;
        let inner = own.iter().find(|(n, _)| *n == "inner").unwrap().1;
        assert!(
            inner >= 0.005 && outer < inner,
            "outer {outer} inner {inner}"
        );
    }

    #[test]
    fn proc_gauges_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
