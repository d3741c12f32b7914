//! World-level virtual-clock event tracer.
//!
//! Every device records typed [`Span`]s against its virtual clock:
//! compute segments, collectives, point-to-point transfers, memory-tier
//! movement and high-level engine phases. The tracer lives in the
//! [`crate::World`] so one timeline sees every layer — collectives in this
//! crate, pipeline schedules in `colossalai-parallel`, engine phases in
//! `colossalai-core`, offload movement in `colossalai-memory`.
//!
//! Tracing is off by default and costs one relaxed atomic load per
//! potential span when disabled. When enabled, spans are appended to
//! per-track *lanes* (a `BTreeMap<Track, Vec<Span>>`): within a lane the
//! recording order is deterministic (a device track is written only by its
//! own rank in program order; a group track is serialized by the rendezvous
//! slot), and [`Tracer::snapshot`] concatenates lanes in canonical
//! [`Track`] order. Snapshots are therefore bitwise identical across rank
//! forms and executor pool sizes, even though the interleaving of host
//! threads differs — the parity tests compare them against a frozen
//! fingerprint.
//!
//! [`chrome_trace_json`] exports the Chrome/Perfetto `trace_events`
//! format: one track (`tid`) per simulated device under the `devices`
//! process, plus one track per collective group under the `groups`
//! process. Load the file at `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::stats::OpKind;
use colossalai_topology::DeviceId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// What a span represents.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// A device-local compute segment (kernel time, optimizer math, ...).
    Compute {
        /// Human-readable label (e.g. `F3` for the forward of micro-batch 3).
        label: String,
    },
    /// One collective operation as observed by one rank: from its arrival
    /// at the rendezvous to the group-wide completion time.
    Collective {
        kind: OpKind,
        /// Wire bytes the modeled algorithm moves (elements x wire width).
        bytes: u64,
        /// Group members in rank order.
        group: Vec<DeviceId>,
    },
    /// A point-to-point transfer endpoint (send charges the wire, recv
    /// spans the wait until the message's virtual arrival).
    P2p {
        peer: DeviceId,
        tag: u64,
        bytes: u64,
        is_send: bool,
    },
    /// Data movement between memory tiers (chunk migration, offload DMA).
    MemMove {
        bytes: u64,
        from: &'static str,
        to: &'static str,
    },
    /// A high-level phase (forward / backward / optimizer). Phases nest
    /// *over* leaf spans; the non-overlap invariant applies to leaves only.
    Phase { name: String },
}

impl SpanKind {
    /// True for [`SpanKind::Phase`] spans (which may enclose leaf spans).
    pub fn is_phase(&self) -> bool {
        matches!(self, SpanKind::Phase { .. })
    }

    /// Display name used as the Chrome-trace event name.
    pub fn name(&self) -> String {
        match self {
            SpanKind::Compute { label } => label.clone(),
            SpanKind::Collective { kind, .. } => kind.name().to_string(),
            SpanKind::P2p {
                peer,
                is_send: true,
                ..
            } => format!("send->{peer}"),
            SpanKind::P2p { peer, .. } => format!("recv<-{peer}"),
            SpanKind::MemMove { from, to, .. } => format!("{from}->{to}"),
            SpanKind::Phase { name } => name.clone(),
        }
    }

    /// Chrome-trace category (`cat` field); also drives the rollup buckets.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Compute { .. } => "compute",
            SpanKind::Collective { .. } => "collective",
            SpanKind::P2p { .. } => "p2p",
            SpanKind::MemMove { .. } => "memmove",
            SpanKind::Phase { .. } => "phase",
        }
    }
}

/// Which timeline a span renders on. The derived order (devices by rank,
/// then comm streams by rank, then groups by name) is the canonical lane
/// order of [`Tracer::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The per-device track of `rank`.
    Device(DeviceId),
    /// The communication-stream track of `rank`: collectives launched
    /// `async` render here, in parallel with the device's compute track,
    /// so backward/comm overlap is visible in the Chrome trace.
    DeviceComm(DeviceId),
    /// A per-collective-group track (one group-wide span per op).
    Group(String),
}

/// One traced event over virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Rank the span is attributed to (for group tracks: the group's first
    /// member, so traces don't depend on which rank arrived last).
    pub rank: DeviceId,
    pub track: Track,
    pub kind: SpanKind,
    /// Virtual start time in seconds.
    pub start: f64,
    /// Virtual end time in seconds (`>= start`).
    pub end: f64,
}

impl Span {
    /// Span duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The world-global span sink. Disabled by default; when disabled,
/// [`Tracer::record`] is a single relaxed atomic load. Spans are stored in
/// per-track lanes so snapshots don't depend on how the host interleaved
/// the recording threads.
#[derive(Default)]
pub struct Tracer {
    enabled: AtomicBool,
    lanes: Mutex<BTreeMap<Track, Vec<Span>>>,
}

impl Tracer {
    /// Whether spans are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records `span` if tracing is enabled.
    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.lanes
                .lock()
                .entry(span.track.clone())
                .or_default()
                .push(span);
        }
    }

    /// Snapshot of all recorded spans: lanes in canonical [`Track`] order,
    /// each lane in recording order. Bitwise-deterministic for a
    /// deterministic workload, regardless of rank form or pool size.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lanes.lock().values().flatten().cloned().collect()
    }

    /// Drops all recorded spans (e.g. after a warm-up step).
    pub fn clear(&self) {
        self.lanes.lock().clear();
    }
}

/// A compact track name for a collective group, e.g. `g0-1-2-3`.
pub fn group_track_name(members: &[DeviceId]) -> String {
    let ids: Vec<String> = members.iter().map(|m| m.to_string()).collect();
    format!("g{}", ids.join("-"))
}

/// Per-rank time rollup over the leaf spans of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankRollup {
    pub rank: DeviceId,
    /// Seconds in [`SpanKind::Compute`] spans.
    pub compute: f64,
    /// Seconds in [`SpanKind::Collective`] + [`SpanKind::P2p`] spans.
    pub comm: f64,
    /// Seconds of comm-stream ([`Track::DeviceComm`]) spans. These run in
    /// parallel with the main track, so they are *not* part of busy time
    /// and do not reduce idle.
    pub comm_overlap: f64,
    /// Seconds in [`SpanKind::MemMove`] spans.
    pub mem: f64,
    /// Makespan minus busy time (waiting on peers, pipeline bubbles, ...).
    pub idle: f64,
}

/// Rolls up per-rank busy/idle time. The makespan is the maximum span end
/// over *all* ranks, so idle includes time a rank spends finished while
/// others still work. Phase spans (which nest over leaves) and group-track
/// spans are excluded from the busy sums.
pub fn rollup(spans: &[Span]) -> Vec<RankRollup> {
    let makespan = spans
        .iter()
        .filter(|s| matches!(s.track, Track::Device(_) | Track::DeviceComm(_)))
        .map(|s| s.end)
        .fold(0.0, f64::max);
    let mut per_rank: std::collections::BTreeMap<DeviceId, RankRollup> = Default::default();
    for s in spans {
        let rank = match s.track {
            Track::Device(rank) => rank,
            Track::DeviceComm(rank) => {
                per_rank
                    .entry(rank)
                    .or_insert(RankRollup {
                        rank,
                        ..Default::default()
                    })
                    .comm_overlap += s.duration();
                continue;
            }
            Track::Group(_) => continue,
        };
        let r = per_rank.entry(rank).or_insert(RankRollup {
            rank,
            ..Default::default()
        });
        match &s.kind {
            SpanKind::Compute { .. } => r.compute += s.duration(),
            SpanKind::Collective { .. } | SpanKind::P2p { .. } => r.comm += s.duration(),
            SpanKind::MemMove { .. } => r.mem += s.duration(),
            SpanKind::Phase { .. } => {}
        }
    }
    let mut out: Vec<RankRollup> = per_rank.into_values().collect();
    for r in &mut out {
        r.idle = (makespan - r.compute - r.comm - r.mem).max(0.0);
    }
    out
}

/// World sizes at or above this print the compact min/median/max rollup
/// instead of one row per rank (a 4096-rank table is unreadable noise).
pub const ROLLUP_COMPACT_THRESHOLD: usize = 64;

/// Formats a rollup as a fixed-width table (times in milliseconds). The
/// `pool_hit%` column reports the storage pool's global hit rate; the pool
/// is process-wide, so every rank shows the same figure. Footers summarize
/// the full allocator counters.
///
/// At [`ROLLUP_COMPACT_THRESHOLD`] ranks and above, the per-rank rows
/// collapse into per-column min/median/max summary lines (median is the
/// upper median, the sorted element at `len / 2`).
pub fn rollup_table(rollups: &[RankRollup]) -> String {
    let full = rollups.len() < ROLLUP_COMPACT_THRESHOLD;
    let pool = colossalai_tensor::pool::stats();
    let mut out = String::from(
        "rank   compute_ms      comm_ms   overlap_ms    pool_hit%       mem_ms      idle_ms\n\
         ------------------------------------------------------------------------------------\n",
    );
    let row = |out: &mut String, label: &str, r: &RankRollup| {
        out.push_str(&format!(
            "{:>4} {:>12.3} {:>12.3} {:>12.3} {:>12.1} {:>12.3} {:>12.3}\n",
            label,
            r.compute * 1e3,
            r.comm * 1e3,
            r.comm_overlap * 1e3,
            pool.hit_rate() * 100.0,
            r.mem * 1e3,
            r.idle * 1e3
        ));
    };
    if full {
        for r in rollups {
            row(&mut out, &r.rank.to_string(), r);
        }
    } else {
        // each column is summarized independently, so a summary "row" is
        // not any single rank's rollup
        let stat = |pick: fn(&[f64]) -> f64| {
            let col = |get: fn(&RankRollup) -> f64| {
                let mut v: Vec<f64> = rollups.iter().map(get).collect();
                v.sort_by(f64::total_cmp);
                pick(&v)
            };
            RankRollup {
                rank: 0,
                compute: col(|r| r.compute),
                comm: col(|r| r.comm),
                comm_overlap: col(|r| r.comm_overlap),
                mem: col(|r| r.mem),
                idle: col(|r| r.idle),
            }
        };
        row(&mut out, "min", &stat(|v| v[0]));
        row(&mut out, "med", &stat(|v| v[v.len() / 2]));
        row(&mut out, "max", &stat(|v| v[v.len() - 1]));
        out.push_str(&format!(
            "ranks: {} (per-rank rows elided)\n",
            rollups.len()
        ));
    }
    out.push_str(&format!("pool: {}\n", pool.summary()));
    out.push_str(&format!("pool class hw: {}\n", pool.class_summary()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Pretty-prints microsecond timestamps without float-format surprises.
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

const DEVICES_PID: u64 = 0;
const GROUPS_PID: u64 = 1;
/// Comm-stream tracks use `COMM_TID_BASE + rank` so they sort after every
/// plausible device tid while staying in the `devices` process.
const COMM_TID_BASE: u64 = 1000;

/// Serializes spans as Chrome/Perfetto `trace_events` JSON.
///
/// Every span becomes one complete (`"ph":"X"`) event with timestamps in
/// virtual microseconds; metadata events name the process/thread tracks.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + 8);
    // metadata: process names
    for (pid, name) in [(DEVICES_PID, "devices"), (GROUPS_PID, "groups")] {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{name}"}}}}"#
        ));
    }
    // stable tid assignment for group tracks, in first-seen order
    let mut group_tids: Vec<String> = Vec::new();
    let mut seen_ranks: Vec<DeviceId> = Vec::new();
    let mut seen_comm_ranks: Vec<DeviceId> = Vec::new();
    for s in spans {
        let (pid, tid) = match &s.track {
            Track::Device(rank) => {
                if !seen_ranks.contains(rank) {
                    seen_ranks.push(*rank);
                    events.push(format!(
                        r#"{{"name":"thread_name","ph":"M","pid":{DEVICES_PID},"tid":{rank},"args":{{"name":"device {rank}"}}}}"#
                    ));
                }
                (DEVICES_PID, *rank as u64)
            }
            Track::DeviceComm(rank) => {
                // comm-stream tracks sit just below their device track
                let tid = COMM_TID_BASE + *rank as u64;
                if !seen_comm_ranks.contains(rank) {
                    seen_comm_ranks.push(*rank);
                    events.push(format!(
                        r#"{{"name":"thread_name","ph":"M","pid":{DEVICES_PID},"tid":{tid},"args":{{"name":"device {rank} comm"}}}}"#
                    ));
                }
                (DEVICES_PID, tid)
            }
            Track::Group(name) => {
                let tid = match group_tids.iter().position(|g| g == name) {
                    Some(i) => i as u64,
                    None => {
                        group_tids.push(name.clone());
                        let tid = (group_tids.len() - 1) as u64;
                        events.push(format!(
                            r#"{{"name":"thread_name","ph":"M","pid":{GROUPS_PID},"tid":{tid},"args":{{"name":"{}"}}}}"#,
                            json_escape(name)
                        ));
                        tid
                    }
                };
                (GROUPS_PID, tid)
            }
        };
        let args = match &s.kind {
            SpanKind::Compute { label } => {
                format!(r#"{{"label":"{}"}}"#, json_escape(label))
            }
            SpanKind::Collective { kind, bytes, group } => {
                let ids: Vec<String> = group.iter().map(|m| m.to_string()).collect();
                format!(
                    r#"{{"op":"{}","bytes":{bytes},"group":[{}]}}"#,
                    kind.name(),
                    ids.join(",")
                )
            }
            SpanKind::P2p {
                peer,
                tag,
                bytes,
                is_send,
            } => {
                format!(r#"{{"peer":{peer},"tag":{tag},"bytes":{bytes},"send":{is_send}}}"#)
            }
            SpanKind::MemMove { bytes, from, to } => {
                format!(r#"{{"bytes":{bytes},"from":"{from}","to":"{to}"}}"#)
            }
            SpanKind::Phase { name } => format!(r#"{{"phase":"{}"}}"#, json_escape(name)),
        };
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid},"args":{args}}}"#,
            json_escape(&s.kind.name()),
            s.kind.category(),
            us(s.start),
            us(s.end - s.start),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: DeviceId, kind: SpanKind, start: f64, end: f64) -> Span {
        Span {
            rank,
            track: Track::Device(rank),
            kind,
            start,
            end,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        t.record(span(0, SpanKind::Compute { label: "x".into() }, 0.0, 1.0));
        assert!(t.snapshot().is_empty());
        t.set_enabled(true);
        t.record(span(0, SpanKind::Compute { label: "x".into() }, 0.0, 1.0));
        assert_eq!(t.snapshot().len(), 1);
        t.clear();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn rollup_buckets_and_idle() {
        let spans = vec![
            span(0, SpanKind::Compute { label: "a".into() }, 0.0, 2.0),
            span(
                0,
                SpanKind::Collective {
                    kind: OpKind::AllReduce,
                    bytes: 4,
                    group: vec![0, 1],
                },
                2.0,
                3.0,
            ),
            span(1, SpanKind::Compute { label: "b".into() }, 0.0, 1.0),
            // phases never count as busy time
            span(0, SpanKind::Phase { name: "fwd".into() }, 0.0, 3.0),
        ];
        let r = rollup(&spans);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].rank, 0);
        assert!((r[0].compute - 2.0).abs() < 1e-12);
        assert!((r[0].comm - 1.0).abs() < 1e-12);
        assert!((r[0].idle - 0.0).abs() < 1e-12);
        // rank 1 idles while rank 0 finishes the collective
        assert!((r[1].idle - 2.0).abs() < 1e-12);
        let table = rollup_table(&r);
        assert!(table.contains("idle_ms"));
        assert!(table.contains("pool_hit%"));
        assert!(table.contains("pool: hits="));
    }

    #[test]
    fn snapshot_orders_lanes_canonically() {
        let t = Tracer::default();
        t.set_enabled(true);
        // record in scrambled lane order — the snapshot must not care
        t.record(Span {
            rank: 0,
            track: Track::Group("g0-1".into()),
            kind: SpanKind::Phase { name: "op".into() },
            start: 0.0,
            end: 1.0,
        });
        t.record(span(1, SpanKind::Compute { label: "b".into() }, 0.0, 1.0));
        t.record(Span {
            rank: 0,
            track: Track::DeviceComm(0),
            kind: SpanKind::Phase { name: "ar".into() },
            start: 0.0,
            end: 1.0,
        });
        t.record(span(0, SpanKind::Compute { label: "a".into() }, 0.0, 1.0));
        t.record(span(0, SpanKind::Compute { label: "a2".into() }, 1.0, 2.0));
        let tracks: Vec<Track> = t.snapshot().into_iter().map(|s| s.track).collect();
        assert_eq!(
            tracks,
            vec![
                Track::Device(0),
                Track::Device(0),
                Track::Device(1),
                Track::DeviceComm(0),
                Track::Group("g0-1".into()),
            ]
        );
    }

    #[test]
    fn big_rollup_compacts_to_min_med_max() {
        let rollups: Vec<RankRollup> = (0..ROLLUP_COMPACT_THRESHOLD)
            .map(|rank| RankRollup {
                rank,
                compute: rank as f64,
                ..Default::default()
            })
            .collect();
        let table = rollup_table(&rollups);
        assert!(table.contains(" min"), "{table}");
        assert!(table.contains(" med"), "{table}");
        assert!(table.contains(" max"), "{table}");
        assert!(table.contains("ranks: 64"), "{table}");
        // min 0ms, upper median 32000ms, max 63000ms in the compute column
        assert!(table.contains("0.000"), "{table}");
        assert!(table.contains("32000.000"), "{table}");
        assert!(table.contains("63000.000"), "{table}");
        // one row below threshold stays per-rank
        let small = rollup_table(&rollups[..ROLLUP_COMPACT_THRESHOLD - 1]);
        assert!(!small.contains(" med"), "{small}");
        assert!(small.contains("\n  62 "), "{small}");
    }

    #[test]
    fn chrome_json_names_tracks_once() {
        let spans = vec![
            span(3, SpanKind::Compute { label: "k".into() }, 0.0, 1.0),
            span(3, SpanKind::Compute { label: "k".into() }, 1.0, 2.0),
            Span {
                rank: 0,
                track: Track::Group(group_track_name(&[0, 1])),
                kind: SpanKind::Collective {
                    kind: OpKind::Broadcast,
                    bytes: 16,
                    group: vec![0, 1],
                },
                start: 0.0,
                end: 0.5,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert_eq!(json.matches(r#""ph":"X""#).count(), 3);
        assert!(json.contains(r#""name":"g0-1""#));
    }

    #[test]
    fn comm_stream_spans_roll_up_separately() {
        let collective = SpanKind::Collective {
            kind: OpKind::AllReduce,
            bytes: 4,
            group: vec![0, 1],
        };
        let spans = vec![
            span(
                0,
                SpanKind::Compute {
                    label: "bwd".into(),
                },
                0.0,
                4.0,
            ),
            // async all-reduce overlapping the compute span
            Span {
                rank: 0,
                track: Track::DeviceComm(0),
                kind: collective.clone(),
                start: 1.0,
                end: 5.0,
            },
        ];
        let r = rollup(&spans);
        assert_eq!(r.len(), 1);
        assert!((r[0].compute - 4.0).abs() < 1e-12);
        assert!((r[0].comm - 0.0).abs() < 1e-12);
        assert!((r[0].comm_overlap - 4.0).abs() < 1e-12);
        // makespan covers the comm track: 5s total, 4s busy on main track
        assert!((r[0].idle - 1.0).abs() < 1e-12);
        let table = rollup_table(&r);
        assert!(table.contains("overlap_ms"));
        let json = chrome_trace_json(&spans);
        assert!(json.contains(r#""name":"device 0 comm""#));
        assert!(json.contains(&format!(r#""tid":{}"#, COMM_TID_BASE)));
    }

    #[test]
    fn escaping_survives_quotes() {
        let s = span(
            0,
            SpanKind::Compute {
                label: "a\"b\\c".into(),
            },
            0.0,
            1.0,
        );
        let json = chrome_trace_json(&[s]);
        assert!(json.contains(r#"a\"b\\c"#));
    }
}
