//! Global, thread-safe, size-classed recycling pool for tensor storage.
//!
//! Every hot-path buffer in this system — activation outputs, GEMM packing
//! panels, gradient buckets, optimizer scratch — is an f32 `Vec` whose size
//! repeats exactly from step to step. Allocating them fresh each time puts
//! `malloc`/`munmap` (and, for the multi-hundred-KB buffers that dominate a
//! training step, the kernel's mmap path and page-fault zeroing) on the
//! critical path; Colossal-AI's Gemini chunk allocator and fused CUDA
//! kernels exist to keep the real system's hot loop off the allocator for
//! the same reason. This module is the CPU-substrate analogue: freed
//! storage parks here, keyed by a power-of-two *size class*, and the next
//! request of a compatible size reuses it.
//!
//! Safety model: a buffer enters the pool only from [`recycle`], which the
//! tensor storage type calls from `Drop` — i.e. only once no live handle
//! can reach it (the `Arc` strong count hit zero). A buffer leaves the pool
//! exactly once per request. Reuse therefore can never alias live storage;
//! `tests/pool_props.rs` property-tests this against the copy-on-write
//! invariant.
//!
//! The pool is process-global and deliberately bounded (per-class and total
//! byte caps): overflow buffers fall through to the system allocator
//! exactly as before. There is no off switch: the arithmetic does not
//! depend on where the bytes come from.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest pooled request, in elements (256 B). Anything below goes to the
/// system allocator: the lock round-trip costs more than a small malloc.
pub const MIN_POOL_ELEMS: usize = 64;
/// Number of power-of-two size classes: class `i` serves requests of up to
/// `MIN_POOL_ELEMS << i` elements. 25 classes top out at 2^30 elements.
pub const N_CLASSES: usize = 25;

/// Largest request (in elements) class `i` serves.
pub const fn class_elems(idx: usize) -> usize {
    MIN_POOL_ELEMS << idx
}
/// At most this many parked buffers per class. Sized for a simulated
/// multi-rank world: 16 device threads can each keep a handful of same-class
/// buffers (gradients, GEMM outputs, flatten scratch) in flight at once, so
/// a small cap would leak a steady trickle of misses every step.
const PER_CLASS_CAP: usize = 256;
/// Total bytes the pool may park before recycles fall through to `free`.
const TOTAL_BYTE_CAP: usize = 1 << 30;

/// One size class: a LIFO stack of parked buffers (LIFO keeps the hottest,
/// cache-resident buffer on top).
static CLASSES: OnceLock<Vec<Mutex<Vec<Vec<f32>>>>> = OnceLock::new();

fn classes() -> &'static [Mutex<Vec<Vec<f32>>>] {
    CLASSES.get_or_init(|| (0..N_CLASSES).map(|_| Mutex::new(Vec::new())).collect())
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);
static POOLED_BYTES: AtomicUsize = AtomicUsize::new(0);
static POOLED_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Per-class parked-bytes counter and its high-water mark (indexed like
/// [`CLASSES`]). The per-class marks localize pool pressure: a single hot
/// class pinned at its cap is invisible in the global high water once a
/// bigger class dwarfs it.
///
/// Both this gauge and the global [`POOLED_BYTES`] change only while the
/// class lock is held, in the same critical section as the push, pop or
/// clear they account for: a buffer's bytes are added before anyone can pop
/// it and subtracted exactly once, so neither gauge can dip below zero.
struct ClassCounters {
    bytes: AtomicUsize,
    high_water: AtomicUsize,
}

static CLASS_COUNTERS: OnceLock<Vec<ClassCounters>> = OnceLock::new();

fn class_counters() -> &'static [ClassCounters] {
    CLASS_COUNTERS.get_or_init(|| {
        (0..N_CLASSES)
            .map(|_| ClassCounters {
                bytes: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            })
            .collect()
    })
}

/// Size class serving a request of `n` elements, or `None` when the request
/// is out of pooling range (tiny or enormous).
#[inline]
fn class_for_request(n: usize) -> Option<usize> {
    if n < MIN_POOL_ELEMS {
        return None;
    }
    let idx =
        n.next_power_of_two().trailing_zeros() as usize - MIN_POOL_ELEMS.trailing_zeros() as usize;
    (idx < N_CLASSES).then_some(idx)
}

/// Size class a buffer of capacity `cap` parks in: the *largest* class whose
/// request size its capacity still satisfies, so every buffer popped from
/// class `i` has capacity `>= MIN_POOL_ELEMS << i`.
#[inline]
fn class_for_capacity(cap: usize) -> Option<usize> {
    if cap < MIN_POOL_ELEMS {
        return None;
    }
    let idx =
        (usize::BITS - 1 - cap.leading_zeros()) as usize - MIN_POOL_ELEMS.trailing_zeros() as usize;
    Some(idx.min(N_CLASSES - 1))
}

/// Takes an *empty* buffer (`len == 0`) with capacity for at least `n`
/// elements — from the pool when possible, freshly allocated otherwise.
/// The caller fills it (`extend`, `resize`, `push`); garbage capacity is
/// never exposed.
pub fn take_buffer(n: usize) -> Vec<f32> {
    let Some(idx) = class_for_request(n) else {
        return Vec::with_capacity(n);
    };
    let popped = {
        let mut class = classes()[idx].lock().expect("pool lock");
        let popped = class.pop();
        if let Some(buf) = &popped {
            let bytes = buf.capacity() * 4;
            POOLED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
            class_counters()[idx]
                .bytes
                .fetch_sub(bytes, Ordering::Relaxed);
        }
        popped
    };
    if let Some(mut buf) = popped {
        debug_assert!(buf.capacity() >= n);
        HITS.fetch_add(1, Ordering::Relaxed);
        buf.clear();
        return buf;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // allocate the full class size so the buffer re-parks in the same class
    // and serves every future request that maps here
    Vec::with_capacity(MIN_POOL_ELEMS << idx)
}

/// Takes a buffer of length `n`, zero-filled (the pooled analogue of
/// `vec![0.0; n]`; a memset instead of a fresh mmap).
pub fn take_zeroed(n: usize) -> Vec<f32> {
    let mut buf = take_buffer(n);
    buf.resize(n, 0.0);
    buf
}

/// Parks `buf` for reuse (or frees it when the buffer is out of class
/// range or the pool is at capacity). Called by tensor
/// storage `Drop`, so only unreachable buffers ever arrive here.
pub fn recycle(buf: Vec<f32>) {
    let cap_bytes = buf.capacity() * 4;
    if cap_bytes == 0 {
        return;
    }
    let Some(idx) = class_for_capacity(buf.capacity()) else {
        return;
    };
    let counters = &class_counters()[idx];
    {
        let mut class = classes()[idx].lock().expect("pool lock");
        if class.len() >= PER_CLASS_CAP {
            return; // drop: falls through to the system allocator
        }
        // reserve the bytes only if they fit under the total cap, so
        // concurrent recyclers of other classes cannot overshoot it together
        let reserved = POOLED_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
            (now + cap_bytes <= TOTAL_BYTE_CAP).then_some(now + cap_bytes)
        });
        let Ok(before) = reserved else {
            return;
        };
        POOLED_HIGH_WATER.fetch_max(before + cap_bytes, Ordering::Relaxed);
        let class_now = counters.bytes.fetch_add(cap_bytes, Ordering::Relaxed) + cap_bytes;
        counters.high_water.fetch_max(class_now, Ordering::Relaxed);
        class.push(buf);
    }
    RECYCLED_BYTES.fetch_add(cap_bytes as u64, Ordering::Relaxed);
}

/// Frees every parked buffer (stats are kept; see [`reset_stats`]).
pub fn clear() {
    for (class, counters) in classes().iter().zip(class_counters()) {
        let mut class = class.lock().expect("pool lock");
        // subtract what was dropped rather than storing 0: recyclers of
        // other classes keep adding to the global gauge meanwhile
        let dropped: usize = class.iter().map(|buf| buf.capacity() * 4).sum();
        class.clear();
        POOLED_BYTES.fetch_sub(dropped, Ordering::Relaxed);
        counters.bytes.fetch_sub(dropped, Ordering::Relaxed);
    }
}

/// Zeroes the hit/miss/recycle counters (e.g. after a warm-up step, so a
/// bench reports steady-state behavior).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED_BYTES.store(0, Ordering::Relaxed);
    POOLED_HIGH_WATER.store(POOLED_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    for c in class_counters() {
        c.high_water
            .store(c.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A snapshot of the pool's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Requests served from a parked buffer.
    pub hits: u64,
    /// Requests that fell through to the system allocator (pool empty for
    /// that class). Only in-range requests count; tiny buffers are not
    /// pooling candidates at all.
    pub misses: u64,
    /// Cumulative bytes accepted back into the pool.
    pub recycled_bytes: u64,
    /// Bytes currently parked in the pool.
    pub pooled_bytes: usize,
    /// High-water mark of [`PoolStats::pooled_bytes`].
    pub pooled_high_water: usize,
    /// Per-size-class high-water marks of parked bytes (class `i` serves
    /// requests of up to [`class_elems`]`(i)` elements).
    pub class_high_water: [usize; N_CLASSES],
}

impl PoolStats {
    /// Hit rate over in-range requests, `0.0` when none were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line human-readable summary (used by the trace rollup footer).
    pub fn summary(&self) -> String {
        format!(
            "hits={} misses={} hit={:.1}% recycled={:.1}MB pooled-hw={:.1}MB",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.recycled_bytes as f64 / (1u64 << 20) as f64,
            self.pooled_high_water as f64 / (1usize << 20) as f64,
        )
    }

    /// One-line per-class high-water breakdown: `<class elems>=<hw>` for
    /// every class that ever parked a buffer (`-` when none did). Sizes are
    /// the class's request capacity in elements; marks are in MB.
    pub fn class_summary(&self) -> String {
        let parts: Vec<String> = self
            .class_high_water
            .iter()
            .enumerate()
            .filter(|(_, &hw)| hw > 0)
            .map(|(i, &hw)| {
                format!(
                    "{}el={:.2}MB",
                    class_elems(i),
                    hw as f64 / (1usize << 20) as f64
                )
            })
            .collect();
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Current counters (process-global: the pool is shared by every simulated
/// device thread).
pub fn stats() -> PoolStats {
    let mut class_high_water = [0usize; N_CLASSES];
    for (slot, c) in class_high_water.iter_mut().zip(class_counters()) {
        *slot = c.high_water.load(Ordering::Relaxed);
    }
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled_bytes: RECYCLED_BYTES.load(Ordering::Relaxed),
        pooled_bytes: POOLED_BYTES.load(Ordering::Relaxed),
        pooled_high_water: POOLED_HIGH_WATER.load(Ordering::Relaxed),
        class_high_water,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_request_vs_capacity() {
        // a buffer parked from any capacity must satisfy every request that
        // maps to its class
        for cap in [64, 65, 100, 127, 128, 1 << 20, (1 << 20) + 3] {
            let idx = class_for_capacity(cap).unwrap();
            assert!(
                cap >= MIN_POOL_ELEMS << idx,
                "cap {cap} parked in class {idx} but class requests up to {}",
                MIN_POOL_ELEMS << idx
            );
        }
        assert_eq!(class_for_request(1), None);
        assert_eq!(class_for_request(63), None);
        assert_eq!(class_for_request(64), Some(0));
        assert_eq!(class_for_request(65), Some(1));
        assert_eq!(class_for_capacity(63), None);
        assert_eq!(class_for_capacity(64), Some(0));
        assert_eq!(class_for_capacity(127), Some(0));
        assert_eq!(class_for_capacity(128), Some(1));
    }

    #[test]
    fn recycle_then_take_reuses_capacity() {
        // use an unusual size so parallel tests don't interfere
        let n = 77_777;
        let mut buf = take_buffer(n);
        buf.resize(n, 1.0);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take_buffer(n);
        // LIFO: the buffer just parked comes straight back
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.capacity(), cap);
        assert!(again.is_empty(), "pooled buffers come back empty");
    }

    #[test]
    fn take_zeroed_is_all_zeros_after_reuse() {
        let n = 55_555;
        let mut buf = take_buffer(n);
        buf.resize(n, 7.0); // poison
        recycle(buf);
        let z = take_zeroed(n);
        assert_eq!(z.len(), n);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tiny_requests_bypass_the_pool() {
        let before = stats();
        let b = take_buffer(8);
        recycle(b);
        let after = stats();
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
    }

    #[test]
    fn class_high_water_tracks_each_class_independently() {
        // two unusual sizes in different classes so parallel tests don't
        // collide with these classes' counters
        let small = 70_001; // class_for_capacity of its cap
        let large = 1_234_567;
        let mut a = take_buffer(small);
        a.resize(small, 1.0);
        let a_class = class_for_capacity(a.capacity()).unwrap();
        let a_bytes = a.capacity() * 4;
        let mut b = take_buffer(large);
        b.resize(large, 1.0);
        let b_class = class_for_capacity(b.capacity()).unwrap();
        let b_bytes = b.capacity() * 4;
        assert_ne!(a_class, b_class);
        recycle(a);
        recycle(b);
        let s = stats();
        assert!(
            s.class_high_water[a_class] >= a_bytes,
            "class {a_class} high water {} < parked {a_bytes}",
            s.class_high_water[a_class]
        );
        assert!(s.class_high_water[b_class] >= b_bytes);
        // the marks survive the buffers leaving the pool again
        let _ = take_buffer(small);
        let _ = take_buffer(large);
        let s2 = stats();
        assert!(s2.class_high_water[a_class] >= a_bytes, "marks are sticky");
        let line = s2.class_summary();
        assert!(
            line.contains("el="),
            "summary lists per-class marks: {line}"
        );
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let n = 131_071; // odd size, dedicated class usage
        let before = stats();
        let b = take_buffer(n); // miss (or hit if another test parked one)
        recycle(b);
        let _b2 = take_buffer(n); // hit
        let after = stats();
        assert!(after.hits > before.hits, "reuse must count as a hit");
        assert!(after.recycled_bytes > before.recycled_bytes);
    }
}
