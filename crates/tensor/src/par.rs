//! What is left of the retired intra-op pool (DESIGN.md §10): an all-zero
//! counter snapshot, kept only because `benchmark/` names [`ParStats`],
//! [`stats`] and [`reset_stats`] for its three `tensor.par.*` rows.

/// Counters of the retired intra-op pool; every field reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Jobs executed through a worker pool: always 0.
    pub jobs: u64,
    /// Submissions that ran inline because the pool was busy: always 0.
    pub contended_fallbacks: u64,
    /// Submissions that waited for the pool: always 0.
    pub contended_waits: u64,
}

impl ParStats {
    /// Share of task units run by pool workers: always 0.
    pub fn util(&self) -> f64 {
        0.0
    }
}

/// The all-zero snapshot.
pub fn stats() -> ParStats {
    ParStats::default()
}

/// Nothing to reset.
pub fn reset_stats() {}
