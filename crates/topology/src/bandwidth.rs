//! Bandwidth probing — the simulation analogue of the NCCL bandwidth test
//! used for Fig 10 of the paper. Like that back-to-back test, a collective
//! probe reports payload over data-plane (launch-free) seconds.

use crate::cluster::Cluster;
use crate::cost;
use crate::device::DeviceId;

/// Result of probing one GPU pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PairProbe {
    pub a: DeviceId,
    pub b: DeviceId,
    /// Effective bandwidth in bytes/s for the probe message size.
    pub bandwidth: f64,
}

/// Result of probing a collective over a device group.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupProbe {
    pub group: Vec<DeviceId>,
    /// Algorithm bandwidth (payload bytes / data-plane seconds) in bytes/s.
    pub bandwidth: f64,
}

/// Probes every unordered device pair with a `bytes`-sized transfer
/// (Fig 10a: "Communication Bandwidth between GPU Pairs").
fn probe_pairs(cluster: &Cluster, bytes: u64) -> Vec<PairProbe> {
    let n = cluster.n_devices();
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            out.push(PairProbe {
                a,
                b,
                bandwidth: cluster.link(a, b).effective_bandwidth(bytes),
            });
        }
    }
    out
}

/// Probes a broadcast over each prefix group `{0..k}` for `k` in
/// `group_sizes` (Fig 10b: "Communication Bandwidth for Collective
/// Communication", 125 MB broadcast).
pub fn probe_collective(cluster: &Cluster, group_sizes: &[usize], bytes: u64) -> Vec<GroupProbe> {
    group_sizes
        .iter()
        .map(|&k| {
            assert!(k >= 2 && k <= cluster.n_devices(), "bad group size {k}");
            let group: Vec<DeviceId> = (0..k).collect();
            let t = cost::data_plane(cost::Ring::Broadcast, cluster, &group, bytes);
            GroupProbe {
                group,
                bandwidth: cost::algorithm_bandwidth(bytes, t),
            }
        })
        .collect()
}

/// Result of probing an all-reduce under the whole algorithm zoo over one
/// group. Inapplicable schedules (hierarchical on one node, halving-doubling
/// on a non-power-of-two group) price as the flat ring, so every field is
/// always a real bandwidth and `>= flat` means "never loses".
#[derive(Clone, Debug, PartialEq)]
pub struct AllReduceProbe {
    pub group: Vec<DeviceId>,
    /// Flat-ring algorithm bandwidth in bytes/s.
    pub flat: f64,
    /// Hierarchical (two-level) algorithm bandwidth in bytes/s. Equals
    /// `flat` wherever the hierarchical schedule degrades to the ring.
    pub hierarchical: f64,
    /// Binomial-tree (reduce + broadcast) algorithm bandwidth in bytes/s.
    pub tree: f64,
    /// Recursive-halving-doubling algorithm bandwidth in bytes/s. Equals
    /// `flat` on non-power-of-two groups.
    pub rhd: f64,
    /// What [`cost::select_allreduce_algo`] picks for this group and size.
    pub selected: cost::AllReduceAlgo,
}

/// Probes an all-reduce over each prefix group `{0..k}` under every
/// schedule in the zoo (Fig 10c: the bandwidth gap the topology-aware
/// selector exploits on multi-node systems).
pub fn probe_allreduce(
    cluster: &Cluster,
    group_sizes: &[usize],
    bytes: u64,
) -> Vec<AllReduceProbe> {
    group_sizes
        .iter()
        .map(|&k| {
            assert!(k >= 2 && k <= cluster.n_devices(), "bad group size {k}");
            let group: Vec<DeviceId> = (0..k).collect();
            let t = |algo| cost::allreduce_schedule(algo, cluster, &group, bytes).data_plane();
            AllReduceProbe {
                selected: cost::select_allreduce_algo(cluster, &group, bytes),
                flat: cost::algorithm_bandwidth(bytes, t(cost::AllReduceAlgo::FlatRing)),
                hierarchical: cost::algorithm_bandwidth(
                    bytes,
                    t(cost::AllReduceAlgo::Hierarchical),
                ),
                tree: cost::algorithm_bandwidth(bytes, t(cost::AllReduceAlgo::Tree)),
                rhd: cost::algorithm_bandwidth(
                    bytes,
                    t(cost::AllReduceAlgo::RecursiveHalvingDoubling),
                ),
                group,
            }
        })
        .collect()
}

/// Min / max pairwise bandwidth — the headline numbers of Fig 10a.
pub fn pairwise_extremes(cluster: &Cluster, bytes: u64) -> (f64, f64) {
    let probes = probe_pairs(cluster, bytes);
    let min = probes
        .iter()
        .map(|p| p.bandwidth)
        .fold(f64::INFINITY, f64::min);
    let max = probes.iter().map(|p| p.bandwidth).fold(0.0, f64::max);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{system_i, system_ii, system_iii};

    const PROBE_BYTES: u64 = 125 << 20; // the paper's 125 MB probe

    #[test]
    fn system_i_uniform_high_bandwidth() {
        let (min, max) = pairwise_extremes(&system_i(), PROBE_BYTES);
        // fully connected: min == max, ~184 GB/s
        assert!((max - min).abs() / max < 1e-9);
        assert!(min > 150.0e9);
    }

    #[test]
    fn system_ii_bimodal_bandwidth() {
        let (min, max) = pairwise_extremes(&system_ii(), PROBE_BYTES);
        // paper: 184 GB/s adjacent vs ~15 GB/s distant
        assert!(max > 150.0e9, "max {max}");
        assert!(min < 20.0e9, "min {min}");
        assert!(max / min > 10.0);
    }

    #[test]
    fn collective_bandwidth_drops_on_system_ii() {
        let sizes = [2, 4, 8];
        let bw_i = probe_collective(&system_i(), &sizes, PROBE_BYTES);
        let bw_ii = probe_collective(&system_ii(), &sizes, PROBE_BYTES);
        // System I stays high at every group size
        for p in &bw_i {
            assert!(p.bandwidth > 150.0e9, "I: {:?}", p);
        }
        // System II: the 2-GPU group rides NVLink, 4+ hits the PCIe floor
        assert!(bw_ii[0].bandwidth > 150.0e9);
        assert!(bw_ii[1].bandwidth < 20.0e9);
        assert!(bw_ii[2].bandwidth < 20.0e9);
    }

    #[test]
    fn allreduce_probe_shows_hierarchy_win_on_system_iii() {
        let probes = probe_allreduce(&system_iii(), &[4, 8, 16, 32], PROBE_BYTES);
        for p in &probes {
            assert!(
                p.hierarchical >= p.flat,
                "hierarchical must never lose: {:?}",
                p
            );
            assert!(p.rhd >= p.flat, "halving-doubling must never lose: {:?}", p);
        }
        // 4-GPU group fits one node: hierarchical degrades to the ring and
        // the power-of-two group goes to halving-doubling
        assert_eq!(probes[0].flat, probes[0].hierarchical);
        assert_eq!(
            probes[0].selected,
            cost::AllReduceAlgo::RecursiveHalvingDoubling
        );
        // cross-node groups at 125 MB: hierarchical beats the whole zoo
        for p in &probes[1..] {
            assert!(p.hierarchical > p.flat, "{:?}", p);
            assert!(p.hierarchical > p.tree, "{:?}", p);
            assert!(p.hierarchical > p.rhd, "{:?}", p);
            assert_eq!(p.selected, cost::AllReduceAlgo::Hierarchical);
        }
    }

    #[test]
    fn allreduce_probe_covers_the_zoo_on_single_node() {
        // p=2: every schedule degenerates to the same pairwise exchange —
        // the tie keeps the flat ring
        let pair = probe_allreduce(&system_i(), &[2], PROBE_BYTES);
        assert_eq!(pair[0].rhd, pair[0].flat);
        assert_eq!(pair[0].selected, cost::AllReduceAlgo::FlatRing);
        for p in probe_allreduce(&system_i(), &[4, 8], PROBE_BYTES) {
            assert_eq!(p.flat, p.hierarchical);
            // power-of-two groups: halving-doubling matches ring bandwidth
            // with fewer latency terms, so it is selected at every size
            assert!(p.rhd > p.flat);
            assert_eq!(p.selected, cost::AllReduceAlgo::RecursiveHalvingDoubling);
        }
        // non-power-of-two group: rhd prices as flat, and at a latency-bound
        // message size the tree takes over
        let small = probe_allreduce(&system_i(), &[6], 1 << 10);
        assert_eq!(small[0].rhd, small[0].flat);
        assert!(small[0].tree > small[0].flat);
        assert_eq!(small[0].selected, cost::AllReduceAlgo::Tree);
    }
}
