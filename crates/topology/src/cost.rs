//! Analytic collective-communication cost model (alpha-beta, ring family).
//!
//! These estimators convert "which collective, how many bytes, which devices"
//! into virtual seconds. They are what makes the simulated throughput curves
//! follow the paper's: the ring bottleneck link differs between a
//! full-NVLink System I and a partially connected System II, which flips the
//! 1D-vs-2D/2.5D ranking exactly as in Fig 11.

use crate::cluster::Cluster;
use crate::device::DeviceId;

/// Fixed overhead of one collective (kernel launch + NCCL communicator
/// setup, ~100 µs in practice), charged once per collective that moves data
/// between two or more devices; point-to-point ([`Cluster::p2p_time`]) is
/// free of it. SUMMA's many small broadcasts pay it where 1D's four large
/// all-reduces do not: the effect behind Fig 11a.
pub const COLLECTIVE_LAUNCH_SECONDS: f64 = 1.0e-4;

/// A collective's price from its launch-free data-plane seconds.
fn launched(data_plane: f64) -> f64 {
    let launches = if data_plane > 0.0 { 1.0 } else { 0.0 };
    data_plane + launches * COLLECTIVE_LAUNCH_SECONDS
}

/// The ring-family collectives [`data_plane`] prices (steps: below).
#[derive(Clone, Copy)]
pub(crate) enum Ring {
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
}

/// Launch-free seconds of a `ring` collective of `bytes` over `group` (0: one device, no bytes).
pub(crate) fn data_plane(ring: Ring, cluster: &Cluster, group: &[DeviceId], bytes: u64) -> f64 {
    let p = group.len();
    if p <= 1 || bytes == 0 {
        return 0.0;
    }
    let link = cluster.ring_bottleneck(group);
    let (hops, b) = ((p - 1) as f64, bytes as f64);
    match ring {
        Ring::AllReduce => (2 * (p - 1)) as f64 * (link.latency + b / p as f64 / link.bandwidth),
        Ring::AllGather => hops * (link.latency + b / link.bandwidth),
        Ring::ReduceScatter => hops * (link.latency + b / p as f64 / link.bandwidth),
        Ring::Broadcast => hops * link.latency + b / link.bandwidth,
    }
}

/// Seconds for a ring all-reduce of `bytes` over `group`: `2 (p-1)` steps,
/// each moving `bytes / p` across the slowest ring link, plus one launch.
pub fn allreduce_time(cluster: &Cluster, group: &[DeviceId], bytes: u64) -> f64 {
    launched(data_plane(Ring::AllReduce, cluster, group, bytes))
}

/// Seconds for a ring all-gather where each rank contributes `bytes_per_rank`
/// and ends with `p * bytes_per_rank`, plus one launch.
pub fn allgather_time(cluster: &Cluster, group: &[DeviceId], bytes_per_rank: u64) -> f64 {
    launched(data_plane(Ring::AllGather, cluster, group, bytes_per_rank))
}

/// Seconds for a ring reduce-scatter of a `bytes`-sized buffer (each rank
/// keeps `bytes / p`), plus one launch.
pub fn reduce_scatter_time(cluster: &Cluster, group: &[DeviceId], bytes: u64) -> f64 {
    launched(data_plane(Ring::ReduceScatter, cluster, group, bytes))
}

/// Seconds for a pipelined broadcast of `bytes` from `group[0]` (chunking nears `bytes / B_min`
/// after a `(p-1) * alpha` pipeline fill), plus one launch.
pub fn broadcast_time(cluster: &Cluster, group: &[DeviceId], bytes: u64) -> f64 {
    launched(data_plane(Ring::Broadcast, cluster, group, bytes))
}

/// Which executable schedule realizes an all-reduce over a group.
///
/// [`select_allreduce_algo`] picks per call by evaluating the alpha-beta
/// model on the actual link graph; `colossalai-comm` runs the
/// [`allreduce_schedule`] of the pick, so the *executed* collective charges
/// the very phases the selector priced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllReduceAlgo {
    /// One ring over the whole group (bottleneck = slowest ring link).
    FlatRing,
    /// Two-level NCCL-style schedule: intra-node reduce-scatter, ring
    /// all-reduce among node leaders, intra-node all-gather.
    Hierarchical,
    /// Binomial tree: reduce to a root, then broadcast back down. Both
    /// passes take `ceil(log2 p)` rounds of the full payload, so the
    /// latency term is logarithmic where the ring's is linear — the
    /// latency-optimal choice for small messages (and the only
    /// log-latency schedule for non-power-of-two groups).
    Tree,
    /// Recursive halving (reduce-scatter) + recursive doubling
    /// (all-gather): `log2 p` pairwise-exchange rounds per pass, each
    /// halving/doubling the live payload. Log latency *and* the ring's
    /// optimal `2 (p-1)/p` bandwidth factor, but only well-formed for
    /// power-of-two groups; other sizes fall back to the flat ring.
    RecursiveHalvingDoubling,
}

/// `ceil(log2 p)` — pairwise-exchange or tree rounds needed to span `p`
/// ranks. Zero for the trivial group.
fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Partitions `group` into node-local subgroups, nodes in first-seen order
/// and devices in group-rank order within each node.
fn node_partition(cluster: &Cluster, group: &[DeviceId]) -> Vec<Vec<DeviceId>> {
    let mut nodes: Vec<Vec<DeviceId>> = Vec::new();
    for &d in group {
        match nodes
            .iter_mut()
            .find(|n| cluster.node(n[0]) == cluster.node(d))
        {
            Some(n) => n.push(d),
            None => nodes.push(vec![d]),
        }
    }
    nodes
}

/// The node partition of `group` when the two-level schedule is well-formed
/// for it: at least two nodes, every node contributing the same number (at
/// least two) of devices. `None` for ragged layouts and single nodes, which
/// run the flat ring.
fn hierarchical_nodes(cluster: &Cluster, group: &[DeviceId]) -> Option<Vec<Vec<DeviceId>>> {
    let nodes = node_partition(cluster, group);
    let even = nodes.len() > 1 && nodes.iter().all(|n| n.len() == nodes[0].len());
    (even && nodes[0].len() > 1).then_some(nodes)
}

/// The all-reduce schedule that runs: the algorithm after the fallback to
/// the flat ring, and its phase durations in execution order. A fixed-size
/// value, so the per-call selector allocates nothing for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllReduceSchedule {
    /// The algorithm that runs (never an inapplicable one).
    pub algo: AllReduceAlgo,
    phases: [f64; 3],
    len: usize,
    /// `(nodes, ranks per node)`: one node unless hierarchical.
    nodes: (usize, usize),
}

impl AllReduceSchedule {
    fn new(algo: AllReduceAlgo, phases: &[f64], nodes: (usize, usize)) -> AllReduceSchedule {
        let mut all = [0.0; 3];
        all[..phases.len()].copy_from_slice(phases);
        AllReduceSchedule {
            algo,
            phases: all,
            len: phases.len(),
            nodes,
        }
    }

    /// Element hops an `n`-element all-reduce moves under this schedule.
    /// With `m` nodes of `l` ranks each, two intra-node ring passes move
    /// `2 m (l-1) n` hops and the leader ring moves `2 (m-1) n/l` — compare
    /// the flat ring's `2 (m l - 1) n`, which drags every hop across the
    /// bottleneck link. With one node that is the flat ring's `2 (p-1) n`,
    /// which every other schedule moves too.
    pub fn elements(&self, n: u64) -> u64 {
        let (m, l) = (self.nodes.0 as u64, self.nodes.1 as u64);
        2 * m * (l - 1) * n + 2 * (m - 1) * (n / l)
    }

    /// Launch-free phase durations in execution order: one for the flat ring,
    /// three for the hierarchical schedule, two for tree and halving-doubling.
    pub fn phases(&self) -> &[f64] {
        &self.phases[..self.len]
    }

    /// Seconds on the wire: the phases, summed in order.
    pub(crate) fn data_plane(&self) -> f64 {
        self.phases().iter().sum()
    }

    /// Seconds the whole schedule takes: its data plane plus one launch (so
    /// three hierarchical ring phases pay one launch, not three).
    pub fn time(&self) -> f64 {
        launched(self.data_plane())
    }
}

/// The schedule an all-reduce of `bytes` over `group` runs when `algo` is
/// asked for. Inapplicable requests (hierarchical on a single node or a
/// ragged layout, halving-doubling on a non-power-of-two group) and trivial
/// calls (one rank, no bytes) run the flat ring. The launch-free phases:
///
/// * flat ring — the ring all-reduce of [`allreduce_time`];
/// * hierarchical (NCCL's two-level strategy, which keeps the bulk of the
///   traffic on intra-node links) — ring reduce-scatter inside each node
///   (the slowest node gates), ring all-reduce of the shards across node
///   leaders over the slow link, ring all-gather inside each node;
/// * tree — reduce to a root, broadcast back: each `ceil(log2 p)` rounds of
///   the full payload over the group's bottleneck link;
/// * recursive halving-doubling — halving reduce-scatter, doubling
///   all-gather: each `log2 p` rounds, round `s` moving `bytes / 2^s`, so a
///   phase's volume telescopes to `bytes (p-1)/p` — the ring's bandwidth
///   optimum at log latency.
pub fn allreduce_schedule(
    algo: AllReduceAlgo,
    cluster: &Cluster,
    group: &[DeviceId],
    bytes: u64,
) -> AllReduceSchedule {
    let p = group.len();
    if p > 1 && bytes > 0 {
        match algo {
            AllReduceAlgo::Hierarchical => {
                if let Some(nodes) = hierarchical_nodes(cluster, group) {
                    let shard = bytes / nodes[0].len() as u64;
                    let leaders: Vec<DeviceId> = nodes.iter().map(|n| n[0]).collect();
                    let t1 = nodes
                        .iter()
                        .map(|n| data_plane(Ring::ReduceScatter, cluster, n, bytes))
                        .fold(0.0, f64::max);
                    let t2 = data_plane(Ring::AllReduce, cluster, &leaders, shard);
                    let t3 = nodes
                        .iter()
                        .map(|n| data_plane(Ring::AllGather, cluster, n, shard))
                        .fold(0.0, f64::max);
                    let shape = (nodes.len(), nodes[0].len());
                    return AllReduceSchedule::new(algo, &[t1, t2, t3], shape);
                }
            }
            AllReduceAlgo::Tree => {
                let link = cluster.ring_bottleneck(group);
                let t = ceil_log2(p) as f64 * (link.latency + bytes as f64 / link.bandwidth);
                return AllReduceSchedule::new(algo, &[t, t], (1, p));
            }
            AllReduceAlgo::RecursiveHalvingDoubling => {
                if p.is_power_of_two() {
                    let link = cluster.ring_bottleneck(group);
                    let steps = ceil_log2(p) as f64;
                    let t = steps * link.latency
                        + bytes as f64 * (p as f64 - 1.0) / p as f64 / link.bandwidth;
                    return AllReduceSchedule::new(algo, &[t, t], (1, p));
                }
            }
            AllReduceAlgo::FlatRing => {}
        }
    }
    let flat = data_plane(Ring::AllReduce, cluster, group, bytes);
    AllReduceSchedule::new(AllReduceAlgo::FlatRing, &[flat], (1, p))
}

/// Seconds for an all-reduce under an explicit algorithm choice: the
/// [`allreduce_schedule`] that runs for it.
pub fn allreduce_time_with(
    algo: AllReduceAlgo,
    cluster: &Cluster,
    group: &[DeviceId],
    bytes: u64,
) -> f64 {
    allreduce_schedule(algo, cluster, group, bytes).time()
}

/// Picks the cheapest all-reduce schedule for this call by evaluating every
/// alpha-beta estimate on the actual link graph, and returns it to run. The
/// resulting policy falls out of the model: latency-bound small messages go
/// to the tree (the only log-latency schedule on non-power-of-two groups),
/// large power-of-two groups to recursive halving-doubling (log latency at
/// ring bandwidth), multi-node groups with a slow inter-node link to the
/// hierarchical schedule. Every candidate pays the same one launch, so the
/// data planes decide; inapplicable schedules run as the flat ring, and an
/// equal-time challenger never displaces the incumbent — so ties
/// (including every trivial group) keep the flat ring.
pub fn select_allreduce_schedule(
    cluster: &Cluster,
    group: &[DeviceId],
    bytes: u64,
) -> AllReduceSchedule {
    let mut best = allreduce_schedule(AllReduceAlgo::FlatRing, cluster, group, bytes);
    for algo in [
        AllReduceAlgo::Tree,
        AllReduceAlgo::RecursiveHalvingDoubling,
        AllReduceAlgo::Hierarchical,
    ] {
        let challenger = allreduce_schedule(algo, cluster, group, bytes);
        if challenger.data_plane() < best.data_plane() {
            best = challenger;
        }
    }
    best
}

/// The algorithm [`select_allreduce_schedule`] picks.
pub fn select_allreduce_algo(cluster: &Cluster, group: &[DeviceId], bytes: u64) -> AllReduceAlgo {
    select_allreduce_schedule(cluster, group, bytes).algo
}

/// The "algorithm bandwidth" a bandwidth probe would report for a collective
/// that moved `bytes` of payload in `seconds`: `bytes / seconds`. This is the
/// quantity plotted in Fig 10b.
pub fn algorithm_bandwidth(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        f64::INFINITY
    } else {
        bytes as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::device::{GpuSpec, HostSpec};
    use crate::link::Link;

    fn nvlink_box() -> Cluster {
        let mut c = Cluster::homogeneous(
            "box",
            1,
            8,
            GpuSpec::a100(80),
            HostSpec::dgx(),
            Link::infiniband_hdr(),
        );
        c.full_mesh_intra_node(Link::nvlink());
        c
    }

    fn pcie_box() -> Cluster {
        // no explicit links: all intra-node pairs fall back to PCIe
        Cluster::homogeneous(
            "pcie-box",
            1,
            8,
            GpuSpec::a100(80),
            HostSpec::dgx(),
            Link::infiniband_hdr(),
        )
    }

    #[test]
    fn allreduce_faster_on_nvlink() {
        let group: Vec<usize> = (0..8).collect();
        let bytes = 125 << 20;
        let t_nv = allreduce_time(&nvlink_box(), &group, bytes);
        let t_pcie = allreduce_time(&pcie_box(), &group, bytes);
        assert!(t_nv < t_pcie / 5.0, "nvlink {t_nv} vs pcie {t_pcie}");
    }

    #[test]
    fn trivial_groups_cost_nothing() {
        // no launch either: a one-device group or an empty payload is free
        let c = nvlink_box();
        assert_eq!(allreduce_time(&c, &[0], 1 << 20), 0.0);
        assert_eq!(allgather_time(&c, &[3], 1 << 20), 0.0);
        assert_eq!(reduce_scatter_time(&c, &[5], 1 << 20), 0.0);
        assert_eq!(broadcast_time(&c, &[2], 1 << 20), 0.0);
        assert_eq!(broadcast_time(&c, &[0, 1], 0), 0.0);
        for algo in ALGOS {
            let one = allreduce_schedule(algo, &c, &[0], 1 << 20);
            assert_eq!((one.algo, one.time()), (AllReduceAlgo::FlatRing, 0.0));
        }
    }

    /// Every all-reduce algorithm, the flat ring first.
    const ALGOS: [AllReduceAlgo; 4] = [
        AllReduceAlgo::FlatRing,
        AllReduceAlgo::Hierarchical,
        AllReduceAlgo::Tree,
        AllReduceAlgo::RecursiveHalvingDoubling,
    ];

    #[test]
    fn allreduce_equals_reduce_scatter_plus_allgather() {
        // ring all-reduce is definitionally RS + AG on the wire; the model
        // must agree, and the fused collective saves the second launch
        let c = nvlink_box();
        let group: Vec<usize> = (0..4).collect();
        let bytes: u64 = 64 << 20;
        let ar = allreduce_time(&c, &group, bytes);
        let rs = reduce_scatter_time(&c, &group, bytes);
        let ag = allgather_time(&c, &group, bytes / 4);
        assert!((ar + COLLECTIVE_LAUNCH_SECONDS - (rs + ag)).abs() < 1e-12);
        let wire = |ring, bytes| data_plane(ring, &c, &group, bytes);
        let split = wire(Ring::ReduceScatter, bytes) + wire(Ring::AllGather, bytes / 4);
        assert!((wire(Ring::AllReduce, bytes) - split).abs() < 1e-12);
        for (ring, price) in [
            (Ring::AllReduce, ar),
            (Ring::ReduceScatter, rs),
            (Ring::AllGather, allgather_time(&c, &group, bytes)),
            (Ring::Broadcast, broadcast_time(&c, &group, bytes)),
        ] {
            assert_eq!(price, wire(ring, bytes) + COLLECTIVE_LAUNCH_SECONDS);
        }
    }

    #[test]
    fn broadcast_bandwidth_matches_fig10_shape() {
        // Fig 10: 125 MB broadcast achieves ~link bandwidth on System I
        // (the probe reads the data plane, as a back-to-back test does)
        let c = nvlink_box();
        let group: Vec<usize> = (0..8).collect();
        let bytes: u64 = 125 << 20;
        let t = data_plane(Ring::Broadcast, &c, &group, bytes);
        let bw = algorithm_bandwidth(bytes, t);
        assert!(bw > 0.9 * Link::nvlink().bandwidth, "bw {bw}");
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_nodes() {
        // System III-style: 4 nodes x 4 GPUs, NVLink inside, IB between
        let mut c = Cluster::homogeneous(
            "multi",
            4,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        c.full_mesh_intra_node(Link::nvlink());
        let group: Vec<usize> = (0..16).collect();
        let bytes = 256 << 20;
        let flat = allreduce_time(&c, &group, bytes);
        let hier = allreduce_time_with(AllReduceAlgo::Hierarchical, &c, &group, bytes);
        assert!(
            hier < flat,
            "hierarchical {hier} should beat flat ring {flat} when the ring crosses IB"
        );
    }

    #[test]
    fn hierarchical_degrades_to_flat_on_one_node() {
        let c = nvlink_box();
        let group: Vec<usize> = (0..8).collect();
        let bytes = 64 << 20;
        assert_eq!(
            allreduce_time_with(AllReduceAlgo::Hierarchical, &c, &group, bytes),
            allreduce_time(&c, &group, bytes)
        );
    }

    #[test]
    fn selector_picks_hierarchical_only_across_nodes() {
        let mut multi = Cluster::homogeneous(
            "multi",
            4,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        multi.full_mesh_intra_node(Link::nvlink());
        let bytes = 64 << 20;
        let group16: Vec<usize> = (0..16).collect();
        assert_eq!(
            select_allreduce_algo(&multi, &group16, bytes),
            AllReduceAlgo::Hierarchical
        );
        // single-node power-of-two group: halving-doubling (same bandwidth
        // term as the ring, log instead of linear latency) — never
        // hierarchical, which degrades to flat here
        let group4: Vec<usize> = (0..4).collect();
        assert_eq!(
            select_allreduce_algo(&multi, &group4, bytes),
            AllReduceAlgo::RecursiveHalvingDoubling
        );
        assert_eq!(
            select_allreduce_algo(&nvlink_box(), &(0..8).collect::<Vec<_>>(), bytes),
            AllReduceAlgo::RecursiveHalvingDoubling
        );
    }

    #[test]
    fn ceil_log2_rounds() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn tree_phases_are_log_rounds_of_full_payload() {
        let c = nvlink_box();
        let group: Vec<usize> = (0..6).collect();
        let bytes: u64 = 8 << 20;
        let link = Link::nvlink();
        let tree = allreduce_schedule(AllReduceAlgo::Tree, &c, &group, bytes);
        assert_eq!(tree.algo, AllReduceAlgo::Tree);
        let &[t1, t2] = tree.phases() else {
            panic!("two phases: {tree:?}")
        };
        let expect = 3.0 * (link.latency + bytes as f64 / link.bandwidth);
        assert!((t1 - expect).abs() < 1e-15);
        assert_eq!(t1, t2);
        let time = allreduce_time_with(AllReduceAlgo::Tree, &c, &group, bytes);
        assert!((time - 2.0 * expect - COLLECTIVE_LAUNCH_SECONDS).abs() < 1e-15);
    }

    #[test]
    fn rhd_matches_ring_bandwidth_at_log_latency() {
        let c = nvlink_box();
        let group: Vec<usize> = (0..8).collect();
        let bytes: u64 = 64 << 20;
        let link = Link::nvlink();
        let rhd = allreduce_time_with(AllReduceAlgo::RecursiveHalvingDoubling, &c, &group, bytes);
        let expect = 2.0 * (3.0 * link.latency + bytes as f64 * (7.0 / 8.0) / link.bandwidth)
            + COLLECTIVE_LAUNCH_SECONDS;
        assert!((rhd - expect).abs() < 1e-12, "{rhd} vs {expect}");
        // same bandwidth term as the ring, fewer latency terms: RHD must be
        // strictly cheaper on a power-of-two group at any size
        assert!(rhd < allreduce_time(&c, &group, bytes));
        // non-power-of-two: inapplicable, runs and prices as the flat ring
        let group6: Vec<usize> = (0..6).collect();
        let rhd6 = allreduce_schedule(AllReduceAlgo::RecursiveHalvingDoubling, &c, &group6, bytes);
        assert_eq!(rhd6.algo, AllReduceAlgo::FlatRing);
        assert_eq!(rhd6.time(), allreduce_time(&c, &group6, bytes));
    }

    #[test]
    fn selector_picks_tree_for_small_non_pow2_and_rhd_for_large_pow2() {
        let c = nvlink_box();
        // small message, 6 ranks: tree's 2*ceil(log2 6)=6 latency terms beat
        // the ring's 2*(6-1)=10; RHD is inapplicable at p=6
        let group6: Vec<usize> = (0..6).collect();
        assert_eq!(select_allreduce_algo(&c, &group6, 4), AllReduceAlgo::Tree);
        // large message, same group: the tree's full-payload rounds lose to
        // the ring's chunked pipeline
        assert_eq!(
            select_allreduce_algo(&c, &group6, 125 << 20),
            AllReduceAlgo::FlatRing
        );
        // power-of-two group, large message: halving-doubling wins
        let group8: Vec<usize> = (0..8).collect();
        assert_eq!(
            select_allreduce_algo(&c, &group8, 125 << 20),
            AllReduceAlgo::RecursiveHalvingDoubling
        );
    }

    #[test]
    fn selected_algo_is_argmin_of_the_zoo() {
        let mut multi = Cluster::homogeneous(
            "multi",
            4,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        multi.full_mesh_intra_node(Link::nvlink());
        for group_len in [2usize, 3, 4, 6, 8, 12, 16] {
            let group: Vec<usize> = (0..group_len).collect();
            for bytes in [4u64, 1 << 10, 1 << 20, 125 << 20] {
                let sel = select_allreduce_algo(&multi, &group, bytes);
                let t_sel = allreduce_time_with(sel, &multi, &group, bytes);
                let wire = |algo| allreduce_schedule(algo, &multi, &group, bytes).data_plane();
                for algo in ALGOS {
                    let t = allreduce_time_with(algo, &multi, &group, bytes);
                    assert!(
                        t_sel <= t,
                        "p={group_len} bytes={bytes}: selected {sel:?} ({t_sel}) loses to {algo:?} ({t})"
                    );
                    // flat, hierarchical, tree and halving-doubling each
                    // price exactly one launch above their data plane
                    let launch = t - wire(algo);
                    assert!(
                        (launch - COLLECTIVE_LAUNCH_SECONDS).abs() < 1e-12,
                        "{algo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ragged_layouts_are_not_hierarchical() {
        let mut multi = Cluster::homogeneous(
            "multi",
            2,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        multi.full_mesh_intra_node(Link::nvlink());
        // 3 devices from node 0, 2 from node 1
        let ragged = [0usize, 1, 2, 4, 5];
        assert!(hierarchical_nodes(&multi, &ragged).is_none());
        assert_eq!(
            allreduce_time_with(AllReduceAlgo::Hierarchical, &multi, &ragged, 8 << 20),
            allreduce_time(&multi, &ragged, 8 << 20)
        );
        // 1 GPU per node: no intra-node phase possible
        let leaders = [0usize, 4];
        assert!(hierarchical_nodes(&multi, &leaders).is_none());
    }

    #[test]
    fn node_partition_keeps_group_rank_order() {
        let multi = Cluster::homogeneous(
            "multi",
            2,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        let parts = node_partition(&multi, &[5, 1, 0, 6, 3]);
        assert_eq!(parts, vec![vec![5, 6], vec![1, 0, 3]]);
    }

    #[test]
    fn phases_sum_to_hierarchical_time() {
        let mut multi = Cluster::homogeneous(
            "multi",
            4,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        multi.full_mesh_intra_node(Link::nvlink());
        let group: Vec<usize> = (0..16).collect();
        let bytes = 32 << 20;
        let hier = allreduce_schedule(AllReduceAlgo::Hierarchical, &multi, &group, bytes);
        let &[t1, t2, t3] = hier.phases() else {
            panic!("three phases: {hier:?}")
        };
        assert!(t1 > 0.0 && t2 > 0.0 && t3 > 0.0);
        let time = allreduce_time_with(AllReduceAlgo::Hierarchical, &multi, &group, bytes);
        // three ring phases, one launch
        assert_eq!(time, (t1 + t2 + t3) + COLLECTIVE_LAUNCH_SECONDS);
        // the leader ring over IB dominates both intra-node phases
        assert!(t2 > t1 && t2 > t3);
    }

    #[test]
    fn more_ranks_cost_more_per_allgather() {
        let c = nvlink_box();
        let t4 = allgather_time(&c, &(0..4).collect::<Vec<_>>(), 1 << 20);
        let t8 = allgather_time(&c, &(0..8).collect::<Vec<_>>(), 1 << 20);
        assert!(t8 > t4);
    }
}
