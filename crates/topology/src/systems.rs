//! Presets for the four experimental systems of Table 2.

use crate::cluster::Cluster;
use crate::device::{GpuSpec, HostSpec};
use crate::link::Link;

/// System I: one node, 8x A100-80GB, full-mesh NVLink between any pair
/// (Fig 9a).
pub fn system_i() -> Cluster {
    let mut c = Cluster::homogeneous(
        "System I",
        1,
        8,
        GpuSpec::a100(80),
        HostSpec::dgx(),
        Link::infiniband_hdr(),
    );
    c.full_mesh_intra_node(Link::nvlink());
    c
}

/// System II: one node, 8x A100-80GB, NVLink only between the four adjacent
/// pairs (0-1, 2-3, 4-5, 6-7); all other pairs communicate over PCIe
/// (Fig 9b).
pub fn system_ii() -> Cluster {
    let mut c = Cluster::homogeneous(
        "System II",
        1,
        8,
        GpuSpec::a100(80),
        HostSpec::dgx(),
        Link::infiniband_hdr(),
    );
    for pair in 0..4 {
        c.add_link(2 * pair, 2 * pair + 1, Link::nvlink());
    }
    c
}

/// System III: 16 nodes x 4 A100-40GB, NVLink inside a node, InfiniBand HDR
/// (200 Gb/s) between nodes.
pub fn system_iii() -> Cluster {
    let mut c = Cluster::homogeneous(
        "System III",
        16,
        4,
        GpuSpec::a100(40),
        HostSpec::workstation(),
        Link::infiniband_hdr(),
    );
    c.full_mesh_intra_node(Link::nvlink());
    c
}

/// System IV: 64 nodes x 1 P100-16GB connected by the Cray Aries fabric.
pub fn system_iv() -> Cluster {
    Cluster::homogeneous(
        "System IV",
        64,
        1,
        GpuSpec::p100(),
        HostSpec::workstation(),
        Link::aries(),
    )
}

/// A synthetic three-tier fat-tree cluster: `pods * nodes_per_pod` nodes of
/// 8x A100-80GB each, NVLink inside a node (as a fallback — no O(n²) link
/// table is materialized), InfiniBand HDR between nodes of a pod, and a
/// 2:1-oversubscribed, higher-latency uplink between pods. The shape of the
/// large production clusters the paper's scaling discussion targets.
fn fat_tree(name: impl Into<String>, pods: usize, nodes_per_pod: usize) -> Cluster {
    let mut c = Cluster::homogeneous(
        name,
        pods * nodes_per_pod,
        8,
        GpuSpec::a100(80),
        HostSpec::dgx(),
        Link::infiniband_hdr(),
    );
    c.set_intra_node_fallback(Link::nvlink());
    let ib = Link::infiniband_hdr();
    c.set_pods(
        nodes_per_pod,
        Link {
            kind: ib.kind,
            bandwidth: ib.bandwidth / 2.0, // 2:1 oversubscription at the spine
            latency: ib.latency * 3.0,     // two extra switch hops
        },
    );
    c
}

/// 512-GPU fat tree: 4 pods x 16 nodes x 8 GPUs.
pub fn fat_tree_512() -> Cluster {
    fat_tree("FatTree-512", 4, 16)
}

/// 1024-GPU fat tree: 8 pods x 16 nodes x 8 GPUs.
pub fn fat_tree_1024() -> Cluster {
    fat_tree("FatTree-1024", 8, 16)
}

/// 4096-GPU fat tree: 16 pods x 32 nodes x 8 GPUs.
pub fn fat_tree_4096() -> Cluster {
    fat_tree("FatTree-4096", 16, 32)
}

/// 8192-GPU fat tree: 32 pods x 32 nodes x 8 GPUs.
pub fn fat_tree_8192() -> Cluster {
    fat_tree("FatTree-8192", 32, 32)
}

/// 16384-GPU fat tree: 64 pods x 32 nodes x 8 GPUs.
pub fn fat_tree_16384() -> Cluster {
    fat_tree("FatTree-16384", 64, 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;

    #[test]
    fn table2_shapes() {
        assert_eq!(system_i().n_devices(), 8);
        assert_eq!(system_i().n_nodes(), 1);
        assert_eq!(system_ii().n_devices(), 8);
        assert_eq!(system_iii().n_devices(), 64);
        assert_eq!(system_iii().n_nodes(), 16);
        assert_eq!(system_iv().n_devices(), 64);
        assert_eq!(system_iv().n_nodes(), 64);
    }

    #[test]
    fn system_i_fully_connected() {
        let c = system_i();
        let all: Vec<usize> = (0..8).collect();
        assert!(c.fully_nvlinked(&all));
    }

    #[test]
    fn system_ii_adjacent_only() {
        let c = system_ii();
        assert_eq!(c.link(0, 1).kind, LinkKind::NvLink);
        assert_eq!(c.link(6, 7).kind, LinkKind::NvLink);
        assert_eq!(c.link(0, 2).kind, LinkKind::Pcie);
        assert_eq!(c.link(1, 7).kind, LinkKind::Pcie);
        assert!(!c.fully_nvlinked(&(0..8).collect::<Vec<_>>()));
        assert!(c.fully_nvlinked(&[4, 5]));
    }

    #[test]
    fn system_iii_cross_node_is_ib() {
        let c = system_iii();
        assert_eq!(c.link(0, 4).kind, LinkKind::InfiniBandHdr);
        assert_eq!(c.link(0, 3).kind, LinkKind::NvLink);
    }

    #[test]
    fn system_iv_all_cross_node() {
        let c = system_iv();
        assert_eq!(c.link(0, 1).kind, LinkKind::Aries);
        assert_eq!(c.gpu(0).name, "P100-16GB");
    }

    #[test]
    fn fat_tree_shapes_and_tiers() {
        let c = fat_tree_512();
        assert_eq!(c.n_devices(), 512);
        assert_eq!(c.n_nodes(), 64);
        assert_eq!(c.n_pods(), 4);
        // same node: NVLink fallback (no quadratic explicit table)
        assert_eq!(c.link(0, 7).kind, LinkKind::NvLink);
        // same pod, different node: full-rate IB
        let ib = Link::infiniband_hdr();
        assert_eq!(c.link(0, 8).kind, LinkKind::InfiniBandHdr);
        assert_eq!(c.link(0, 8).bandwidth, ib.bandwidth);
        // cross-pod: half bandwidth, triple latency
        let uplink = c.link(0, 511);
        assert_eq!(uplink.bandwidth, ib.bandwidth / 2.0);
        assert_eq!(uplink.latency, ib.latency * 3.0);
        assert_eq!(fat_tree_1024().n_devices(), 1024);
        assert_eq!(fat_tree_4096().n_devices(), 4096);
        assert_eq!(fat_tree_4096().n_pods(), 16);
        assert_eq!(fat_tree_8192().n_devices(), 8192);
        assert_eq!(fat_tree_16384().n_devices(), 16384);
        assert_eq!(fat_tree_16384().n_pods(), 64);
    }

    #[test]
    fn memory_capacities_match_table2() {
        assert_eq!(system_i().gpu(0).memory_bytes, 80 << 30);
        assert_eq!(system_iii().gpu(0).memory_bytes, 40 << 30);
        assert_eq!(system_iv().gpu(0).memory_bytes, 16 << 30);
    }
}
