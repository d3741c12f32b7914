//! The cluster: devices, their node placement, and the link graph.

use crate::device::{DeviceId, GpuSpec, HostSpec};
use crate::link::{Link, LinkKind};
use serde::{Deserialize, Serialize};

/// A multi-node GPU cluster with an explicit link-level interconnect model.
///
/// Link resolution between two distinct devices `a != b`:
/// 1. an explicit entry in the link table, if present (e.g. System II's
///    NVLink bridges between adjacent pairs);
/// 2. otherwise, the node-local fallback (PCIe) when `a` and `b` share a
///    node;
/// 3. otherwise, the cross-node interconnect (InfiniBand / Aries / ...)
///    when `a` and `b` share a pod (or no pod tier is configured);
/// 4. otherwise, the cross-pod uplink of the fat-tree tier (see
///    [`Cluster::set_pods`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cluster {
    name: String,
    gpus: Vec<GpuSpec>,
    node_of: Vec<usize>,
    host: HostSpec,
    /// Sparse explicit links keyed by unordered pair (a < b), kept sorted
    /// by key for binary-search resolution.
    explicit: Vec<((DeviceId, DeviceId), Link)>,
    intra_node_fallback: Link,
    cross_node: Link,
    /// GPU <-> host-DRAM channel (offload path).
    host_link: Link,
    /// Pod index per node (fat-tree tier). Empty = single flat pod; older
    /// serialized clusters deserialize to that.
    #[serde(default)]
    pod_of_node: Vec<usize>,
    /// Link for pairs in different pods; `None` falls back to `cross_node`.
    #[serde(default)]
    cross_pod: Option<Link>,
}

impl Cluster {
    /// Builds a homogeneous cluster: `nodes * gpus_per_node` identical GPUs.
    pub fn homogeneous(
        name: impl Into<String>,
        nodes: usize,
        gpus_per_node: usize,
        gpu: GpuSpec,
        host: HostSpec,
        cross_node: Link,
    ) -> Self {
        assert!(nodes > 0 && gpus_per_node > 0, "empty cluster");
        let n = nodes * gpus_per_node;
        Cluster {
            name: name.into(),
            gpus: vec![gpu; n],
            node_of: (0..n).map(|d| d / gpus_per_node).collect(),
            host,
            explicit: Vec::new(),
            intra_node_fallback: Link::pcie(),
            cross_node,
            host_link: Link::pcie(),
            pod_of_node: Vec::new(),
            cross_pod: None,
        }
    }

    /// Human-readable name ("System I", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of GPUs.
    pub fn n_devices(&self) -> usize {
        self.gpus.len()
    }

    /// Number of distinct nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_of.iter().max().map_or(0, |&m| m + 1)
    }

    /// Spec of device `d`.
    pub fn gpu(&self, d: DeviceId) -> &GpuSpec {
        &self.gpus[d]
    }

    /// Node index hosting device `d`.
    pub fn node(&self, d: DeviceId) -> usize {
        self.node_of[d]
    }

    /// Host (CPU + DRAM) spec shared by all nodes.
    pub fn host(&self) -> &HostSpec {
        &self.host
    }

    /// GPU <-> host DRAM channel.
    pub fn host_link(&self) -> Link {
        self.host_link
    }

    /// Registers an explicit bidirectional link between `a` and `b`.
    pub fn add_link(&mut self, a: DeviceId, b: DeviceId, link: Link) {
        assert!(a != b, "self-link");
        assert!(
            a < self.n_devices() && b < self.n_devices(),
            "device out of range"
        );
        let key = (a.min(b), a.max(b));
        match self.explicit.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.explicit[i].1 = link,
            Err(i) => self.explicit.insert(i, (key, link)),
        }
    }

    /// Connects every intra-node pair with `link` (full-mesh NVLink).
    pub fn full_mesh_intra_node(&mut self, link: Link) {
        let n = self.n_devices();
        for a in 0..n {
            for b in (a + 1)..n {
                if self.node_of[a] == self.node_of[b] {
                    self.add_link(a, b, link);
                }
            }
        }
    }

    /// Sets the intra-node fallback for pairs with no explicit link.
    pub fn set_intra_node_fallback(&mut self, link: Link) {
        self.intra_node_fallback = link;
    }

    /// Groups nodes into pods of `nodes_per_pod` consecutive nodes and sets
    /// the cross-pod uplink (the thin top tier of a fat tree). Traffic
    /// between nodes of one pod keeps using the `cross_node` link; only
    /// pairs crossing a pod boundary pay `cross_pod`. This models
    /// 512–4096-GPU clusters without materializing any O(n²) link table.
    pub fn set_pods(&mut self, nodes_per_pod: usize, cross_pod: Link) {
        assert!(nodes_per_pod > 0, "empty pod");
        self.pod_of_node = (0..self.n_nodes()).map(|n| n / nodes_per_pod).collect();
        self.cross_pod = Some(cross_pod);
    }

    /// Pod index hosting device `d` (0 when no pod tier is configured).
    fn pod(&self, d: DeviceId) -> usize {
        self.pod_of_node.get(self.node_of[d]).copied().unwrap_or(0)
    }

    /// Number of distinct pods (1 when no pod tier is configured).
    pub fn n_pods(&self) -> usize {
        self.pod_of_node.iter().max().map_or(1, |&m| m + 1)
    }

    /// The link used for traffic between devices `a` and `b`.
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Link {
        assert!(a != b, "link() between a device and itself");
        let key = (a.min(b), a.max(b));
        if let Ok(i) = self.explicit.binary_search_by_key(&key, |&(k, _)| k) {
            return self.explicit[i].1;
        }
        if self.node_of[a] == self.node_of[b] {
            self.intra_node_fallback
        } else if self.pod(a) == self.pod(b) {
            self.cross_node
        } else {
            self.cross_pod.unwrap_or(self.cross_node)
        }
    }

    /// Seconds to move `bytes` from `a` to `b` point-to-point.
    pub fn p2p_time(&self, a: DeviceId, b: DeviceId, bytes: u64) -> f64 {
        if a == b {
            0.0
        } else {
            self.link(a, b).transfer_time(bytes)
        }
    }

    /// Minimum link bandwidth over the ring `group[0] -> group[1] -> ... ->
    /// group[0]`: the bottleneck that governs ring-collective throughput.
    pub fn ring_bottleneck(&self, group: &[DeviceId]) -> Link {
        assert!(group.len() >= 2, "ring of fewer than 2 devices");
        let mut worst = self.link(group[0], group[1]);
        for i in 0..group.len() {
            let l = self.link(group[i], group[(i + 1) % group.len()]);
            if l.bandwidth < worst.bandwidth {
                worst = l;
            }
        }
        worst
    }

    /// True when every pair in `group` enjoys an NVLink-class connection —
    /// the "fully connected NVLink" property that favors 1D tensor
    /// parallelism (Fig 9a).
    pub fn fully_nvlinked(&self, group: &[DeviceId]) -> bool {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                if self.link(a, b).kind != LinkKind::NvLink {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_cluster() -> Cluster {
        Cluster::homogeneous(
            "test",
            2,
            4,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        )
    }

    #[test]
    fn shape_of_homogeneous_cluster() {
        let c = two_node_cluster();
        assert_eq!(c.n_devices(), 8);
        assert_eq!(c.n_nodes(), 2);
        assert_eq!(c.node(0), 0);
        assert_eq!(c.node(3), 0);
        assert_eq!(c.node(4), 1);
    }

    #[test]
    fn link_resolution_order() {
        let mut c = two_node_cluster();
        // intra-node default = PCIe
        assert_eq!(c.link(0, 1).kind, LinkKind::Pcie);
        // cross-node = IB
        assert_eq!(c.link(0, 4).kind, LinkKind::InfiniBandHdr);
        // explicit overrides
        c.add_link(0, 1, Link::nvlink());
        assert_eq!(c.link(0, 1).kind, LinkKind::NvLink);
        assert_eq!(c.link(1, 0).kind, LinkKind::NvLink, "links are symmetric");
    }

    #[test]
    fn full_mesh_only_intra_node() {
        let mut c = two_node_cluster();
        c.full_mesh_intra_node(Link::nvlink());
        assert_eq!(c.link(0, 3).kind, LinkKind::NvLink);
        assert_eq!(c.link(3, 4).kind, LinkKind::InfiniBandHdr);
        assert!(c.fully_nvlinked(&[0, 1, 2, 3]));
        assert!(!c.fully_nvlinked(&[2, 3, 4]));
    }

    #[test]
    fn ring_bottleneck_finds_weakest_link() {
        let mut c = two_node_cluster();
        c.full_mesh_intra_node(Link::nvlink());
        // ring confined to one node: NVLink
        assert_eq!(c.ring_bottleneck(&[0, 1, 2, 3]).kind, LinkKind::NvLink);
        // ring spanning nodes: bottleneck is IB
        assert_eq!(
            c.ring_bottleneck(&[2, 3, 4, 5]).kind,
            LinkKind::InfiniBandHdr
        );
    }

    #[test]
    fn pod_tier_resolves_after_node_tier() {
        let mut c = Cluster::homogeneous(
            "pods",
            8,
            2,
            GpuSpec::a100(40),
            HostSpec::workstation(),
            Link::infiniband_hdr(),
        );
        // no pod tier yet: everything cross-node is IB
        assert_eq!(c.link(0, 15).kind, LinkKind::InfiniBandHdr);
        assert_eq!(c.n_pods(), 1);
        c.set_pods(4, Link::aries());
        assert_eq!(c.n_pods(), 2);
        assert_eq!(c.pod(0), 0);
        assert_eq!(c.pod(7), 0, "device 7 is node 3, pod 0");
        assert_eq!(c.pod(8), 1, "device 8 is node 4, pod 1");
        // same node: PCIe fallback; same pod: IB; cross pod: Aries uplink
        assert_eq!(c.link(0, 1).kind, LinkKind::Pcie);
        assert_eq!(c.link(0, 7).kind, LinkKind::InfiniBandHdr);
        assert_eq!(c.link(0, 8).kind, LinkKind::Aries);
        // explicit links still win over every tier
        c.add_link(0, 8, Link::nvlink());
        assert_eq!(c.link(8, 0).kind, LinkKind::NvLink);
    }

    #[test]
    fn explicit_table_stays_sorted_under_any_insert_order() {
        let mut c = two_node_cluster();
        c.add_link(5, 6, Link::nvlink());
        c.add_link(0, 1, Link::nvlink());
        c.add_link(3, 2, Link::aries());
        c.add_link(2, 3, Link::nvlink()); // overwrite, not duplicate
        assert_eq!(c.link(2, 3).kind, LinkKind::NvLink);
        assert_eq!(c.link(0, 1).kind, LinkKind::NvLink);
        assert_eq!(c.link(6, 5).kind, LinkKind::NvLink);
        assert_eq!(
            c.link(0, 2).kind,
            LinkKind::Pcie,
            "unlisted pair falls back"
        );
    }

    #[test]
    fn p2p_zero_for_self() {
        let c = two_node_cluster();
        assert_eq!(c.p2p_time(2, 2, 1 << 20), 0.0);
        assert!(c.p2p_time(0, 1, 1 << 20) > 0.0);
    }
}
