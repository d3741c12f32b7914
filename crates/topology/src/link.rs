//! Interconnect link types and the alpha-beta transfer cost model.

use serde::{Deserialize, Serialize};

/// The physical technology of a link between two devices (or a device and
/// its host). Bandwidths follow the paper's measurements where it reports
/// them (Fig 10) and public datasheets otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Full NVLink connection (NVLink3-class on the paper's A100 systems).
    NvLink,
    /// PCIe path between GPUs that lack a direct NVLink (System II's distant
    /// pairs) or between GPU and host memory.
    Pcie,
    /// InfiniBand HDR (200 Gb/s) between nodes of System III.
    InfiniBandHdr,
    /// Cray Aries ASIC links of System IV.
    Aries,
}

/// A point-to-point link with an alpha-beta cost: transferring `n` bytes
/// costs `latency + n / bandwidth` seconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Link {
    pub kind: LinkKind,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// One-way latency in seconds (the alpha term).
    pub latency: f64,
}

impl Link {
    /// NVLink as measured in Fig 10 on System I: ~184 GB/s pairwise.
    pub fn nvlink() -> Link {
        Link {
            kind: LinkKind::NvLink,
            bandwidth: 184.0e9,
            latency: 5.0e-6,
        }
    }

    /// GPU-to-GPU (or GPU-to-host) over PCIe: ~15 GB/s measured (Fig 10's
    /// collective floor on System II).
    pub fn pcie() -> Link {
        Link {
            kind: LinkKind::Pcie,
            bandwidth: 15.0e9,
            latency: 10.0e-6,
        }
    }

    /// InfiniBand HDR: 200 Gb/s line rate, ~23 GB/s sustained.
    pub fn infiniband_hdr() -> Link {
        Link {
            kind: LinkKind::InfiniBandHdr,
            bandwidth: 23.0e9,
            latency: 2.0e-6,
        }
    }

    /// Cray Aries: ~10 GB/s sustained per peer.
    pub fn aries() -> Link {
        Link {
            kind: LinkKind::Aries,
            bandwidth: 10.0e9,
            latency: 1.5e-6,
        }
    }

    /// Seconds to move `bytes` across this link (alpha + n/B).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Effective bandwidth (bytes/s) achieved for a transfer of `bytes`,
    /// including the latency penalty — what a bandwidth probe reports.
    pub fn effective_bandwidth(&self, bytes: u64) -> f64 {
        bytes as f64 / self.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_technologies() {
        assert!(Link::nvlink().bandwidth > Link::infiniband_hdr().bandwidth);
        assert!(Link::infiniband_hdr().bandwidth > Link::pcie().bandwidth);
        assert!(Link::pcie().bandwidth > Link::aries().bandwidth);
    }

    #[test]
    fn transfer_time_alpha_beta() {
        let l = Link {
            kind: LinkKind::Pcie,
            bandwidth: 1e9,
            latency: 1e-3,
        };
        // 1 GB at 1 GB/s plus 1 ms latency
        assert!((l.transfer_time(1_000_000_000) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn effective_bandwidth_approaches_peak_for_large_messages() {
        let l = Link::nvlink();
        let small = l.effective_bandwidth(1024);
        let large = l.effective_bandwidth(1 << 30);
        assert!(small < large);
        assert!(large / l.bandwidth > 0.99);
    }
}
