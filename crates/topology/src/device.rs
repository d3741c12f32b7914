//! Accelerator and host device specifications.

use serde::{Deserialize, Serialize};

/// Identifier of a device within a cluster (dense, 0-based).
pub type DeviceId = usize;

/// Static specification of one GPU model.
///
/// `sustained_fraction` converts peak datasheet FLOP/s into the sustained
/// rate a dense transformer workload actually achieves (model FLOPs
/// utilization); the paper's throughput numbers imply ~35-45% on A100 and
/// ~30% on P100, so these presets use values in that range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. "A100-80GB".
    pub name: String,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Peak FP32 throughput in FLOP/s.
    pub peak_flops_f32: f64,
    /// Peak FP16 (tensor-core) throughput in FLOP/s.
    pub peak_flops_f16: f64,
    /// Fraction of peak a real training kernel sustains (0 < f <= 1).
    pub sustained_fraction: f64,
}

impl GpuSpec {
    /// Nvidia A100 with the given memory size in GiB (40 or 80 in the paper).
    pub fn a100(mem_gib: u64) -> Self {
        GpuSpec {
            name: format!("A100-{mem_gib}GB"),
            memory_bytes: mem_gib * (1 << 30),
            peak_flops_f32: 19.5e12,
            peak_flops_f16: 312e12,
            sustained_fraction: 0.40,
        }
    }

    /// Nvidia P100 16 GB (System IV).
    pub fn p100() -> Self {
        GpuSpec {
            name: "P100-16GB".to_string(),
            memory_bytes: 16 * (1 << 30),
            peak_flops_f32: 9.3e12,
            peak_flops_f16: 18.7e12,
            sustained_fraction: 0.30,
        }
    }

    /// Seconds to execute `flops` floating-point operations in FP32.
    pub fn compute_time_f32(&self, flops: u64) -> f64 {
        flops as f64 / (self.peak_flops_f32 * self.sustained_fraction)
    }

    /// Seconds to execute `flops` floating-point operations in FP16.
    pub fn compute_time_f16(&self, flops: u64) -> f64 {
        flops as f64 / (self.peak_flops_f16 * self.sustained_fraction)
    }
}

/// Host (CPU + DRAM) attached to a node: the offload target of Section 2.4 /
/// 3.2.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// CPU DRAM in bytes.
    pub dram_bytes: u64,
    /// Sustained CPU throughput for optimizer math, FLOP/s.
    pub cpu_flops: f64,
}

impl HostSpec {
    /// A DGX-class host: 1 TiB DRAM.
    pub fn dgx() -> Self {
        HostSpec {
            dram_bytes: 1 << 40,
            cpu_flops: 2.0e12,
        }
    }

    /// A modest host: 256 GiB DRAM.
    pub fn workstation() -> Self {
        HostSpec {
            dram_bytes: 256 * (1 << 30),
            cpu_flops: 1.0e12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_spec() {
        let g = GpuSpec::a100(80);
        assert_eq!(g.memory_bytes, 80 * (1 << 30));
        assert_eq!(g.name, "A100-80GB");
    }

    #[test]
    fn compute_time_scales_linearly() {
        let g = GpuSpec::a100(40);
        let t1 = g.compute_time_f32(1_000_000_000);
        let t2 = g.compute_time_f32(2_000_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        // fp16 is faster than fp32 on tensor cores
        assert!(g.compute_time_f16(1 << 30) < g.compute_time_f32(1 << 30));
    }

    #[test]
    fn p100_smaller_than_a100() {
        assert!(GpuSpec::p100().memory_bytes < GpuSpec::a100(40).memory_bytes);
        assert!(GpuSpec::p100().peak_flops_f16 < GpuSpec::a100(40).peak_flops_f16);
    }

    #[test]
    fn serde_roundtrip() {
        let g = GpuSpec::a100(80);
        let json = serde_json::to_string(&g).unwrap();
        let back: GpuSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
