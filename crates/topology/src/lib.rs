//! # colossalai-topology
//!
//! Hardware model of the four experimental systems in Table 2 of the
//! Colossal-AI paper: GPU specs, host (CPU + DRAM) specs, a link-level
//! interconnect graph (NVLink / PCIe / InfiniBand HDR / Cray Aries), the
//! alpha-beta collective cost model, and bandwidth probes reproducing the
//! NCCL bandwidth test of Fig 10.
//!
//! This crate is pure data + arithmetic — it never spawns threads. The
//! `colossalai-comm` crate consumes it to charge virtual time to real
//! (thread-backed) collectives.

pub mod bandwidth;
pub mod cluster;
pub mod cost;
pub mod device;
pub mod link;
pub mod systems;

pub use cluster::Cluster;
pub use cost::AllReduceAlgo;
pub use device::{DeviceId, GpuSpec, HostSpec};
pub use link::{Link, LinkKind};
pub use systems::{system_i, system_ii, system_iii, system_iv};
