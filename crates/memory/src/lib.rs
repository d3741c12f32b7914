//! # colossalai-memory
//!
//! Placement planning for the Colossal-AI reproduction. It holds no
//! parameters and meters no allocations: the one parameter store is
//! `colossalai_parallel::zero`'s bucket store, and [`offload`] plans where
//! its shards live — DeepSpeed-static vs Colossal-adaptive placement for
//! ZeRO-offload training (Fig 14), and the one model of PCIe movement.
//! Fig 6's fp16 parameter/gradient storage reuse is accounted in
//! [`ModelData::fp16_shard_bytes`]. The Fig 8 and Fig 12 memory numbers are
//! `colossalai_parallel::memcalc`'s closed forms.

pub mod offload;

pub use offload::{plan, ModelData, OffloadPlan, PlacementPolicy};
