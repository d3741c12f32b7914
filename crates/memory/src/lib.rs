//! # colossalai-memory
//!
//! Device-memory accounting and placement planning for the Colossal-AI
//! reproduction. It holds no parameters: the one parameter store is
//! `colossalai_parallel::zero`'s bucket store, and [`offload`] plans where
//! its shards live.
//!
//! * [`tracker`] — live/peak byte accounting with OOM detection (the
//!   instrument behind Fig 8's range tests and Fig 12's max-batch search);
//! * [`offload`] — DeepSpeed-static vs Colossal-adaptive placement planning
//!   for ZeRO-offload training (Fig 14), and the one model of PCIe
//!   movement; Fig 6's fp16 parameter/gradient storage reuse is accounted
//!   in [`ModelData::fp16_shard_bytes`].

pub mod offload;
pub mod tracker;

pub use offload::{plan, ModelData, OffloadPlan, PlacementPolicy};
pub use tracker::MemoryTracker;
