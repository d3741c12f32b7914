//! # colossalai-core
//!
//! The unified user-facing system of the Colossal-AI paper (Fig 1): a
//! declarative [`config::Config`] schema, the [`context::ParallelContext`]
//! that carves devices into data/pipeline/tensor axes, the
//! [`engine::initialize`] entry point producing a training [`engine::Engine`]
//! (Listing 1's workflow), a [`trainer::Trainer`] with life-cycle hooks,
//! and automatic mixed precision with dynamic loss scaling ([`amp`]).

pub mod amp;
pub mod config;
pub mod context;
pub mod engine;
pub mod trainer;
pub mod zoo;

pub use amp::GradScaler;
pub use config::{CommConfig, ComputeConfig, Config};
pub use context::{ParallelAxis, ParallelContext};
pub use engine::{clip_grad_norm, clip_grad_norm_distributed, initialize, Engine, OptimizerSpec};
pub use trainer::{Hook, LossRecorder, Trainer};
pub use zoo::{build_bert, build_gpt, build_vit, check_model, tensor_parallel, ZooModel};
