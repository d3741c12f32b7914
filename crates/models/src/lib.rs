//! # colossalai-models
//!
//! The model zoo of the reproduction: a runnable Transformer block
//! (Fig 2), Vision Transformer, BERT and GPT at test scale, deterministic
//! synthetic datasets standing in for ImageNet-1k / Wikipedia, and the
//! analytic parameter / FLOPs / activation-memory calculators used to size
//! the paper-scale experiments (Figs 8, 11-14, Table 3).

pub mod bert;
pub mod config;
pub mod data;
pub mod gpt;
pub mod parallel;
pub mod transformer;
pub mod vit;

pub use bert::Bert;
pub use config::TransformerConfig;
pub use data::{SyntheticText, SyntheticVision};
pub use gpt::Gpt;
pub use parallel::{Layout, Serial, TensorParallel};
pub use transformer::{Residual, TransformerBlock};
pub use vit::VisionTransformer;
