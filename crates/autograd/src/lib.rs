//! # colossalai-autograd
//!
//! Module-style automatic differentiation over `colossalai-tensor`: layers
//! with explicit forward/backward and cached activations, trainable
//! parameters, activation checkpointing, optimizers (SGD / AdamW), and a
//! finite-difference gradient checker.
//!
//! The explicit-cache design (instead of a dynamic tape) mirrors how
//! Megatron-LM and Colossal-AI structure tensor-parallel layers: distributed
//! variants in `colossalai-parallel` implement the same [`layer::Layer`]
//! shape with collectives interleaved into forward/backward, and activation
//! checkpointing is a wrapper that drops caches and recomputes.

pub mod act;
pub mod attention;
pub mod checkpoint;
pub mod dropout;
pub mod embedding;
pub mod layer;
pub mod linear;
pub mod lr;
pub mod norm;
pub mod optim;
pub mod param;
pub mod state;

pub use act::{Gelu, Relu};
pub use attention::{merge_heads, split_heads, AttentionCore, LocalAttention, MultiHeadAttention};
pub use checkpoint::Checkpoint;
pub use dropout::Dropout;
pub use embedding::{Embedding, PositionEmbedding};
pub use layer::{grad_check, Layer, Sequential};
pub use linear::Linear;
pub use lr::LrSchedule;
pub use norm::LayerNorm;
pub use optim::{adamw_update, sgd_momentum_update, AdamState, AdamW, Sgd};
pub use param::Param;
pub use state::StateDict;
