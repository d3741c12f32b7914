//! # colossalai-parallel
//!
//! The parallel training algorithms of the Colossal-AI paper, implemented
//! over the thread-backed simulated cluster:
//!
//! * [`tp1d`] — Megatron-LM 1D tensor parallelism (the baseline);
//! * [`tp2d`] — 2D tensor parallelism (SUMMA);
//! * [`tp25d`] — 2.5D tensor parallelism (Solomonik–Demmel style depth);
//! * [`tp3d`] — 3D tensor parallelism (Agarwal);
//! * [`mesh`] — 2D / 2.5D / 3D as one mode of the model definitions;
//! * [`sequence`] — sequence parallelism with Ring Self-Attention;
//! * [`grad_sync`] — gradient sums across replicas that saw different rows;
//! * [`data_parallel`] — the batch split and flat views of a replica;
//! * [`bucket`] — the gradient reducer: bucketed, backward-overlapped
//!   reduction for data parallelism and every ZeRO stage;
//! * [`zero`] — the Zero Redundancy Optimizer, stages 1-3;
//! * [`pipeline`] — GPipe and 1F1B pipeline schedules;
//! * [`vocab_parallel`] — Megatron vocabulary-parallel embedding + the
//!   gather-free parallel cross-entropy;
//! * [`norm2d`] — LayerNorm over a sharded hidden axis;
//! * [`timed`] — a layer wrapper charging modeled compute time;
//! * [`auto`] — the experimental automatic parallelization of Section 3.3;
//! * [`volume`] — the closed-form communication volumes of Table 1 / Fig 5;
//! * [`memcalc`] — per-mode memory footprints behind Figs 8 and 12;
//! * [`throughput`] — step-time estimation at paper scale (Figs 11, 13, 14,
//!   Table 3).
//!
//! There are no parallel model definitions here: `colossalai-models` writes
//! the Transformer block, ViT, GPT and BERT once against its
//! `TensorParallel` seam, and [`TensorParallel1d`], [`MeshParallel`] and
//! [`SequenceParallel`] are the modes this crate plugs into it.

pub mod auto;
pub mod bucket;
pub mod data_parallel;
pub mod grad_sync;
pub mod memcalc;
pub mod mesh;
pub mod norm2d;
pub mod pipeline;
pub mod sequence;
pub mod throughput;
pub mod timed;
pub mod tp1d;
pub mod tp25d;
pub mod tp2d;
pub mod tp3d;
pub mod vocab_parallel;
pub mod volume;
pub mod zero;

pub use bucket::{Bucket, BucketPlan, GradReducer, DEFAULT_BUCKET_BYTES};
pub use data_parallel::split_batch;
pub use grad_sync::GradSync;
pub use mesh::MeshParallel;
pub use norm2d::LayerNorm2d;
pub use pipeline::{PipelineStage, Schedule};
pub use sequence::{RingSelfAttention, SequenceParallel};
pub use throughput::StepEstimate;
pub use timed::TimedLayer;
pub use tp1d::{ColumnParallelLinear, RowParallelLinear, TensorParallel1d};
pub use tp25d::{Grid25d, Linear25d};
pub use tp2d::{Grid2d, Linear2d};
pub use tp3d::{Grid3d, Linear3d};
pub use vocab_parallel::{vocab_parallel_cross_entropy, VocabParallelEmbedding};
pub use volume::{MatmulShape, TpMode};
pub use zero::{ZeroOptimizer, ZeroStage};
