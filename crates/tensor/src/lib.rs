//! # colossalai-tensor
//!
//! Dense n-dimensional `f32` tensors and the numeric kernels every other
//! crate in the Colossal-AI reproduction builds on: blocked matmul, batched
//! matmul, softmax/layernorm/GELU with analytic backward passes, seeded
//! initializers, and a software IEEE binary16 type for mixed-precision
//! storage emulation.
//!
//! Design choices:
//! * tensors are contiguous and row-major with copy-on-write storage —
//!   clones and contiguous views share one allocation and any mutation
//!   path unshares first, so value semantics are preserved while
//!   broadcast-style fan-out of one buffer to many simulated devices stays
//!   O(1) per rank and a parameter can be a region of a gathered bucket;
//! * shape errors panic (like `ndarray`), since they are programming errors
//!   in a training system, not recoverable conditions;
//! * all randomness is seeded ChaCha8 so parallel-vs-serial equivalence tests
//!   can construct identical global parameters;
//! * real arithmetic runs on a packed, register-blocked GEMM core (see
//!   [`kernel`]); every kernel runs on the calling rank's thread — the
//!   world executor is the only owner of host cores, and results carry no
//!   dependence on how many of them there are;
//! * an opt-in **fast numeric mode** ([`set_fast_mode`], `compute.fast` in
//!   the engine config) swaps the deterministic mul-then-add kernels for
//!   FMA-fused ones; results then differ from the default mode by documented
//!   ULP budgets but remain deterministic across backends within the mode
//!   (see DESIGN.md §13);
//! * nothing here reads the process environment: that setter is the only
//!   runtime knob, and it defaults to the deterministic path (fast off).

pub mod f16;
pub mod init;
pub mod kernel;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod pool;
pub mod shape;
pub mod tensor;

pub use f16::F16;
pub use kernel::{fast_mode, fma_available, set_fast_mode};
pub use matmul::{
    bmm, bmm_at, bmm_bt, gemm, matmul, matmul_at, matmul_at_acc, matmul_bt, matmul_nd,
};
pub use par::ParStats;
pub use pool::PoolStats;
pub use shape::Shape;
pub use tensor::{axpy_slices, scale_slice, Tensor};
