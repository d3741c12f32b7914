//! # colossalai-tensor
//!
//! Dense n-dimensional `f32` tensors and the numeric kernels every other
//! crate in the Colossal-AI reproduction builds on: blocked matmul, batched
//! matmul, softmax/layernorm/GELU with analytic backward passes and seeded
//! initializers.
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
//! * every kernel has one arithmetic — plain multiply-then-add in a fixed
//!   order, no fused multiply-add — so scalar and vector lanes, fused and
//!   composed ops, and every size dispatch agree bit for bit (DESIGN.md §13
//!   records the retired FMA mode). The one exception is explicit: the
//!   ports of libm's `logf` / `cosf` behind `init::normal` fuse a
//!   multiply-add where glibc's FMA builds do, rounding once on every lane
//!   arm;
//! * nothing here reads the process environment, and there is no numeric
//!   knob to set.

pub mod init;
pub mod kernel;
mod libm;
pub mod matmul;
pub mod meter;
pub mod ops;
pub mod par;
pub mod pool;
pub mod shape;
pub mod tensor;

pub use kernel::fma_available;
pub use matmul::{
    bmm, bmm_at, bmm_bt, gemm, matmul, matmul_at, matmul_at_acc, matmul_at_store, matmul_bt,
    matmul_nd,
};
pub use par::ParStats;
pub use pool::PoolStats;
pub use shape::Shape;
pub use tensor::{axpy_slices, scale_slice, Tensor};
