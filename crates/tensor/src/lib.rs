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
//!   clones share one allocation and any mutation path unshares first, so
//!   value semantics are preserved while broadcast-style fan-out of one
//!   buffer to many simulated devices stays O(1) per rank;
//! * shape errors panic (like `ndarray`), since they are programming errors
//!   in a training system, not recoverable conditions;
//! * all randomness is seeded ChaCha8 so parallel-vs-serial equivalence tests
//!   can construct identical global parameters;
//! * real arithmetic runs on a packed, register-blocked GEMM core (see
//!   [`kernel`]) with an opt-in thread budget ([`set_kernel_threads`]);
//! * intra-op parallelism (GEMM row panels, element-wise sweeps, row-wise
//!   normalizations) executes on a persistent deterministic worker pool
//!   (see [`par`]) whose partitions depend only on `(len, budget)` — results
//!   are bitwise-identical to serial at any thread count;
//! * an opt-in **fast numeric mode** ([`set_fast_mode`], `compute.fast` in
//!   the engine config) swaps the deterministic mul-then-add kernels for
//!   FMA-fused ones; results then differ from the default mode by documented
//!   ULP budgets but remain deterministic across thread counts and backends
//!   within the mode (see DESIGN.md §13);
//! * nothing here reads the process environment: the two setters above are
//!   the only runtime knobs, and both default to the deterministic serial
//!   path (budget 1, fast off).

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
pub use kernel::{fast_mode, fma_available, kernel_threads, set_fast_mode, set_kernel_threads};
pub use matmul::{
    bmm, bmm_at, bmm_bt, gemm, matmul, matmul_at, matmul_at_acc, matmul_bt, matmul_nd,
};
pub use par::ParStats;
pub use pool::PoolStats;
pub use shape::Shape;
pub use tensor::{axpy_slices, scale_slice, Tensor};
