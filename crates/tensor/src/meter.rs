//! The compute meter: a per-thread count of the FLOPs the kernels did.
//!
//! [`crate::kernel::gemm_mat`] — the one entry point of every matmul,
//! accumulating matmul and batched matmul — records `2mkn` per call. A
//! simulated rank runs its kernels on its own thread, so the rank that
//! owns the thread [`take`]s the count and prices it on its virtual clock
//! (`DeviceCtx::clock` in `colossalai-comm`). The meter holds FLOPs only:
//! no bytes, no per-kind split, no host time — none of them has a reader.

use std::cell::Cell;

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `flops` to this thread's count.
#[inline]
pub fn record(flops: u64) {
    FLOPS.with(|f| f.set(f.get() + flops));
}

/// This thread's count since the last `take`, which resets it to zero.
#[inline]
pub fn take() -> u64 {
    FLOPS.with(|f| f.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{matmul, matmul_flops};
    use crate::Tensor;

    #[test]
    fn matmul_records_its_flops_on_the_calling_thread() {
        take();
        let _ = matmul(&Tensor::ones([3, 4]), &Tensor::ones([4, 5]));
        assert_eq!(take(), matmul_flops(3, 4, 5));
        assert_eq!(take(), 0, "take resets the count");
        std::thread::spawn(|| {
            let _ = matmul(&Tensor::ones([2, 2]), &Tensor::ones([2, 2]));
        })
        .join()
        .unwrap();
        assert_eq!(take(), 0, "another thread's GEMM is not counted here");
    }
}
