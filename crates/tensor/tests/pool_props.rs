//! Pool/COW safety properties: storage recycled through the global pool
//! must never alias a live tensor's buffer, and copy-on-write semantics
//! survive recycling (`shares_storage` stays false once detached).

use colossalai_tensor::{init, pool, Tensor};
use rand::Rng;

#[test]
fn recycled_storage_never_aliases_live_tensors() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let n = draw.gen_range(1usize..4096);
        let seed = draw.gen_range(0u64..1000);
        let mut rng = init::rng(seed);
        let live = init::uniform([n], -1.0, 1.0, &mut rng);
        let snapshot = live.data().to_vec();
        // create + drop a same-size tensor: its storage re-parks in the pool
        drop(live.map(|v| v + 1.0));
        // a pooled draw must not hand back the live tensor's buffer
        let mut fresh = Tensor::zeros([n]);
        assert!(!fresh.shares_storage(&live));
        fresh.data_mut().fill(7.0);
        assert_eq!(live.data(), &snapshot[..]);
    }
}

#[test]
fn clone_drop_does_not_recycle_shared_storage() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let n = draw.gen_range(1usize..2048);
        let seed = draw.gen_range(0u64..1000);
        let mut rng = init::rng(seed);
        let a = init::uniform([n], -1.0, 1.0, &mut rng);
        let b = a.clone();
        assert!(b.shares_storage(&a));
        let live_ptr = a.data().as_ptr();
        // `a` still owns the storage, so dropping the clone must NOT park
        // the buffer in the pool
        drop(b);
        let buf = pool::take_buffer(n);
        assert!(buf.as_ptr() != live_ptr);
        pool::recycle(buf);
        assert_eq!(a.numel(), n);
    }
}

#[test]
fn cow_detach_then_recycle_keeps_tensors_independent() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..8);
        let cols = draw.gen_range(1usize..128);
        let seed = draw.gen_range(0u64..1000);
        let mut rng = init::rng(seed);
        let a = init::uniform([rows, cols], -1.0, 1.0, &mut rng);
        let mut b = a.clone();
        b.data_mut()[0] += 1.0; // COW detach
        assert!(!b.shares_storage(&a));
        let a_snap = a.data().to_vec();
        drop(b); // b's detached storage recycles
                 // the next same-size tensor may reuse b's old buffer; scribbling on
                 // it must never reach `a`
        let mut c = Tensor::zeros([rows, cols]);
        assert!(!c.shares_storage(&a));
        c.data_mut().fill(42.0);
        assert_eq!(a.data(), &a_snap[..]);
    }
}

#[test]
fn pooled_zeroed_buffers_are_clean() {
    for case in 0..64 {
        let mut draw = init::rng(case);
        let n = draw.gen_range(1usize..4096);
        let seed = draw.gen_range(0u64..1000);
        let mut rng = init::rng(seed);
        // park a dirty buffer of the right class
        drop(init::uniform([n], -1.0, 1.0, &mut rng));
        let z = Tensor::zeros([n]);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }
}
