//! The pool's parked-bytes gauge under concurrent take / recycle / clear.
//!
//! One test in a file of its own: the pool is process-global, so "the gauge
//! equals what is actually parked" can only be checked where no other test
//! is using it.

use colossalai_tensor::pool;

/// The pool's (private) total byte cap: the gauge may never read above it.
const TOTAL_BYTE_CAP: usize = 1 << 30;

/// Request sizes in four different size classes.
const SIZES: [usize; 4] = [100, 1_000, 5_000, 70_000];

#[test]
fn gauge_matches_parked_bytes_under_concurrent_take_recycle_clear() {
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                for i in 0..50_000usize {
                    // two buffers in flight so a class alternates between
                    // parked and empty under the other threads' feet
                    let a = pool::take_buffer(SIZES[(i + t) % SIZES.len()]);
                    let b = pool::take_buffer(SIZES[i % SIZES.len()]);
                    pool::recycle(a);
                    pool::recycle(b);
                    if t == 0 && i % 64 == 0 {
                        pool::clear();
                    }
                    let pooled = pool::stats().pooled_bytes;
                    assert!(pooled <= TOTAL_BYTE_CAP, "gauge out of range: {pooled}");
                }
            });
        }
    });
    // quiescent: drain every class the threads used, counting what really
    // comes out (a take that is not a hit found the class empty)
    let gauge = pool::stats().pooled_bytes;
    let mut parked = 0;
    for n in SIZES {
        loop {
            let hits = pool::stats().hits;
            let buf = pool::take_buffer(n);
            if pool::stats().hits == hits {
                break;
            }
            parked += buf.capacity() * 4;
        }
    }
    assert_eq!(gauge, parked, "gauge vs bytes actually parked");
    assert_eq!(pool::stats().pooled_bytes, 0, "gauge after draining");
}
