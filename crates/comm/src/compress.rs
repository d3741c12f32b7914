//! Lossy gradient-compression channels with error feedback.
//!
//! Three wire formats ride under the bucketed gradient sync: top-k
//! sparsification (send only the `k` largest-magnitude elements per bucket
//! as (index, value) pairs), int8 quantization (1 byte/element at a
//! per-bucket max-abs scale) and fp16 rounding (2 bytes/element). Each is
//! paired with an **error-feedback residual**: whatever the channel did not
//! send this step is carried and added into the next step's gradient, so
//! the compressed trajectory tracks the exact one (EF-SGD).
//!
//! The channels are built so the feedback bookkeeping is *exact*: for every
//! element, `sent + residual == gradient + carried residual` holds bitwise
//! in f32. Top-k sends either the exact value or nothing. For the quantized
//! channels the sent value `s` of an accumulated gradient `a` satisfies
//! `s/2 <= a <= 2s` (round-to-nearest to a coarser grid) or `s == 0`, so by
//! the Sterbenz lemma the subtraction `a - s` is exact. The invariant is
//! asserted in tests and documented in DESIGN.md §8.3.

use crate::group::{Collective, Op, Wire};
use colossalai_tensor::f16::F16;

/// Which lossy channel (if any) a gradient sync sends its buckets through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compression {
    /// Exact f32 gradients — the default.
    None,
    /// Keep only the `k` largest-magnitude elements per bucket (ties break
    /// toward the lower index); the wire carries (u32 index, f32 value)
    /// pairs at [`crate::Wire::IdxVal`] width.
    TopK(usize),
    /// Round-to-nearest int8 at a per-bucket max-abs scale; the wire
    /// carries 1 byte/element ([`crate::Wire::I8`]).
    Int8,
    /// Round-to-nearest-even fp16; the wire carries 2 bytes/element
    /// ([`crate::Wire::F16`]).
    Fp16,
}

impl Compression {
    /// Parses the `comm.compress` spellings:
    /// `none`, `int8`, `fp16`, `topk(k)` with `k >= 1`. Case-insensitive;
    /// anything else is `None` (the caller decides how loudly to reject).
    pub fn parse(s: &str) -> Option<Compression> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "none" => Some(Compression::None),
            "int8" => Some(Compression::Int8),
            "fp16" => Some(Compression::Fp16),
            _ => {
                let inner = s.strip_prefix("topk(")?.strip_suffix(')')?;
                let k = inner.trim().parse::<usize>().ok()?;
                if k == 0 {
                    None
                } else {
                    Some(Compression::TopK(k))
                }
            }
        }
    }

    /// The canonical config spelling of this channel.
    pub fn name(self) -> String {
        match self {
            Compression::None => "none".into(),
            Compression::TopK(k) => format!("topk({k})"),
            Compression::Int8 => "int8".into(),
            Compression::Fp16 => "fp16".into(),
        }
    }

    /// True for every channel that can drop information (needs a residual).
    pub fn is_lossy(self) -> bool {
        self != Compression::None
    }

    /// The wire width this channel's payload crosses the link at.
    pub fn wire(self) -> Wire {
        match self {
            Compression::None => Wire::F32,
            Compression::TopK(_) => Wire::IdxVal,
            Compression::Int8 => Wire::I8,
            Compression::Fp16 => Wire::F16,
        }
    }

    /// The all-reduce that sums this channel's payloads: dense at
    /// [`Compression::wire`] width, or the sparse (index, value) form for
    /// top-k. Main stream; chain [`Collective::on`] to overlap it.
    pub fn all_reduce(self) -> Collective {
        let op = match self {
            Compression::TopK(k) => Op::SparseAllReduce { k },
            _ => Op::AllReduce { max: false },
        };
        Collective::from(op).wire(self.wire())
    }
}

/// Indices of the `k` largest-magnitude elements of `x` (ties break toward
/// the lower index). The *set* is uniquely determined by the total order
/// (|value| desc, index asc), so the selection is deterministic even though
/// the underlying partition is unstable. Returned unsorted.
fn topk_indices(x: &[f32], k: usize) -> Vec<u32> {
    let n = x.len();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    if k == 0 {
        idx.clear();
        return idx;
    }
    if k < n {
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            x[b as usize]
                .abs()
                .total_cmp(&x[a as usize].abs())
                .then(a.cmp(&b))
        });
        idx.truncate(k);
    }
    idx
}

/// Applies `comp`'s lossy channel to this step's accumulated gradient —
/// the raw gradient in `x` plus the carried residual in `res` — leaving
/// the wire payload ("sent") in `x` and the new residual in `res`.
///
/// Per element, with `a = gradient + carried residual` (one f32 add):
/// `x_out + res_out == a` **bitwise** — top-k sends the exact value or
/// nothing, and the quantized channels' round-to-nearest output is within
/// a factor of two of `a` (or exactly zero), making `a - sent` exact by
/// the Sterbenz lemma. Returns the wire elements the channel sends per
/// rank: the dense `x.len()` for the quantized channels, the kept
/// `min(k, len)` (index, value) pairs for top-k.
pub fn compress_with_feedback(comp: Compression, x: &mut [f32], res: &mut [f32]) -> usize {
    assert_eq!(x.len(), res.len(), "residual must mirror the bucket");
    match comp {
        Compression::None => x.len(),
        Compression::Fp16 => {
            for (xi, ri) in x.iter_mut().zip(res.iter_mut()) {
                let a = *xi + *ri;
                let s = F16::from_f32(a).to_f32();
                *xi = s;
                *ri = a - s;
            }
            x.len()
        }
        Compression::Int8 => {
            let mut maxabs = 0.0f32;
            for (xi, ri) in x.iter_mut().zip(res.iter_mut()) {
                *xi += *ri;
                maxabs = maxabs.max(xi.abs());
            }
            if maxabs == 0.0 {
                // nothing to quantize; the residual is fully consumed
                res.fill(0.0);
                return x.len();
            }
            let scale = maxabs / 127.0;
            for (xi, ri) in x.iter_mut().zip(res.iter_mut()) {
                let a = *xi;
                let s = (a / scale).round().clamp(-127.0, 127.0) * scale;
                *xi = s;
                *ri = a - s;
            }
            x.len()
        }
        Compression::TopK(k) => {
            for (xi, ri) in x.iter_mut().zip(res.iter_mut()) {
                *xi += *ri;
            }
            let mut kept = topk_indices(x, k);
            kept.sort_unstable();
            let sent = kept.len();
            let mut next = kept.into_iter().peekable();
            for (i, (xi, ri)) in x.iter_mut().zip(res.iter_mut()).enumerate() {
                if next.peek() == Some(&(i as u32)) {
                    next.next();
                    *ri = 0.0;
                } else {
                    *ri = *xi;
                    *xi = 0.0;
                }
            }
            sent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_spelling() {
        for (s, want) in [
            ("none", Compression::None),
            ("int8", Compression::Int8),
            ("fp16", Compression::Fp16),
            ("topk(32)", Compression::TopK(32)),
            (" TopK( 7 ) ", Compression::TopK(7)),
            ("INT8", Compression::Int8),
        ] {
            assert_eq!(Compression::parse(s), Some(want), "{s:?}");
            assert_eq!(Compression::parse(&want.name()), Some(want));
        }
        for bad in ["", "topk(0)", "topk(-1)", "topk()", "topk", "int4", "fp8"] {
            assert_eq!(Compression::parse(bad), None, "{bad:?}");
        }
    }

    fn wiggly(n: usize) -> Vec<f32> {
        // deterministic, sign-alternating, wide dynamic range
        (0..n)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                s * ((i as f32 * 0.713).sin() * 1.5 + 0.01 * i as f32)
            })
            .collect()
    }

    #[test]
    fn error_feedback_invariant_is_bitwise_for_every_channel() {
        for comp in [Compression::TopK(5), Compression::Int8, Compression::Fp16] {
            let grad = wiggly(97);
            let mut res = wiggly(97);
            for r in res.iter_mut() {
                *r *= 1e-3;
            }
            let carried = res.clone();
            let mut x = grad.clone();
            compress_with_feedback(comp, &mut x, &mut res);
            for i in 0..grad.len() {
                let a = grad[i] + carried[i];
                assert_eq!(
                    x[i] + res[i],
                    a,
                    "{comp:?} element {i}: sent {} + residual {} != accumulated {a}",
                    x[i],
                    res[i]
                );
            }
        }
    }

    #[test]
    fn topk_keeps_exactly_the_largest_magnitudes() {
        let mut x = vec![0.1, -5.0, 0.2, 3.0, -0.3, 4.0, 0.0, -2.0];
        let mut res = vec![0.0; 8];
        let sent = compress_with_feedback(Compression::TopK(3), &mut x, &mut res);
        assert_eq!(sent, 3);
        assert_eq!(x, vec![0.0, -5.0, 0.0, 3.0, 0.0, 4.0, 0.0, 0.0]);
        assert_eq!(res, vec![0.1, 0.0, 0.2, 0.0, -0.3, 0.0, 0.0, -2.0]);
        // k >= len sends everything and leaves no residual
        let mut y = vec![1.0, -2.0];
        let mut r = vec![0.5, 0.5];
        assert_eq!(
            compress_with_feedback(Compression::TopK(10), &mut y, &mut r),
            2
        );
        assert_eq!(y, vec![1.5, -1.5]);
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn topk_ties_break_toward_lower_index() {
        let mut x = vec![2.0, -2.0, 2.0, 1.0];
        let mut res = vec![0.0; 4];
        compress_with_feedback(Compression::TopK(2), &mut x, &mut res);
        assert_eq!(x, vec![2.0, -2.0, 0.0, 0.0]);
    }

    #[test]
    fn int8_quantizes_to_the_shared_grid_and_handles_zero() {
        let mut x = vec![127.0, -63.5, 0.2, 0.0];
        let mut res = vec![0.0; 4];
        compress_with_feedback(Compression::Int8, &mut x, &mut res);
        // scale = 1.0: values snap to whole steps
        assert_eq!(x, vec![127.0, -64.0, 0.0, 0.0]);
        assert_eq!(res, vec![0.0, 0.5, 0.2, 0.0]);
        // all-zero bucket: nothing to send, residual consumed
        let mut z = vec![0.0; 3];
        let mut rz = vec![0.0; 3];
        compress_with_feedback(Compression::Int8, &mut z, &mut rz);
        assert_eq!(z, vec![0.0; 3]);
        assert_eq!(rz, vec![0.0; 3]);
    }

    #[test]
    fn residual_feeds_back_until_small_values_get_sent() {
        // a value far below the quantization step must eventually accumulate
        // through the residual and be transmitted
        let mut sent_total = 0.0f32;
        let mut res = vec![0.0f32; 2];
        for _ in 0..64 {
            let mut x = vec![1.0, 0.02]; // step stays ~1/127*1 ≈ 0.008? no: maxabs 1.0
            compress_with_feedback(Compression::Int8, &mut x, &mut res);
            sent_total += x[1];
        }
        // 64 steps x 0.02 = 1.28 total; the channel must have forwarded most
        assert!(
            (sent_total - 64.0 * 0.02).abs() <= 0.02,
            "error feedback lost mass: {sent_total}"
        );
    }
}
