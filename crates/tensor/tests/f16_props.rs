//! Property tests for the software binary16: the conversion must be the
//! *nearest* representable half value, with ties to even — checked against
//! a brute-force neighbor search over bit patterns.

use colossalai_tensor::F16;
use rand::Rng;

/// All finite half values as f32, from a bit pattern.
fn half_value(bits: u16) -> Option<f32> {
    let h = F16(bits);
    h.is_finite().then(|| h.to_f32())
}

#[test]
fn conversion_is_nearest_with_ties_to_even() {
    for case in 0..512 {
        let mut draw = colossalai_tensor::init::rng(case);
        let x = draw.gen_range(-70000.0f32..70000.0);
        let h = F16::from_f32(x);
        if !h.is_finite() {
            // overflow: |x| must be beyond the overflow threshold
            // (max finite + half an ulp = 65520)
            assert!(x.abs() >= 65519.99, "{} overflowed early", x);
            continue;
        }
        let v = h.to_f32();
        let err = (x - v).abs();
        // check both neighboring bit patterns are no closer
        for delta in [-1i32, 1] {
            let nb = (h.0 as i32 + delta) as u16;
            // skip crossing the sign boundary nonsense patterns
            if (nb & 0x8000) != (h.0 & 0x8000) && h.0 != 0 && h.0 != 0x8000 {
                continue;
            }
            if let Some(nv) = half_value(nb) {
                let nerr = (x - nv).abs();
                assert!(
                    err < nerr + 1e-12 * x.abs().max(1.0) || (err == nerr && h.0 & 1 == 0),
                    "{}: chose {} (err {}) but neighbor {} is closer (err {})",
                    x,
                    v,
                    err,
                    nv,
                    nerr
                );
            }
        }
    }
}

#[test]
fn roundtrip_fixed_point() {
    for bits in 0u16..0x7C00 {
        // every finite positive half converts to f32 and back unchanged
        let v = F16(bits).to_f32();
        assert_eq!(F16::from_f32(v).0, bits);
        // and the negative counterpart
        let neg = F16(bits | 0x8000).to_f32();
        assert_eq!(F16::from_f32(neg).0, bits | 0x8000);
    }
}

#[test]
fn conversion_is_monotone() {
    for case in 0..512 {
        let mut draw = colossalai_tensor::init::rng(case);
        let a = draw.gen_range(-65000.0f32..65000.0);
        let b = draw.gen_range(-65000.0f32..65000.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let vlo = F16::from_f32(lo).to_f32();
        let vhi = F16::from_f32(hi).to_f32();
        assert!(
            vlo <= vhi,
            "monotonicity violated: f({})={} > f({})={}",
            lo,
            vlo,
            hi,
            vhi
        );
    }
}
