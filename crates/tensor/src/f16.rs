//! Software IEEE 754 binary16 ("half precision").
//!
//! The fp16 gradient wire format (`comm::compress`) needs a faithful half
//! type. We implement conversion
//! with round-to-nearest-even and denormal support; all arithmetic routes
//! through `f32`, exactly like GPU half units with fp32 accumulate.

/// IEEE 754 binary16 value stored as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    pub const ZERO: F16 = F16(0);
    pub const ONE: F16 = F16(0x3C00);
    pub const INFINITY: F16 = F16(0x7C00);
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite f16 (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal f16 (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Inf / NaN
            return if mant == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00)
            };
        }
        // unbiased exponent
        let e = exp - 127;
        if e > 15 {
            // overflow -> inf
            return F16(sign | 0x7C00);
        }
        if e >= -14 {
            // normal range: 10-bit mantissa, round to nearest even on bit 13
            let half_exp = ((e + 15) as u16) << 10;
            let mant10 = (mant >> 13) as u16;
            let round_bit = (mant >> 12) & 1;
            let sticky = mant & 0xFFF;
            let mut h = sign | half_exp | mant10;
            if round_bit == 1 && (sticky != 0 || (mant10 & 1) == 1) {
                h += 1; // may carry into exponent, which is correct behavior
            }
            return F16(h);
        }
        if e >= -24 {
            // subnormal half
            let full_mant = mant | 0x80_0000; // implicit leading 1
            let shift = (-14 - e) as u32 + 13;
            let mant10 = (full_mant >> shift) as u16;
            let round_bit = (full_mant >> (shift - 1)) & 1;
            let sticky = full_mant & ((1 << (shift - 1)) - 1);
            let mut h = sign | mant10;
            if round_bit == 1 && (sticky != 0 || (mant10 & 1) == 1) {
                h += 1;
            }
            return F16(h);
        }
        // underflow -> signed zero
        F16(sign)
    }

    /// Converts to `f32` exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x3FF) as u32;
        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // subnormal: normalize
                let mut e = -14i32;
                let mut m = mant;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x3FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13) // inf / nan
        } else {
            sign | ((exp + 112) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

/// Packs an `f32` slice into half-precision bit patterns (storage format for
/// the offload engine's fp16 buffers).
pub fn pack_f16(data: &[f32]) -> Vec<u16> {
    data.iter().map(|&x| F16::from_f32(x).0).collect()
}

/// Unpacks half-precision bit patterns to `f32`.
pub fn unpack_f16(bits: &[u16]) -> Vec<f32> {
    bits.iter().map(|&b| F16(b).to_f32()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_roundtrip() {
        for &x in &[
            0.0f32,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            0.000061035156, /* 2^-14 */
        ] {
            let h = F16::from_f32(x);
            assert_eq!(h.to_f32(), x, "roundtrip of {x}");
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(F16::from_f32(f32::NAN), F16::NAN);
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e10), F16::INFINITY); // overflow
        assert_eq!(F16::from_f32(-1e10), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(0.0).0, 0);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
    }

    #[test]
    fn subnormals() {
        // smallest positive subnormal = 2^-24
        let tiny = 2.0f32.powi(-24);
        let h = F16::from_f32(tiny);
        assert_eq!(h.0, 1);
        assert_eq!(h.to_f32(), tiny);
        // underflow below half of the smallest subnormal
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).0, 0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and the next representable
        // half (1 + 2^-10); ties go to even mantissa (1.0).
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(x).to_f32(), 1.0);
        // 1 + 3*2^-11 ties to 1 + 2^-10 * 2 (even)
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(y).to_f32(), 1.0 + 2.0 * 2.0f32.powi(-10));
        // above the tie rounds up
        let z = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-18);
        assert_eq!(F16::from_f32(z).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn mantissa_carry_into_exponent() {
        // just under 2.0: rounds up to exactly 2.0 (mantissa overflow carries)
        let x = 1.9999999f32;
        assert_eq!(F16::from_f32(x).to_f32(), 2.0);
        // just under 65520 rounds to inf (65504 is max finite)
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(65519.996), F16::MAX);
    }

    #[test]
    fn pack_unpack() {
        let data = vec![0.1f32, -2.5, 1024.0, 7.7125];
        let packed = pack_f16(&data);
        let unpacked = unpack_f16(&packed);
        for (a, b) in data.iter().zip(unpacked.iter()) {
            assert!((a - b).abs() / a.abs().max(1.0) < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_error_within_half_ulp() {
        // quantization error of normal values is <= 2^-11 relative
        for a in (1..2000).map(|i| i as f32 * 0.3127) {
            let b = F16::from_f32(a).to_f32();
            assert!((a - b).abs() <= a.abs() * 2.0f32.powi(-11) + 1e-8);
        }
    }
}
