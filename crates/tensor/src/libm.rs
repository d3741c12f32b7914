//! Ports of the glibc 2.36 libm functions the workspace's frozen bits were
//! computed with: `tanhf` (every GELU) and `logf` / `cosf` (Box–Muller in
//! `init::normal`).
//!
//! Each port is branch-free, so a loop over it vectorizes on the lane entry
//! (`kernel::on_lanes`): every lane computes every arm and a select keeps
//! one. Each returns libm's bits on the inputs its callers can pass, which
//! is what lets the lanes replace the scalar libm calls without moving a
//! golden (DESIGN.md §9.2).
//!
//! * `tanh` (and the `expm1` it calls) is fdlibm's C. glibc builds it
//!   without contraction and it is not an ifunc, so the port is separately
//!   rounded f32 arithmetic.
//! * `ln` and `cos` are ifuncs. On a host with AVX2 and FMA glibc picks
//!   `__logf_fma` and `__cosf_fma`: the same C compiled with FMA, computing
//!   in f64. The ports compute in f64 too, with `mul_add` exactly where
//!   those builds' disassembly fuses and a plain multiply and add
//!   everywhere else. A `mul_add` is one correctly rounded operation on
//!   every lane arm (an instruction where the arm enables `fma`, a libm
//!   `fma()` call on the baseline), so the arms agree bit for bit.

/// `logf`'s table, bit patterns copied from `__logf_data` in glibc 2.36's
/// rodata: `(1/c, ln c)` for the `c` near the centre of each of the 16
/// subintervals of `[0x3f330000, 2 x 0x3f330000)`.
const LOGF_TABLE: [(u64, u64); 16] = [
    (0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade),
    (0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb),
    (0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67),
    (0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9),
    (0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758),
    (0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100),
    (0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e),
    (0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc),
    (0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e),
    (0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000),
    (0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984),
    (0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4),
    (0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08),
    (0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770),
    (0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1),
    (0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09),
];
/// `__logf_data.ln2`.
const LOGF_LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `__logf_data.poly`: `log1p(r) ≈ r + A0 r⁴ + A1 r³ + A2 r²`.
const LOGF_POLY: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];

/// `ln`, bit for bit what glibc 2.36's `logf` returns where its ifunc picks
/// `__logf_fma` (any AVX2 + FMA host), on positive normal finite `x`:
/// Box–Muller's `u1 ∈ [ε, 1)` among them. Zero, subnormals, negatives,
/// inf and NaN take libm's special-case branch, which is not ported.
#[inline(always)]
pub(crate) fn ln(x: f32) -> f32 {
    // x = 2^k z with z in [OFF, 2 OFF) and exact; the table's c is near
    // the centre of z's subinterval, so ln x = log1p(z/c - 1) + ln c + k ln2
    const OFF: u32 = 0x3f33_0000;
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(OFF);
    let (invc, logc) = LOGF_TABLE[(tmp >> 19) as usize & 15];
    let (invc, logc) = (f64::from_bits(invc), f64::from_bits(logc));
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    // __logf_fma fuses all five multiply-adds
    let r = z.mul_add(invc, -1.0);
    let y0 = f64::from(k).mul_add(LOGF_LN2, logc);
    let r2 = r * r;
    let y = r.mul_add(LOGF_POLY[1], LOGF_POLY[2]);
    let y = LOGF_POLY[0].mul_add(r2, y);
    y.mul_add(r2, y0 + r) as f32
}

/// `__sincosf_table`, bit patterns copied from glibc 2.36's rodata, each
/// entry laid out
/// `sign[4], hpi_inv, hpi, c0, c1, s1, c2, s2, c3, s3, c4`: the sine's
/// sign per quadrant, `2^24 · 2/π`, `π/2`, and the cosine and sine
/// polynomials. Entry 1 negates the cosine's coefficients, for quadrants 2
/// and 3.
const SINCOSF_TABLE: [[u64; 14]; 2] = [
    [
        0x3ff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0x3ff0_0000_0000_0000,
        0x4164_5f30_6dc9_c883,
        0x3ff9_21fb_5444_2d18,
        0x3ff0_0000_0000_0000,
        0xbfdf_ffff_fd0c_621c,
        0xbfc5_5554_5995_a603,
        0x3fa5_5553_e106_8f19,
        0x3f81_1076_0523_0bc4,
        0xbf56_c087_e89a_359d,
        0xbf29_94eb_3774_cf24,
        0x3ef9_9343_027b_f8c3,
    ],
    [
        0x3ff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0xbff0_0000_0000_0000,
        0x3ff0_0000_0000_0000,
        0x4164_5f30_6dc9_c883,
        0x3ff9_21fb_5444_2d18,
        0xbff0_0000_0000_0000,
        0x3fdf_ffff_fd0c_621c,
        0xbfc5_5554_5995_a603,
        0xbfa5_5553_e106_8f19,
        0x3f81_1076_0523_0bc4,
        0x3f56_c087_e89a_359d,
        0xbf29_94eb_3774_cf24,
        0xbef9_9343_027b_f8c3,
    ],
];
const HPI_INV: usize = 4;
const HPI: usize = 5;
const C0: usize = 6;
const C1: usize = 7;
const S1: usize = 8;
const C2: usize = 9;
const S2: usize = 10;
const C3: usize = 11;
const S3: usize = 12;
const C4: usize = 13;

/// `cos`, bit for bit what glibc 2.36's `cosf` returns where its ifunc
/// picks `__cosf_fma` (any AVX2 + FMA host), on `[0, 2π)`: the angles
/// `2π·u2` of Box–Muller. The C's arms there are `y < 2^-12` (1),
/// `y < 0.75` (its `abstop12(y) < abstop12(π/4)` compares the top 12
/// bits: the cosine polynomial at `y`) and `y < 120` (`reduce_fast`, then
/// the sine or cosine polynomial by quadrant); its large-argument reduction
/// and its inf / NaN arm are not ported.
#[inline(always)]
pub(crate) fn cos(y: f32) -> f32 {
    const TOINT: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let t0 = |i: usize| f64::from_bits(SINCOSF_TABLE[0][i]);
    let t1 = |i: usize| f64::from_bits(SINCOSF_TABLE[1][i]);
    let top = (y.to_bits() >> 20) & 0x7ff;
    let x = f64::from(y);
    // reduce_fast: n = round(x / (π/2)). hpi_inv carries 2^24, so C's
    // (int32_t) of the product, which truncates, leaves the quadrant in
    // bits 24..31: the port truncates and reads the integer off the
    // mantissa of its sum with 1.5 * 2^52 (a float-to-int `as` saturates,
    // and that check goes lane by lane)
    let r = (x * t0(HPI_INV)).trunc();
    let ri = (r + TOINT).to_bits() as i32;
    let n = ri.wrapping_add(0x80_0000) >> 24;
    let reduced = (-f64::from(n)).mul_add(t0(HPI), x);
    // below 0.75 the C skips the reduction: quadrant 0 at x itself
    let small = top < 0x3f4;
    let n = if small { 0 } else { n };
    let x = if small { x } else { reduced };
    let x2 = x * x;
    // quadrants 2 and 3 read entry 1; the sine's sign is entry 0's
    let p = |i: usize| if n & 2 == 0 { t0(i) } else { t1(i) };
    let s = t0((n & 3) as usize);
    // sinf_poly's two arms, fused where __cosf_fma fuses: odd quadrants
    // take the sine at x·s, even ones the cosine
    let xs = x * s;
    let x3 = xs * x2;
    let x7 = x3 * x2;
    let s1 = x2.mul_add(p(S3), p(S2));
    let sin = s1.mul_add(x7, x3.mul_add(p(S1), xs));
    let x4 = x2 * x2;
    let x6 = x4 * x2;
    let c2 = x2.mul_add(p(C4), p(C3));
    let c1 = x2.mul_add(p(C1), p(C0));
    let cos = c2.mul_add(x6, x4.mul_add(p(C2), c1));
    let v = if n & 1 == 0 { cos } else { sin } as f32;
    if top < 0x398 {
        1.0
    } else {
        v
    }
}

/// `tanh`, bit for bit what glibc's `tanhf` returns: fdlibm's `s_tanhf.c`
/// and the `s_expm1f.c` it calls, ported arm by arm in separately rounded
/// f32 operations (glibc builds them that way: neither is an ifunc, so no
/// CPU-selected FMA variant exists). Branch-free, so a loop over it
/// vectorizes: every lane computes every arm and a select keeps one.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    // only 2^-55 <= |x| < 22 reads `expm1`; the other lanes hand it 1, so no
    // subnormal (a microcode assist on every lane of the vector) or NaN
    // reaches it
    let ax = if (0x2400_0000..0x41b0_0000).contains(&ix) {
        f32::from_bits(ix)
    } else {
        1.0
    };
    // |x| >= 1: 1 - 2 / (expm1(2|x|) + 2); else -t / (t + 2), t = expm1(-2|x|)
    let big = ix >= 0x3f80_0000;
    let t = expm1(if big { 2.0 * ax } else { -2.0 * ax });
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| >= 22 (and inf): 1 - tiny, which rounds to 1
    let z = if ix < 0x41b0_0000 { z } else { 1.0 };
    // `-z` for negative x: z >= +0 here, so that is its sign bit set
    let z = f32::from_bits(z.to_bits() | jx & 0x8000_0000);
    // |x| < 2^-55 (zero included: ±0 * 1 is ±0)
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN: libm's `1/x ± 1` returns `x` quieted, as `x + x` does
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// `expm1` as fdlibm's `s_expm1f.c` computes it, on the arguments [`tanh`]
/// passes: `(-2, -2^-54]` and `[2, 44)`. Those reach the tiny argument,
/// `k = 0`, `k = -1`, `k <= -2`, `2 <= k < 23`, `23 <= k <= 56` and
/// `k > 56`; the overflow, `-1` and `k = 1` arms are unreachable and left
/// out. The reduction `x = u - k ln2` is the C's general one: its `k = ±1`
/// shortcut and its `k = 0` case compute the same bits through it.
#[inline(always)]
fn expm1(u: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23
    let hx = u.to_bits() & 0x7fff_ffff;
    // |u| < 2^-25 returns u; its lanes reduce 0 instead, whose cube cannot
    // go subnormal
    let tiny = hx < 0x3300_0000;
    let v = if tiny { 0.0 } else { u };
    let neg = u.to_bits() >> 31 != 0;
    // argument reduction: |u| <= ln2/2 keeps k = 0, |u| < 3ln2/2 takes ±1,
    // else k = (int)(u/ln2 ± 1/2), which truncates; the small integer is
    // read off the mantissa of its sum with ROUND, since a float-to-int
    // `as` saturates and that check goes lane by lane
    let n = (INV_LN2 * v + if neg { -0.5 } else { 0.5 }).trunc();
    let k_general = ((n + ROUND).to_bits() as i32).wrapping_sub(0x4b40_0000);
    let k = if hx < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        k_general
    };
    let k = if hx <= 0x3eb1_7218 { 0 } else { k };
    let kf = k as f32;
    let hi = v - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    // x is now in the primary range
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let k_zero = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    // 2^k, 1 - 2^-k and 2^-k from exponent bits; the integer steps wrap,
    // so no lane's k can overflow them
    let twopk = f32::from_bits((0x7f_i32.wrapping_add(k) as u32).wrapping_shl(23));
    let k_minus_one = 0.5 * (x - e) - 0.5;
    let k_far = (1.0 - (e - x)) * twopk - 1.0;
    let k_low = f32::from_bits(0x3f80_0000 - 0x0100_0000_u32.wrapping_shr(k as u32));
    let k_low = (k_low - (e - x)) * twopk;
    let k_high = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let k_high = ((x - (e + k_high)) + 1.0) * twopk;
    // the C's if-chain, as selects from its last arm up
    let y = if k < 23 { k_low } else { k_high };
    let y = if k <= -2 || k > 56 { k_far } else { y };
    let y = if k == -1 { k_minus_one } else { y };
    let y = if k == 0 { k_zero } else { y };
    if tiny {
        u
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::kernel::{self, lanes_on_host, LaneWork, Lanes};
    use std::hint::black_box;

    /// A port over a slice as [`LaneWork`]: the port on one lane width.
    struct Map<'a, F>(F, &'a [f32], &'a mut [f32]);

    impl<F: Fn(f32) -> f32> LaneWork for Map<'_, F> {
        type Out = ();
        #[inline(always)]
        fn run<const NR: usize>(self) {
            for (out, &x) in self.2.iter_mut().zip(self.1) {
                *out = (self.0)(x);
            }
        }
    }

    /// A port one element at a time, through a pointer the optimizer
    /// cannot see through: a call the vectorizer cannot widen.
    fn scalar(port: &dyn Fn(f32) -> f32, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| black_box(port)(x)).collect()
    }

    fn on<F: Fn(f32) -> f32>(lanes: Lanes, port: F, xs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; xs.len()];
        kernel::on_lanes(lanes, Map(port, xs, &mut out));
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn fnv1a(v: &[f32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in v {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `port` on the scalar path and on every lane width reads `table`'s
    /// `(input, output)` bit pairs.
    fn reads_table<F: Fn(f32) -> f32 + Copy>(port: F, table: &[(u32, u32)], name: &str) {
        let xs: Vec<f32> = table.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        let want: Vec<u32> = table.iter().map(|&(_, y)| y).collect();
        let one: Vec<f32> = xs.iter().map(|&x| black_box(port)(black_box(x))).collect();
        assert_eq!(bits(&one), want, "{name}, scalar");
        for lanes in lanes_on_host() {
            assert_eq!(bits(&on(lanes, port, &xs)), want, "{name}, {lanes:?}");
        }
    }

    /// `(input, output)` bit pairs of glibc 2.36's `tanhf`: ±0, subnormals,
    /// both sides of 2^-55 and 2^-26 (`expm1`'s tiny argument), a quarter
    /// and three quarters of ln2 (`expm1`'s `k = 0` / `k = ±1` edges at
    /// `2|x|`), inputs in each `k` arm, 1, 27 ln2, 22, ±inf and two NaNs
    /// with payloads (one signalling, returned quieted).
    const TANH_TABLE: [(u32, u32); 33] = [
        (0x0000_0000, 0x0000_0000), // 0
        (0x8000_0000, 0x8000_0000), // -0
        (0x0000_0001, 0x0000_0001), // 1e-45
        (0x807f_ffff, 0x807f_ffff), // -1.1754942e-38
        (0x23ff_ffff, 0x23ff_ffff), // 2.7755574e-17
        (0x2400_0000, 0x2400_0000), // 2^-55
        (0xa400_0000, 0xa400_0000), // -2^-55
        (0x327f_ffff, 0x327f_ffff), // 1.490116e-8
        (0x3280_0000, 0x3280_0000), // 2^-26
        (0x3e31_7218, 0x3e2f_b0cd), // ln2 / 4
        (0x3e31_7219, 0x3e2f_b0cd), // 1.7328681e-1
        (0xbeb1_7218, 0xbeaa_aaab), // -ln2 / 2
        (0x3f05_1592, 0x3ef4_86f8), // 3 ln2 / 4
        (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1
        (0xbf19_999a, 0xbf09_7c15), // -0.6
        (0xbf66_6666, 0xbf37_5f4c), // -0.9
        (0x3f7f_ffff, 0x3f42_f7d5), // 9.9999994e-1
        (0x3f80_0000, 0x3f42_f7d6), // 1
        (0xbf80_0000, 0xbf42_f7d6), // -1
        (0x4040_0000, 0x3f7e_bbe9), // 3
        (0xc0a0_0000, 0xbf7f_fa0d), // -5
        (0x3f85_1592, 0x3f47_1c72), // 3 ln2 / 2
        (0x4100_0000, 0x3f7f_fffc), // 8
        (0x4195_b844, 0x3f80_0000), // 27 ln2
        (0x419e_0000, 0x3f80_0000), // 19.75
        (0x41af_ffff, 0x3f80_0000), // 21.999998
        (0x41b0_0000, 0x3f80_0000), // 22
        (0xc1b0_0000, 0xbf80_0000), // -22
        (0x7f7f_ffff, 0x3f80_0000), // f32::MAX
        (0x7f80_0000, 0x3f80_0000), // inf
        (0xff80_0000, 0xbf80_0000), // -inf
        (0x7fa0_0001, 0x7fe0_0001), // signalling NaN
        (0xffc1_2345, 0xffc1_2345), // -NaN
    ];

    /// FNV-1a over the output bits of glibc 2.36's `tanhf` at every 65 537th
    /// bit pattern, `0` to `u32::MAX` (65 536 inputs).
    const TANH_SPARSE_HASH: u64 = 0x4e02_5101_774e_312d;

    /// `(input, output)` bit pairs of glibc 2.36's `logf` (`__logf_fma`):
    /// ε and its successor (the smallest `u1`), the smallest normal, both
    /// sides of the table's offset 0x3f330000, 0.75, the two largest floats
    /// below 1, 1 and a few above it.
    const LN_TABLE: [(u32, u32); 20] = [
        (0x3400_0000, 0xc17f_1402), // ε
        (0x3400_0001, 0xc17f_1402), // 1.192093e-7
        (0x0080_0000, 0xc2ae_ac50), // f32::MIN_POSITIVE
        (0x0da2_4260, 0xc28a_27b5), // 1e-30
        (0x3c23_d70a, 0xc093_5d8e), // 0.01
        (0x3dcc_cccd, 0xc013_5d8e), // 0.1
        (0x3e80_0000, 0xbfb1_7218), // 0.25
        (0x3f00_0000, 0xbf31_7218), // 0.5
        (0x3f32_ffff, 0xbeb7_307a), // 6.992187e-1
        (0x3f33_0000, 0xbeb7_3077), // 6.9921875e-1
        (0x3f33_3333, 0xbeb6_9e1a), // 0.7
        (0x3f40_0000, 0xbe93_4b11), // 0.75
        (0x3f66_6666, 0xbdd7_c745), // 0.9
        (0x3f7f_fffe, 0xb400_0000), // 1 - 2^-23
        (0x3f7f_ffff, 0xb380_0000), // 1 - 2^-24
        (0x3f80_0000, 0x0000_0000), // 1
        (0x4000_0000, 0x3f31_7218), // 2
        (0x4060_0000, 0x3fa0_5a89), // 3.5
        (0x447a_0000, 0x40dd_0c55), // 1000
        (0x7f7f_ffff, 0x42b1_7218), // f32::MAX
    ];

    /// `(input, output)` bit pairs of glibc 2.36's `cosf` (`__cosf_fma`):
    /// 0, both sides of 2^-12 (the `1` arm) and of 0.75 (where the
    /// reduction starts), π/4, 1, each quadrant edge `(k + ½)·π/2` with its
    /// neighbours, π/2, π, 3π/2 and the largest angle, 2π·(1 − 2^-23).
    const COS_TABLE: [(u32, u32); 25] = [
        (0x0000_0000, 0x3f80_0000), // 0
        (0x3900_0000, 0x3f80_0000), // 2^-13
        (0x397f_ffff, 0x3f80_0000), // 2.4414061e-4
        (0x3980_0000, 0x3f80_0000), // 2^-12
        (0x3f00_0000, 0x3f60_a940), // 0.5
        (0x3f3f_ffff, 0x3f3b_4ff7), // 7.4999994e-1
        (0x3f40_0000, 0x3f3b_4ff6), // 0.75
        (0x3f49_0fda, 0x3f35_04f4), // 7.853981e-1
        (0x3f49_0fdb, 0x3f35_04f3), // π/4
        (0x3f49_0fdc, 0x3f35_04f2), // 7.8539824e-1
        (0x3f80_0000, 0x3f0a_5140), // 1
        (0x3fc9_0fda, 0x33a2_2169), // 1.5707963
        (0x3fc9_0fdb, 0xb33b_bd2e), // π/2
        (0x3fc9_0fdc, 0xb42e_ef4c), // 1.5707965
        (0x4016_cbe3, 0xbf35_04f0), // 2.3561943
        (0x4016_cbe4, 0xbf35_04f3), // 3π/4
        (0x4016_cbe5, 0xbf35_04f6), // 2.3561947
        (0x4049_0fdb, 0xbf80_0000), // π
        (0x407b_53d0, 0xbf35_04f7), // 3.9269905
        (0x407b_53d1, 0xbf35_04f4), // 5π/4
        (0x407b_53d2, 0xbf35_04f1), // 3.926991
        (0x4096_cbe4, 0x324c_de2e), // 3π/2
        (0x40af_edde, 0x3f35_04ec), // 5.4977865
        (0x40af_eddf, 0x3f35_04f1), // 7π/4
        (0x40c9_0fd9, 0x3f80_0000), // 2π·(1 − 2^-23)
    ];

    /// FNV-1a over the output bits of glibc 2.36's `logf` at every `u1`
    /// Box–Muller can draw, in the order [`init::box_muller_domain`]
    /// lists them.
    const LN_DOMAIN_HASH: u64 = 0xc660_7b02_7797_54aa;
    /// The same over `cosf` at every angle `2π·u2`.
    const COS_DOMAIN_HASH: u64 = 0xf462_e941_4c35_2865;

    #[test]
    fn tanh_reads_the_frozen_libm_table_on_every_lane_width() {
        reads_table(tanh, &TANH_TABLE, "tanh");
    }

    #[test]
    fn tanh_hashes_every_65537th_pattern_to_the_frozen_libm_hash() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        assert_eq!(xs.len(), 65_536);
        assert_eq!(fnv1a(&scalar(&tanh, &xs)), TANH_SPARSE_HASH, "scalar");
        for lanes in lanes_on_host() {
            assert_eq!(fnv1a(&on(lanes, tanh, &xs)), TANH_SPARSE_HASH, "{lanes:?}");
        }
    }

    /// Every lane width against the scalar port on all 2^32 inputs. Run it
    /// with `--release -- --ignored` (under a minute on 2 cores).
    #[test]
    #[ignore]
    fn tanh_lanes_equal_the_scalar_port_on_every_f32() {
        let on_host = lanes_on_host();
        sweep(0, u32::MAX, 1, |xs| {
            let want = bits(&scalar(&tanh, xs));
            for &lanes in &on_host {
                assert!(
                    bits(&on(lanes, tanh, xs)) == want,
                    "{lanes:?} differs from the scalar port in block {:#010x}",
                    xs[0].to_bits()
                );
            }
        });
    }

    /// The port against this host's libm on all 2^32 inputs: a local check,
    /// since another glibc may round differently (EXPERIMENTS.md names the
    /// one it passed on).
    #[test]
    #[ignore]
    fn tanh_equals_libm_on_every_f32() {
        sweep(0, u32::MAX, 1, |xs| {
            equals_libm(tanh, f32::tanh, xs, "tanh")
        });
    }

    #[test]
    fn ln_and_cos_read_the_frozen_libm_tables_on_every_lane_width() {
        reads_table(ln, &LN_TABLE, "ln");
        reads_table(cos, &COS_TABLE, "cos");
    }

    #[test]
    fn ln_and_cos_hash_the_reachable_domain_to_the_frozen_libm_hashes() {
        // the port's own lanes (a function item, inlined), not a pointer
        fn check<F: Fn(f32) -> f32 + Copy>(port: F, xs: &[f32], hash: u64, name: &str) {
            let want = scalar(&port, xs);
            assert_eq!(fnv1a(&want), hash, "{name}, scalar");
            for lanes in lanes_on_host() {
                assert!(
                    bits(&on(lanes, port, xs)) == bits(&want),
                    "{name}, {lanes:?}"
                );
            }
        }
        let (u1, angle) = init::box_muller_domain();
        check(ln, &u1, LN_DOMAIN_HASH, "ln");
        check(cos, &angle, COS_DOMAIN_HASH, "cos");
    }

    /// Every lane width against the scalar port at each of the 2^24 inputs
    /// Box–Muller can pass. Run it with `--release -- --ignored` (seconds).
    #[test]
    #[ignore]
    fn ln_and_cos_lanes_equal_the_scalar_port_on_the_reachable_domain() {
        let (u1, angle) = init::box_muller_domain();
        let want = (bits(&scalar(&ln, &u1)), bits(&scalar(&cos, &angle)));
        for lanes in lanes_on_host() {
            assert!(bits(&on(lanes, ln, &u1)) == want.0, "ln, {lanes:?}");
            assert!(bits(&on(lanes, cos, &angle)) == want.1, "cos, {lanes:?}");
        }
    }

    /// Runs `check(inputs)` over the bit patterns `first..=last` at the
    /// given stride, in 4096-element blocks (small enough for the allocator
    /// to reuse the checks' buffers), on every core.
    fn sweep(first: u32, last: u32, stride: u32, check: impl Fn(&[f32]) + Sync) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let count = u64::from((last - first) / stride) + 1;
        let blocks = count.div_ceil(4096);
        std::thread::scope(|s| {
            for w in 0..workers {
                let check = &check;
                s.spawn(move || {
                    let mut xs = Vec::with_capacity(4096);
                    for block in (w as u64..blocks).step_by(workers) {
                        let at = block * 4096..count.min(block * 4096 + 4096);
                        xs.clear();
                        xs.extend(
                            at.map(|i| f32::from_bits(first + (i * u64::from(stride)) as u32)),
                        );
                        check(&xs);
                    }
                });
            }
        });
    }

    fn equals_libm(port: impl Fn(f32) -> f32 + Copy, libm: fn(f32) -> f32, xs: &[f32], name: &str) {
        let got = on(kernel::lanes(), port, xs);
        for (&x, &y) in xs.iter().zip(&got) {
            assert_eq!(
                y.to_bits(),
                libm(x).to_bits(),
                "{name}({:#010x})",
                x.to_bits()
            );
        }
    }

    /// `ln` against this host's `logf` on every positive normal float, which
    /// holds every reachable `u1`: a local check, since another glibc, or a
    /// host without FMA, may round differently (EXPERIMENTS.md names the one
    /// it passed on).
    #[test]
    #[ignore]
    fn ln_equals_libm_on_every_positive_normal_float() {
        sweep(0x0080_0000, 0x7f7f_ffff, 1, |xs| {
            equals_libm(ln, f32::ln, xs, "ln")
        });
    }

    /// `cos` against this host's `cosf` on every float in `[0, 2π)`, which
    /// holds every reachable angle: a local check, like the one above.
    #[test]
    #[ignore]
    fn cos_equals_libm_on_every_float_below_two_pi() {
        sweep(0, 0x40c9_0fda, 1, |xs| {
            equals_libm(cos, f32::cos, xs, "cos")
        });
    }
}
