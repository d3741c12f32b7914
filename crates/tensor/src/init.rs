//! Deterministic parameter initializers.
//!
//! All randomness in the workspace flows through seeded ChaCha8 streams so
//! that every experiment is bit-reproducible and — crucially for the
//! ZeRO/tensor-parallel equivalence tests — every parallel mode can construct
//! the *same* global parameters before sharding them.
//!
//! The stream is [`InitRng`]'s: `rand_chacha::ChaCha8Rng`'s, word for word,
//! computed sixteen blocks at a time on vector lanes. The initializers
//! decode its words in chunks with `rand`'s `gen_range` arithmetic and run
//! Box–Muller on the lanes too, through ports of the libm calls it makes,
//! so every value keeps the bits the scalar draw gave.

use crate::kernel::{self, LaneWork};
use crate::libm;
use crate::pool;
use crate::tensor::Tensor;
use rand::{RngCore, SeedableRng};

/// ChaCha blocks computed per refill: one per lane of a 16-wide vector.
const BLOCKS: usize = 16;
/// Words buffered per refill.
const WORDS: usize = 16 * BLOCKS;

/// Seeded RNG used across the workspace: the ChaCha stream cipher with 8
/// rounds, a 64-bit block counter and a zero stream id, read out as
/// little-endian `u32` words in block order (the published
/// `rand_chacha::ChaCha8Rng` stream), seeded from a `u64` by `rand`'s PCG32
/// expansion.
#[derive(Clone, Debug)]
pub struct InitRng {
    key: [u32; 8],
    /// Counter of the first block the next refill computes.
    counter: u64,
    words: [u32; WORDS],
    /// Next unread word of `words`; `WORDS` means they are used up.
    index: usize,
}

impl InitRng {
    /// Computes the next [`BLOCKS`] blocks on the widest lanes.
    fn refill(&mut self) {
        let work = Refill {
            key: &self.key,
            counter: self.counter,
            out: &mut self.words,
        };
        kernel::on_lanes(kernel::lanes(), work);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.index = 0;
    }

    /// One `gen_range` draw from `range`, its rejection loop included.
    fn draw(&mut self, range: F32Range) -> f32 {
        loop {
            let v = range.decode(self.next_u32());
            if range.accepts(v) {
                return v;
            }
        }
    }

    /// Fills `out` with draws whose range cycles through `ranges` (`out[i]`
    /// from `ranges[i % R]`): the words `gen_range` would read, decoded a
    /// buffer at a time. `out.len()` must be a multiple of `R`.
    fn fill<const R: usize>(&mut self, ranges: [F32Range; R], out: &mut [f32]) {
        assert_eq!(out.len() % R, 0, "a partial cycle of ranges");
        let mut done = 0;
        while done < out.len() {
            if self.index == WORDS {
                self.refill();
            }
            let n = (out.len() - done).min(WORDS - self.index) / R * R;
            let dst = &mut out[done..done + n];
            let words = &self.words[self.index..self.index + n];
            let mut rejected = false;
            for (vs, ws) in dst.chunks_exact_mut(R).zip(words.chunks_exact(R)) {
                for ((v, &w), range) in vs.iter_mut().zip(ws).zip(ranges) {
                    *v = range.decode(w);
                    rejected |= !range.accepts(*v);
                }
            }
            // whole cycles up to the first rejection stand; that cycle is
            // redrawn one word at a time, as are cycles that straddle a
            // refill
            let good = if rejected {
                let first = (0..n).find(|&i| !ranges[i % R].accepts(dst[i]));
                first.expect("a draw was rejected") / R * R
            } else {
                n
            };
            self.index += good;
            done += good;
            if good < n || n == 0 {
                for (v, range) in out[done..done + R].iter_mut().zip(ranges) {
                    *v = self.draw(range);
                }
                done += R;
            }
        }
    }
}

impl SeedableRng for InitRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        InitRng {
            key,
            counter: 0,
            words: [0; WORDS],
            index: WORDS,
        }
    }
}

impl RngCore for InitRng {
    fn next_u32(&mut self) -> u32 {
        if self.index == WORDS {
            self.refill();
        }
        let w = self.words[self.index];
        self.index += 1;
        w
    }
}

/// [`BLOCKS`] consecutive ChaCha8 blocks as [`LaneWork`]: the state is 16
/// lane vectors, one per state word, with one block in each lane, so a
/// quarter round is 16 lanes of adds, xors and rotates.
struct Refill<'a> {
    key: &'a [u32; 8],
    counter: u64,
    out: &'a mut [u32; WORDS],
}

impl LaneWork for Refill<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const NR: usize>(self) {
        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
        let mut init = [[0u32; BLOCKS]; 16];
        for (lanes, &c) in init.iter_mut().zip(SIGMA.iter().chain(self.key)) {
            *lanes = [c; BLOCKS];
        }
        let counter: [u64; BLOCKS] = std::array::from_fn(|b| self.counter.wrapping_add(b as u64));
        init[12] = counter.map(|c| c as u32);
        init[13] = counter.map(|c| (c >> 32) as u32);
        let mut s = init;
        for _ in 0..4 {
            quarter_round(&mut s, [0, 4, 8, 12]);
            quarter_round(&mut s, [1, 5, 9, 13]);
            quarter_round(&mut s, [2, 6, 10, 14]);
            quarter_round(&mut s, [3, 7, 11, 15]);
            quarter_round(&mut s, [0, 5, 10, 15]);
            quarter_round(&mut s, [1, 6, 11, 12]);
            quarter_round(&mut s, [2, 7, 8, 13]);
            quarter_round(&mut s, [3, 4, 9, 14]);
        }
        let (s, init) = (&s, &init);
        for (b, block) in self.out.chunks_exact_mut(16).enumerate() {
            for (out, (s, init)) in block.iter_mut().zip(s.iter().zip(init)) {
                *out = s[b].wrapping_add(init[b]);
            }
        }
    }
}

/// ChaCha's quarter round on state words `i`, in every lane.
#[inline(always)]
fn quarter_round(s: &mut [[u32; BLOCKS]; 16], i: [usize; 4]) {
    let [mut a, mut b, mut c, mut d] = i.map(|w| s[w]);
    a = add(a, b);
    d = xor_rotate(d, a, 16);
    c = add(c, d);
    b = xor_rotate(b, c, 12);
    a = add(a, b);
    d = xor_rotate(d, a, 8);
    c = add(c, d);
    b = xor_rotate(b, c, 7);
    for (w, v) in i.into_iter().zip([a, b, c, d]) {
        s[w] = v;
    }
}

#[inline(always)]
fn add(x: [u32; BLOCKS], y: [u32; BLOCKS]) -> [u32; BLOCKS] {
    std::array::from_fn(|l| x[l].wrapping_add(y[l]))
}

#[inline(always)]
fn xor_rotate(x: [u32; BLOCKS], y: [u32; BLOCKS], r: u32) -> [u32; BLOCKS] {
    std::array::from_fn(|l| (x[l] ^ y[l]).rotate_left(r))
}

/// An f32 `gen_range(lo..hi)` as `rand` computes it: a word's top 23 bits
/// as a mantissa in `[1, 2)`, times `hi - lo`, plus `lo - (hi - lo)`, each
/// rounded on its own; a value not below `hi` is rejected and redrawn.
#[derive(Clone, Copy)]
struct F32Range {
    scale: f32,
    offset: f32,
    hi: f32,
}

impl F32Range {
    fn new(lo: f32, hi: f32) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        let scale = hi - lo;
        F32Range {
            scale,
            offset: lo - scale,
            hi,
        }
    }

    #[inline(always)]
    fn decode(self, word: u32) -> f32 {
        f32::from_bits((word >> 9) | 0x3f80_0000) * self.scale + self.offset
    }

    /// Whether a decoded value stands (it is below `hi`).
    #[inline(always)]
    fn accepts(self, v: f32) -> bool {
        v < self.hi
    }
}

/// Box–Muller's two uniform draws: `u1` in `[ε, 1)`, `u2` in `[0, 1)`.
fn box_muller_ranges() -> [F32Range; 2] {
    [F32Range::new(f32::EPSILON, 1.0), F32Range::new(0.0, 1.0)]
}

/// Creates the workspace-standard RNG from a seed.
pub fn rng(seed: u64) -> InitRng {
    InitRng::seed_from_u64(seed)
}

/// Values per Box–Muller chunk: their `2 * CHUNK` uniform draws wait in a
/// 4 KB stack buffer between the decode and the lanes.
const CHUNK: usize = 512;

/// Uniform values in `[lo, hi)`.
pub fn uniform(
    shape: impl Into<crate::shape::Shape>,
    lo: f32,
    hi: f32,
    rng: &mut InitRng,
) -> Tensor {
    let range = F32Range::new(lo, hi);
    filled(shape.into(), |out| rng.fill([range], out))
}

/// Normal values with the given mean and standard deviation (Box–Muller).
/// Each value reads its own `u1` and `u2`, so the stream position does not
/// depend on how callers interleave draws.
pub fn normal(
    shape: impl Into<crate::shape::Shape>,
    mean: f32,
    std: f32,
    rng: &mut InitRng,
) -> Tensor {
    let ranges = box_muller_ranges();
    filled(shape.into(), |out| {
        let mut u = [0.0f32; 2 * CHUNK];
        for out in out.chunks_mut(CHUNK) {
            let u = &mut u[..2 * out.len()];
            rng.fill(ranges, u);
            kernel::on_lanes(kernel::lanes(), BoxMuller { u, mean, std, out });
        }
    })
}

/// A tensor filled in row-major order by `fill`, in pooled storage: a
/// weight is handed back to the pool when its model drops, so one born in
/// the allocator would leave the pool a buffer richer every time a model
/// is rebuilt.
fn filled(shape: crate::shape::Shape, fill: impl FnOnce(&mut [f32])) -> Tensor {
    let mut data = pool::take_zeroed(shape.numel());
    fill(&mut data);
    Tensor::from_vec(shape, data)
}

/// `mean + std·sqrt(−2 ln u1)·cos(2π u2)` over `(u1, u2)` pairs as
/// [`LaneWork`].
struct BoxMuller<'a> {
    u: &'a [f32],
    mean: f32,
    std: f32,
    out: &'a mut [f32],
}

impl LaneWork for BoxMuller<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const NR: usize>(self) {
        for (out, u) in self.out.iter_mut().zip(self.u.chunks_exact(2)) {
            let z = (-2.0 * libm::ln(u[0])).sqrt() * libm::cos(2.0 * std::f32::consts::PI * u[1]);
            *out = self.mean + self.std * z;
        }
    }
}

/// Every input Box–Muller can pass its two libm calls: the `u1` and the
/// angle `2π·u2` that each of the 2^23 mantissas a word can give decodes
/// to, in mantissa order.
#[cfg(test)]
pub(crate) fn box_muller_domain() -> (Vec<f32>, Vec<f32>) {
    let [r1, r2] = box_muller_ranges();
    let words = (0..1u32 << 23).map(|m| m << 9);
    let u1 = words.clone().map(|w| r1.decode(w)).collect::<Vec<_>>();
    assert!(u1.iter().all(|&u| r1.accepts(u)), "a u1 is rejected");
    let angle = words
        .map(|w| 2.0 * std::f32::consts::PI * r2.decode(w))
        .collect();
    (u1, angle)
}

/// LeCun-normal initialization (the "Jax initialization" of the paper's ViT
/// experiment, Section 5.2): std = sqrt(1 / fan_in) for a `[fan_in, fan_out]`
/// weight.
pub fn lecun_normal(fan_in: usize, fan_out: usize, rng: &mut InitRng) -> Tensor {
    let std = (1.0 / fan_in as f32).sqrt();
    normal([fan_in, fan_out], 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::lanes_on_host;
    use rand::Rng;
    use rand_chacha::ChaCha8Rng;

    const SEEDS: [u64; 4] = [0, 1, 7, u64::MAX];

    #[test]
    fn the_stream_is_chacha8s_word_for_word() {
        for seed in SEEDS {
            let (mut ours, mut theirs) = (rng(seed), ChaCha8Rng::seed_from_u64(seed));
            // reads of 1, 2 (a u64) and 255 words cross the refills at
            // ragged offsets
            for i in 0..3000 {
                match i % 3 {
                    0 => assert_eq!(ours.next_u32(), theirs.next_u32(), "seed {seed}, read {i}"),
                    1 => assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed}, read {i}"),
                    _ => {
                        let a: Vec<u32> = (0..255).map(|_| ours.next_u32()).collect();
                        let b: Vec<u32> = (0..255).map(|_| theirs.next_u32()).collect();
                        assert_eq!(a, b, "seed {seed}, read {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_clone_mid_buffer_continues_both_streams() {
        for seed in SEEDS {
            let (mut ours, mut theirs) = (rng(seed), ChaCha8Rng::seed_from_u64(seed));
            for _ in 0..WORDS + 37 {
                ours.next_u32();
                theirs.next_u32();
            }
            let (mut ours2, mut theirs2) = (ours.clone(), theirs.clone());
            for i in 0..2 * WORDS {
                let want = theirs.next_u32();
                assert_eq!(ours.next_u32(), want, "seed {seed}, word {i}");
                assert_eq!(theirs2.next_u32(), want);
                assert_eq!(ours2.next_u32(), want, "clone, seed {seed}, word {i}");
            }
        }
    }

    #[test]
    fn gen_range_interleaves_as_on_chacha8() {
        for seed in SEEDS {
            let (mut ours, mut theirs) = (rng(seed), ChaCha8Rng::seed_from_u64(seed));
            for i in 0..5000usize {
                let n = i % 97 + 1;
                assert_eq!(
                    ours.gen_range(0..n),
                    theirs.gen_range(0..n),
                    "usize, seed {seed}"
                );
                let (a, b) = (
                    ours.gen_range(-1.5f32..0.25),
                    theirs.gen_range(-1.5f32..0.25),
                );
                assert_eq!(a.to_bits(), b.to_bits(), "f32, seed {seed}");
                let hi = u64::MAX - i as u64;
                assert_eq!(
                    ours.gen_range(3..hi),
                    theirs.gen_range(3..hi),
                    "u64, seed {seed}"
                );
            }
        }
    }

    /// `f32::from_bits(1.0f32.to_bits() + 1)`: `gen_range(1.0..NEXT_UP)`
    /// rounds about half its draws up to the excluded end and redraws them.
    const NEXT_UP: f32 = 1.000_000_1;

    #[test]
    fn chunked_draws_equal_gen_range_rejections_included() {
        for seed in SEEDS {
            for ranges in [[(1.0, NEXT_UP), (0.0, 1.0)], [(-3.0, 2.0), (1.0, NEXT_UP)]] {
                // lengths around the buffer, whose tail straddles a refill
                for len in [2, 254, 256, 258, 1026] {
                    let mut theirs = ChaCha8Rng::seed_from_u64(seed);
                    let want: Vec<u32> = (0..len)
                        .map(|i| {
                            let (lo, hi) = ranges[i % 2];
                            theirs.gen_range(lo..hi).to_bits()
                        })
                        .collect();
                    let mut ours = rng(seed);
                    let mut got = vec![0.0; len];
                    let [a, b] = ranges.map(|(lo, hi)| F32Range::new(lo, hi));
                    ours.fill([a, b], &mut got);
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "seed {seed}, {ranges:?}, len {len}");
                    assert_eq!(ours.next_u32(), theirs.next_u32(), "position after");
                }
            }
        }
        let mut theirs = ChaCha8Rng::seed_from_u64(5);
        let want: Vec<f32> = (0..3000).map(|_| theirs.gen_range(1.0..NEXT_UP)).collect();
        let got = uniform([3000], 1.0, NEXT_UP, &mut rng(5));
        assert!(want.contains(&1.0), "no draw accepted");
        assert_eq!(got.data(), &want[..]);
    }

    /// Box–Muller one value at a time, drawn by `gen_range` from the crate's
    /// stream and evaluated by the scalar ports.
    fn scalar_normal(n: usize, mean: f32, std: f32, seed: u64) -> Vec<u32> {
        let mut theirs = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f32 = theirs.gen_range(f32::EPSILON..1.0);
                let u2: f32 = theirs.gen_range(0.0..1.0);
                let ln = std::hint::black_box(libm::ln as fn(f32) -> f32);
                let cos = std::hint::black_box(libm::cos as fn(f32) -> f32);
                let z = (-2.0 * ln(u1)).sqrt() * cos(2.0 * std::f32::consts::PI * u2);
                (mean + std * z).to_bits()
            })
            .collect()
    }

    #[test]
    fn normal_is_the_scalar_box_muller_of_the_chacha8_stream() {
        for seed in SEEDS {
            for n in [1, 511, 512, 513, 3000] {
                let got = normal([n], 0.5, 0.02, &mut rng(seed));
                let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, scalar_normal(n, 0.5, 0.02, seed), "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    fn box_muller_rows_on_every_lane_width_compute_the_scalar_bits() {
        let n = 4099;
        let want = scalar_normal(n, -1.0, 3.0, 11);
        let mut u = vec![0.0; 2 * n];
        rng(11).fill(box_muller_ranges(), &mut u);
        for lanes in lanes_on_host() {
            let mut out = vec![0.0; n];
            let work = BoxMuller {
                u: &u,
                mean: -1.0,
                std: 3.0,
                out: &mut out,
            };
            kernel::on_lanes(lanes, work);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{lanes:?}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = uniform([4, 4], -1.0, 1.0, &mut rng(7));
        let b = uniform([4, 4], -1.0, 1.0, &mut rng(7));
        assert_eq!(a, b);
        let c = uniform([4, 4], -1.0, 1.0, &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_within_bounds() {
        let t = uniform([1000], -0.25, 0.75, &mut rng(1));
        assert!(t.data().iter().all(|&x| (-0.25..0.75).contains(&x)));
    }

    #[test]
    fn normal_moments() {
        let t = normal([20000], 2.0, 3.0, &mut rng(2));
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn lecun_std_scales_with_fan_in() {
        let t = lecun_normal(400, 100, &mut rng(3));
        let mean = t.mean();
        let std = (t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32)
            .sqrt();
        assert!((std - 0.05).abs() < 0.005, "std {std}");
    }
}
