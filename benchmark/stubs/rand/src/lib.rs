//! Offline stand-in for the slice of `rand` 0.8 the repo calls: `RngCore`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range}` over float and
//! unsigned ranges, and the `Distribution` trait. Float ranges and
//! `seed_from_u64` follow rand 0.8's published algorithms; integer ranges use
//! a widening multiply with rejection (uniform, but not rand's exact stream).

use std::ops::Range;

pub trait RngCore {
    fn next_u32(&mut self) -> u32;

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as `rand_core` 0.6 does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod distributions {
    use super::Rng;

    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The distribution behind `Rng::gen`.
    pub struct Standard;

    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// A half-open range `gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let scale = self.end - self.start;
        let offset = self.start - scale;
        loop {
            // 23 random mantissa bits with exponent 0: uniform in [1, 2).
            let value1_2 = f32::from_bits((rng.next_u32() >> 9) | 0x3f80_0000);
            let res = value1_2 * scale + offset;
            if res < self.end {
                return res;
            }
        }
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let scale = self.end - self.start;
        let offset = self.start - scale;
        loop {
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | 0x3ff0_0000_0000_0000);
            let res = value1_2 * scale + offset;
            if res < self.end {
                return res;
            }
        }
    }
}

macro_rules! unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Reject the draws that would make low products more likely.
                let zone = u64::MAX - (u64::MAX - span + 1) % span;
                loop {
                    let wide = u128::from(rng.next_u64()) * u128::from(span);
                    if (wide as u64) <= zone {
                        return self.start + (wide >> 64) as $t;
                    }
                }
            }
        }
    )*};
}
unsigned_range!(u32, u64, usize);

pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
