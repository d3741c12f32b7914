//! Deterministic parameter initializers.
//!
//! All randomness in the workspace flows through seeded ChaCha8 streams so
//! that every experiment is bit-reproducible and — crucially for the
//! ZeRO/tensor-parallel equivalence tests — every parallel mode can construct
//! the *same* global parameters before sharding them.

use crate::pool;
use crate::tensor::Tensor;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seeded RNG used across the workspace.
pub type InitRng = ChaCha8Rng;

/// Creates the workspace-standard RNG from a seed.
pub fn rng(seed: u64) -> InitRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Uniform values in `[lo, hi)`.
pub fn uniform(
    shape: impl Into<crate::shape::Shape>,
    lo: f32,
    hi: f32,
    rng: &mut InitRng,
) -> Tensor {
    filled(shape.into(), || rng.gen_range(lo..hi))
}

/// Normal values with the given mean and standard deviation (Box–Muller).
pub fn normal(
    shape: impl Into<crate::shape::Shape>,
    mean: f32,
    std: f32,
    rng: &mut InitRng,
) -> Tensor {
    let dist = NormalDist { mean, std };
    filled(shape.into(), || dist.sample(rng))
}

/// A tensor of `draw()`s in row-major order, in pooled storage: a weight is
/// handed back to the pool when its model drops, so one born in the
/// allocator would leave the pool a buffer richer every time a model is
/// rebuilt.
fn filled(shape: crate::shape::Shape, mut draw: impl FnMut() -> f32) -> Tensor {
    let n = shape.numel();
    let mut data = pool::take_buffer(n);
    data.extend((0..n).map(|_| draw()));
    Tensor::from_vec(shape, data)
}

struct NormalDist {
    mean: f32,
    std: f32,
}

impl Distribution<f32> for NormalDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // Box–Muller; one value per call keeps the stream position simple
        // and deterministic regardless of how callers interleave draws.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        self.mean + self.std * z
    }
}

/// LeCun-normal initialization (the "Jax initialization" of the paper's ViT
/// experiment, Section 5.2): std = sqrt(1 / fan_in) for a `[fan_in, fan_out]`
/// weight.
pub fn lecun_normal(fan_in: usize, fan_out: usize, rng: &mut InitRng) -> Tensor {
    let std = (1.0 / fan_in as f32).sqrt();
    normal([fan_in, fan_out], 0.0, std, rng)
}

/// Xavier/Glorot-uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut InitRng) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform([fan_in, fan_out], -a, a, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn xavier_bound() {
        let t = xavier_uniform(10, 14, &mut rng(4));
        let a = (6.0f32 / 24.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= a));
    }
}
