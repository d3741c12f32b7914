//! Automatic mixed precision: fp16 parameter/gradient emulation with
//! dynamic loss scaling.
//!
//! Numerics: master weights stay fp32; before each forward the working
//! parameters are rounded through binary16 (software [`colossalai_tensor::F16`]),
//! gradients are computed against those rounded weights and rounded to fp16
//! themselves — the exact numeric path of GPU fp16 training with fp32
//! accumulate.

use colossalai_autograd::Layer;
use colossalai_tensor::f16::convert_slice;
use colossalai_tensor::Tensor;

/// Dynamic loss scaler (the DeepSpeed/Apex scheme): scale doubles after a
/// streak of finite-gradient steps and halves on overflow, skipping the
/// step.
#[derive(Clone, Debug)]
pub struct GradScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
}

impl Default for GradScaler {
    fn default() -> Self {
        GradScaler {
            scale: 65536.0,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 200,
            good_steps: 0,
        }
    }
}

impl GradScaler {
    pub fn new(initial_scale: f32) -> Self {
        GradScaler {
            scale: initial_scale,
            ..Default::default()
        }
    }

    /// Current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Scales the loss gradient before backward.
    pub fn scale_grad(&self, dy: &Tensor) -> Tensor {
        dy.map(|v| v * self.scale)
    }

    /// Records one step's outcome and updates the scale. `finite` says
    /// whether every gradient element — on every rank that shares the step —
    /// is finite. Returns the factor to unscale the gradients by, or `None`
    /// when the step must be skipped (gradients cleared) and the scale was
    /// backed off.
    pub fn update(&mut self, finite: bool) -> Option<f32> {
        if !finite {
            self.scale *= self.backoff_factor;
            self.good_steps = 0;
            return None;
        }
        let inv = 1.0 / self.scale;
        self.good_steps += 1;
        if self.good_steps >= self.growth_interval {
            self.scale *= self.growth_factor;
            self.good_steps = 0;
        }
        Some(inv)
    }
}

/// Rounds every parameter through fp16 (the "cast weights to half for the
/// forward" step) via the batched [`convert_slice`] sweep. Master copies
/// should be snapshotted by the optimizer before calling this.
pub fn quantize_params_f16(model: &mut dyn Layer) {
    model.visit_params(&mut |p| convert_slice(p.value_mut().data_mut()));
}

/// Rounds every gradient through fp16 (gradients live in the reused fp16
/// storage of Fig 6), batched like [`quantize_params_f16`].
pub fn quantize_grads_f16(model: &mut dyn Layer) {
    model.visit_params(&mut |p| convert_slice(p.grad_mut().data_mut()));
}

/// The AMP matmul: the f32 GEMM over operands already rounded through fp16
/// ([`quantize_params_f16`]) — fp16 storage, fp32 accumulate — in both
/// numeric modes.
pub fn amp_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    colossalai_tensor::matmul(a, b)
}

/// [`amp_matmul`] for left operands with arbitrary leading dimensions (the
/// linear-layer activation contract of `matmul_nd`).
pub fn amp_matmul_nd(a: &Tensor, b: &Tensor) -> Tensor {
    colossalai_tensor::matmul_nd(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::Linear;
    use colossalai_tensor::init;

    #[test]
    fn overflow_halves_scale_and_skips() {
        let mut scaler = GradScaler::new(1024.0);
        assert_eq!(scaler.update(false), None);
        assert_eq!(scaler.scale(), 512.0);
    }

    #[test]
    fn finite_step_returns_the_unscale_factor() {
        let mut scaler = GradScaler::new(8.0);
        assert_eq!(scaler.update(true), Some(0.125));
        assert_eq!(
            scaler.scale(),
            8.0,
            "scale unchanged before growth interval"
        );
    }

    #[test]
    fn scale_grows_after_interval() {
        let mut scaler = GradScaler::new(4.0);
        scaler.growth_interval = 3;
        for _ in 0..3 {
            assert!(scaler.update(true).is_some());
        }
        assert_eq!(scaler.scale(), 8.0);
    }

    #[test]
    fn scale_grad_multiplies() {
        let scaler = GradScaler::new(4.0);
        let dy = Tensor::full([3], 0.5);
        assert_eq!(scaler.scale_grad(&dy).data(), &[2.0; 3]);
    }

    #[test]
    fn quantization_rounds_through_f16() {
        let mut rng = init::rng(43);
        let mut l = Linear::from_rng("l", 4, 4, false, &mut rng);
        let before: Vec<f32> = l.weight().value().data().to_vec();
        quantize_params_f16(&mut l);
        let after = l.weight().value().data();
        for (b, a) in before.iter().zip(after) {
            assert!((b - a).abs() <= b.abs() * 2.0f32.powi(-11) + 1e-8);
            // and the value is exactly representable in f16 now
            let h = colossalai_tensor::F16::from_f32(*a);
            assert_eq!(h.to_f32(), *a);
        }
    }

    #[test]
    fn amp_matmul_is_the_full_precision_gemm() {
        let mut rng = init::rng(7);
        let (m, k, n) = (9, 33, 11);
        let a = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = init::uniform([k, n], -1.0, 1.0, &mut rng);
        assert_eq!(
            amp_matmul(&a, &b).data(),
            colossalai_tensor::matmul(&a, &b).data()
        );
        let a3 = init::uniform([2, 5, k], -1.0, 1.0, &mut rng);
        assert_eq!(amp_matmul_nd(&a3, &b).dims(), &[2, 5, n]);
    }
}
