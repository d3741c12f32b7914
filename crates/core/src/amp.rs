//! Automatic mixed precision as this reproduction runs it: dynamic loss
//! scaling over f32 arithmetic.
//!
//! `mixed_precision: true` scales the loss gradient, checks the reduced
//! gradients for overflow on every rank, and skips the step (backing the
//! scale off) when any is non-finite. Parameters, activations and gradients
//! stay f32 and nothing is rounded through binary16; the scale is a power of
//! two, so a step that is not skipped takes the f32 update unless a value
//! leaves the normal range. fp16 appears only in the memory model's byte
//! counts: every collective and send bills its payload at f32 width, 4
//! bytes per element, and a collective carries no width to set.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_scale_and_skips() {
        let mut scaler = GradScaler {
            scale: 1024.0,
            ..Default::default()
        };
        assert_eq!(scaler.update(false), None);
        assert_eq!(scaler.scale(), 512.0);
    }

    #[test]
    fn finite_step_returns_the_unscale_factor() {
        let mut scaler = GradScaler {
            scale: 8.0,
            ..Default::default()
        };
        assert_eq!(scaler.update(true), Some(0.125));
        assert_eq!(
            scaler.scale(),
            8.0,
            "scale unchanged before growth interval"
        );
    }

    #[test]
    fn scale_grows_after_interval() {
        let mut scaler = GradScaler {
            scale: 4.0,
            growth_interval: 3,
            ..Default::default()
        };
        for _ in 0..3 {
            assert!(scaler.update(true).is_some());
        }
        assert_eq!(scaler.scale(), 8.0);
    }

    #[test]
    fn scale_grad_multiplies() {
        let scaler = GradScaler {
            scale: 4.0,
            ..Default::default()
        };
        let dy = Tensor::full([3], 0.5);
        assert_eq!(scaler.scale_grad(&dy).data(), &[2.0; 3]);
    }
}
