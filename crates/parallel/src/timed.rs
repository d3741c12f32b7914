//! A layer wrapper that charges modeled kernel time on the device's main
//! clock.
//!
//! The simulated tensor math is numerically real but free in virtual time;
//! experiments about compute/communication overlap need forward/backward to
//! *take* time so bucket collectives have something to hide behind. Wrap
//! each sub-layer in a [`TimedLayer`] and the staged backward sees one
//! compute span per layer, exactly like a kernel-per-layer execution.

use colossalai_autograd::{Layer, Param};
use colossalai_comm::DeviceCtx;
use colossalai_tensor::Tensor;

/// Charges a fixed virtual duration per forward / backward call around an
/// inner layer. Numerics pass through untouched.
pub struct TimedLayer<L: Layer> {
    ctx: DeviceCtx,
    inner: L,
    /// Seconds charged on each `forward`.
    pub forward_seconds: f64,
    /// Seconds charged on each `backward` (typically ~2x forward).
    pub backward_seconds: f64,
}

impl<L: Layer> TimedLayer<L> {
    pub fn new(ctx: &DeviceCtx, inner: L, forward_seconds: f64, backward_seconds: f64) -> Self {
        TimedLayer {
            ctx: ctx.clone(),
            inner,
            forward_seconds,
            backward_seconds,
        }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Layer> Layer for TimedLayer<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.ctx.advance(self.forward_seconds);
        self.inner.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.ctx.advance(self.backward_seconds);
        self.inner.backward(dy)
    }

    // the default backward_staged (whole wrapper = one stage) is exactly
    // right: it calls our timed backward, then fires the stage with this
    // layer's now-final gradients

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::{Linear, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    #[test]
    fn charges_main_clock_and_passes_numerics_through() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let mut rng = init::rng(5);
            let mut plain = Linear::from_rng("l", 4, 3, true, &mut rng);
            let mut rng = init::rng(5);
            let mut timed =
                TimedLayer::new(ctx, Linear::from_rng("l", 4, 3, true, &mut rng), 1e-3, 2e-3);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(6));
            let y_plain = plain.forward(&x);
            let y_timed = timed.forward(&x);
            assert_eq!(y_plain.data(), y_timed.data());
            assert!((ctx.clock() - 1e-3).abs() < 1e-12);
            let d_plain = plain.backward(&Tensor::ones([2, 3]));
            let d_timed = timed.backward(&Tensor::ones([2, 3]));
            assert_eq!(d_plain.data(), d_timed.data());
            assert!((ctx.clock() - 3e-3).abs() < 1e-12);
        });
    }

    #[test]
    fn staged_backward_charges_per_layer() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let mut rng = init::rng(8);
            let mut seq = Sequential::new(vec![
                Box::new(TimedLayer::new(
                    ctx,
                    Linear::from_rng("a", 4, 4, true, &mut rng),
                    1e-3,
                    2e-3,
                )) as Box<dyn Layer>,
                Box::new(TimedLayer::new(
                    ctx,
                    Linear::from_rng("b", 4, 2, true, &mut rng),
                    1e-3,
                    2e-3,
                )),
            ]);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(9));
            let _ = seq.forward(&x);
            let mut clocks = Vec::new();
            let _ = seq.backward_staged(&Tensor::ones([2, 2]), &mut |stage| {
                clocks.push((ctx.clock(), stage.len()));
            });
            // forward charged 2 ms; each staged backward charges 2 ms more
            assert_eq!(clocks.len(), 2);
            assert!((clocks[0].0 - 4e-3).abs() < 1e-12);
            assert!((clocks[1].0 - 6e-3).abs() < 1e-12);
            assert_eq!(clocks[0].1, 2);
        });
    }
}
