//! The trainer + life-cycle hooks of Fig 1's "Trainer / Engine" tier.

use crate::engine::Engine;
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::Tensor;
use std::cell::RefCell;
use std::rc::Rc;

/// Life-cycle hooks users can attach to a [`Trainer`] — the extensibility
/// point Section 4 ("Extensibility") describes.
pub trait Hook {
    /// Before the engine processes step `step`.
    fn before_step(&mut self, _step: u64) {}
    /// After a successful optimizer step with the step's loss.
    fn after_step(&mut self, _step: u64, _loss: f32) {}
    /// When the loss scaler skips a step.
    fn on_skip(&mut self, _step: u64) {}
    /// After the final step of `fit`.
    fn after_fit(&mut self, _steps: u64) {}
}

/// A hook the caller keeps a handle on: attach `Box::new(Rc::clone(&hook))`
/// and read what it recorded after [`Trainer::fit`].
impl<H: Hook> Hook for Rc<RefCell<H>> {
    fn before_step(&mut self, step: u64) {
        self.borrow_mut().before_step(step);
    }
    fn after_step(&mut self, step: u64, loss: f32) {
        self.borrow_mut().after_step(step, loss);
    }
    fn on_skip(&mut self, step: u64) {
        self.borrow_mut().on_skip(step);
    }
    fn after_fit(&mut self, steps: u64) {
        self.borrow_mut().after_fit(steps);
    }
}

/// Records losses (the built-in metric hook).
#[derive(Default)]
pub struct LossRecorder {
    pub losses: Vec<f32>,
    pub skips: u64,
}

impl Hook for LossRecorder {
    fn after_step(&mut self, _step: u64, loss: f32) {
        self.losses.push(loss);
    }
    fn on_skip(&mut self, _step: u64) {
        self.skips += 1;
    }
}

/// Drives an [`Engine`] over a stream of classification batches.
pub struct Trainer {
    engine: Engine,
    hooks: Vec<Box<dyn Hook>>,
}

impl Trainer {
    pub fn new(engine: Engine) -> Self {
        Trainer {
            engine,
            hooks: Vec::new(),
        }
    }

    /// Attaches a hook (fired in attachment order).
    pub fn add_hook(&mut self, hook: Box<dyn Hook>) {
        self.hooks.push(hook);
    }

    /// The wrapped engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Runs `steps` optimizer steps; `data(step)` produces the batch
    /// (inputs, integer targets). Returns the per-step losses.
    pub fn fit(
        &mut self,
        steps: u64,
        mut data: impl FnMut(u64) -> (Tensor, Vec<usize>),
    ) -> Vec<f32> {
        let ctx = self.engine.device().clone();
        let mut losses = Vec::with_capacity(steps as usize);
        for step in 0..steps {
            ctx.trace_phase(&format!("step{step}"), || {
                for h in &mut self.hooks {
                    h.before_step(step);
                }
                let (x, targets) = data(step);
                self.engine.zero_grad();
                let logits = self.engine.forward(&x);
                let flat_classes = *logits.dims().last().unwrap();
                let rows = logits.numel() / flat_classes;
                let (loss, dlogits) =
                    cross_entropy(&logits.reshape([rows, flat_classes]), &targets);
                let _ = self
                    .engine
                    .backward(&dlogits.reshaped(logits.shape().clone()));
                if self.engine.step() {
                    losses.push(loss);
                    for h in &mut self.hooks {
                        h.after_step(step, loss);
                    }
                } else {
                    for h in &mut self.hooks {
                        h.on_skip(step);
                    }
                }
            });
        }
        for h in &mut self.hooks {
            h.after_fit(steps);
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::{initialize, OptimizerSpec};
    use colossalai_autograd::{Gelu, Layer, Linear, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

    fn make_model(seed: u64) -> Box<dyn Layer> {
        let mut rng = init::rng(seed);
        Box::new(Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 8, true, &mut rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
        ]))
    }

    struct CountingHook {
        befores: u64,
        afters: u64,
        fits: u64,
    }

    impl Hook for CountingHook {
        fn before_step(&mut self, _s: u64) {
            self.befores += 1;
        }
        fn after_step(&mut self, _s: u64, _l: f32) {
            self.afters += 1;
        }
        fn after_fit(&mut self, _s: u64) {
            self.fits += 1;
        }
    }

    #[test]
    fn trainer_reduces_loss_and_fires_hooks() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let engine = initialize(
                ctx,
                &cfg,
                1,
                make_model(60),
                OptimizerSpec::AdamW {
                    lr: 0.02,
                    weight_decay: 0.0,
                },
            );
            let mut trainer = Trainer::new(engine);
            trainer.add_hook(Box::new(CountingHook {
                befores: 0,
                afters: 0,
                fits: 0,
            }));
            let mut rng = init::rng(61);
            let x = init::uniform([6, 4], -1.0, 1.0, &mut rng);
            let t: Vec<usize> = (0..6).map(|i| i % 3).collect();
            let losses = trainer.fit(20, |_| (x.clone(), t.clone()));
            assert_eq!(losses.len(), 20);
            assert!(losses.last().unwrap() < &(losses[0] * 0.7), "{losses:?}");
        });
    }

    #[test]
    fn loss_recorder_collects() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let engine = initialize(
                ctx,
                &cfg,
                1,
                make_model(62),
                OptimizerSpec::Sgd {
                    lr: 0.05,
                    momentum: 0.9,
                },
            );
            let mut trainer = Trainer::new(engine);
            let recorder = Rc::new(RefCell::new(LossRecorder::default()));
            trainer.add_hook(Box::new(Rc::clone(&recorder)));
            let mut rng = init::rng(63);
            let x = init::uniform([4, 4], -1.0, 1.0, &mut rng);
            let losses = trainer.fit(5, |_| (x.clone(), vec![0, 1, 2, 0]));
            assert_eq!(losses.len(), 5);
            assert_eq!(recorder.borrow().losses, losses);
            assert_eq!(recorder.borrow().skips, 0);
        });
    }

    #[test]
    fn trainer_handles_3d_logits() {
        // token-level targets (BERT-style [b, s, vocab] logits)
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let mut rng = init::rng(64);
            let model: Box<dyn Layer> = Box::new(Linear::from_rng("l", 4, 5, true, &mut rng));
            let engine = initialize(
                ctx,
                &cfg,
                1,
                model,
                OptimizerSpec::AdamW {
                    lr: 0.05,
                    weight_decay: 0.0,
                },
            );
            let mut trainer = Trainer::new(engine);
            let x = init::uniform([2, 3, 4], -1.0, 1.0, &mut rng);
            let targets: Vec<usize> = (0..6).map(|i| i % 5).collect();
            let losses = trainer.fit(10, |_| (x.clone(), targets.clone()));
            assert!(losses.last().unwrap() < &losses[0]);
        });
    }
}
