//! Pipeline parallelism: consecutive layer chunks on consecutive devices,
//! micro-batched GPipe and 1F1B schedules with rematerialization (the GPipe
//! paper's own design: stages keep only micro-batch *inputs* and recompute
//! activations during backward).
//!
//! Activations/gradients move between stages with point-to-point messages;
//! the virtual clock therefore exhibits the real pipeline *bubble*, which
//! the tests check against the classic `(p-1)/(m+p-1)` fraction.

use colossalai_autograd::{Layer, Param};
use colossalai_comm::{DeviceCtx, Span, SpanKind, Track};
use colossalai_tensor::Tensor;
use colossalai_topology::DeviceId;
use std::collections::HashMap;

/// Pipeline schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// All forwards, then all backwards (reverse order).
    GPipe,
    /// One-forward-one-backward steady state: same bubble, far fewer
    /// in-flight micro-batches.
    OneFOneB,
}

/// Ideal bubble fraction of a `p`-stage pipeline running `m` micro-batches.
pub fn bubble_fraction(p: usize, m: usize) -> f64 {
    (p as f64 - 1.0) / (m as f64 + p as f64 - 1.0)
}

/// Bubble fraction of Megatron's *interleaved* schedule with `v` virtual
/// stages (model chunks) per device: the fill shrinks by `1/v` at the cost
/// of `v`x the inter-stage communication. (Listed as related work the
/// paper's schedules build on; the `v = 2` column of the
/// `pipeline_schedules` bench.)
pub fn interleaved_bubble_fraction(p: usize, m: usize, v: usize) -> f64 {
    assert!(v >= 1);
    (p as f64 - 1.0) / (v as f64 * m as f64 + p as f64 - 1.0)
}

/// Evenly partitions `n_layers` among `n_stages` (earlier stages take the
/// remainder), returning `(start, end)` per stage.
pub fn partition_layers(n_layers: usize, n_stages: usize) -> Vec<(usize, usize)> {
    assert!(
        n_stages >= 1 && n_layers >= n_stages,
        "cannot split {n_layers} layers into {n_stages} stages"
    );
    let base = n_layers / n_stages;
    let extra = n_layers % n_stages;
    let mut out = Vec::with_capacity(n_stages);
    let mut start = 0;
    for s in 0..n_stages {
        let len = base + usize::from(s < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

const GRAD_TAG_OFFSET: u64 = 1 << 32;

/// One schedule event reconstructed from the world tracer: what a stage
/// did and when (virtual time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageEvent {
    /// Micro-batch id.
    pub micro: u64,
    /// True for forward, false for backward.
    pub forward: bool,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
}

/// Extracts `rank`'s pipeline compute events from a shared-tracer snapshot
/// (the `F{micro}` / `B{micro}` spans recorded by [`PipelineStage`]),
/// ordered by virtual start time.
pub fn stage_events(spans: &[Span], rank: DeviceId) -> Vec<StageEvent> {
    let mut out: Vec<StageEvent> = spans
        .iter()
        .filter(|s| s.track == Track::Device(rank))
        .filter_map(|s| {
            let SpanKind::Compute { label } = &s.kind else {
                return None;
            };
            let (forward, digits) = match (label.strip_prefix('F'), label.strip_prefix('B')) {
                (Some(d), _) => (true, d),
                (_, Some(d)) => (false, d),
                _ => return None,
            };
            let micro = digits.parse().ok()?;
            Some(StageEvent {
                micro,
                forward,
                start: s.start,
                end: s.end,
            })
        })
        .collect();
    out.sort_by(|a, b| a.start.total_cmp(&b.start));
    out
}

/// The last stage's loss callback: `(micro_batch, output) -> (loss, dOutput)`.
pub type LossFn<'a> = &'a mut dyn FnMut(u64, &Tensor) -> (f32, Tensor);

/// One device's pipeline stage.
pub struct PipelineStage<M: Layer> {
    ctx: DeviceCtx,
    layers: M,
    stage: usize,
    n_stages: usize,
    prev: Option<DeviceId>,
    next: Option<DeviceId>,
    /// Seconds of modeled compute per micro-batch forward (backward is
    /// charged at 2x). Zero disables compute charging.
    pub micro_forward_seconds: f64,
    saved_inputs: HashMap<u64, Tensor>,
    saved_outputs: HashMap<u64, Tensor>,
    /// Peak number of in-flight micro-batches (the schedule's activation
    /// memory footprint).
    pub peak_in_flight: usize,
}

impl<M: Layer> PipelineStage<M> {
    /// Builds the stage for device `devices[stage]`; `devices` lists the
    /// pipeline order.
    pub fn new(ctx: &DeviceCtx, devices: &[DeviceId], layers: M) -> Self {
        let stage = devices
            .iter()
            .position(|&d| d == ctx.rank())
            .expect("calling device not in pipeline");
        PipelineStage {
            ctx: ctx.clone(),
            layers,
            stage,
            n_stages: devices.len(),
            prev: (stage > 0).then(|| devices[stage - 1]),
            next: (stage + 1 < devices.len()).then(|| devices[stage + 1]),
            micro_forward_seconds: 0.0,
            saved_inputs: HashMap::new(),
            saved_outputs: HashMap::new(),
            peak_in_flight: 0,
        }
    }

    /// Stage index.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// True for the first stage (feeds data).
    pub fn is_first(&self) -> bool {
        self.stage == 0
    }

    /// True for the last stage (computes the loss).
    pub fn is_last(&self) -> bool {
        self.stage + 1 == self.n_stages
    }

    fn forward_micro(&mut self, micro: u64, input: Option<&Tensor>) {
        let x = match (self.prev, input) {
            (None, Some(x)) => x.clone(),
            (Some(prev), None) => self.ctx.recv(prev, micro),
            _ => panic!("stage {} given wrong input source", self.stage),
        };
        if self.micro_forward_seconds > 0.0 {
            let start = self.ctx.clock();
            self.ctx.advance(self.micro_forward_seconds);
            if self.ctx.tracing() {
                self.ctx.trace_span(
                    SpanKind::Compute {
                        label: format!("F{micro}"),
                    },
                    start,
                );
            }
        }
        let y = self.layers.forward(&x);
        self.saved_inputs.insert(micro, x);
        self.peak_in_flight = self.peak_in_flight.max(self.saved_inputs.len());
        if let Some(next) = self.next {
            self.ctx.send(next, micro, y);
        } else {
            self.saved_outputs.insert(micro, y);
        }
    }

    /// `loss_dy` carries the last stage's `(loss, dOutput)` computed by the
    /// caller from the saved output; inner stages pass `None` and receive
    /// their upstream gradient from the next stage.
    fn backward_micro(&mut self, micro: u64, loss_dy: Option<(f32, Tensor)>) -> f32 {
        let (loss, dy) = if let Some(next) = self.next {
            (0.0, self.ctx.recv(next, GRAD_TAG_OFFSET + micro))
        } else {
            loss_dy.expect("last stage requires a loss gradient")
        };
        let x = self
            .saved_inputs
            .remove(&micro)
            .expect("backward before forward for this micro-batch");
        // rematerialize (GPipe-style) then walk back
        if self.micro_forward_seconds > 0.0 {
            // recompute + backward: ~2x a forward, plus the rematerialized
            // forward itself
            let start = self.ctx.clock();
            self.ctx.advance(3.0 * self.micro_forward_seconds);
            if self.ctx.tracing() {
                self.ctx.trace_span(
                    SpanKind::Compute {
                        label: format!("B{micro}"),
                    },
                    start,
                );
            }
        }
        let _ = self.layers.forward(&x);
        let dx = self.layers.backward(&dy);
        if let Some(prev) = self.prev {
            self.ctx.send(prev, GRAD_TAG_OFFSET + micro, dx);
        }
        loss
    }

    /// Runs one training step of `m` micro-batches under `schedule`.
    ///
    /// * first stage: `inputs` supplies the `m` micro-batch tensors;
    /// * last stage: `loss_fn(micro, output) -> (loss, dOutput)`;
    /// * returns the mean micro-batch loss on the last stage, 0 elsewhere.
    ///
    /// Parameter gradients accumulate across micro-batches; callers step the
    /// optimizer afterwards.
    pub fn run_step(
        &mut self,
        schedule: Schedule,
        inputs: Option<&[Tensor]>,
        mut loss_fn: Option<LossFn<'_>>,
        m: usize,
    ) -> f32 {
        assert!(m >= 1, "need at least one micro-batch");
        if self.is_first() {
            assert_eq!(
                inputs.map(<[Tensor]>::len),
                Some(m),
                "first stage needs m inputs"
            );
        }
        let input_at = |i: usize, inputs: Option<&[Tensor]>| inputs.map(|xs| xs[i].clone());
        let mut total_loss = 0.0;
        // the last stage computes (loss, dOutput) from its saved output
        // before entering backward_micro
        macro_rules! bwd {
            ($i:expr) => {{
                let micro = $i as u64;
                let loss_dy = if self.is_last() {
                    let out = self
                        .saved_outputs
                        .remove(&micro)
                        .expect("backward before forward for this micro-batch");
                    let f = loss_fn
                        .as_mut()
                        .expect("last stage requires a loss function");
                    Some(f(micro, &out))
                } else {
                    None
                };
                total_loss += self.backward_micro(micro, loss_dy);
            }};
        }
        match schedule {
            Schedule::GPipe => {
                for i in 0..m {
                    let x = input_at(i, inputs);
                    self.forward_micro(i as u64, x.as_ref());
                }
                for i in (0..m).rev() {
                    bwd!(i);
                }
            }
            Schedule::OneFOneB => {
                let warmup = (self.n_stages - 1 - self.stage).min(m);
                for i in 0..warmup {
                    let x = input_at(i, inputs);
                    self.forward_micro(i as u64, x.as_ref());
                }
                for i in 0..m - warmup {
                    let x = input_at(warmup + i, inputs);
                    self.forward_micro((warmup + i) as u64, x.as_ref());
                    bwd!(i);
                }
                for i in m - warmup..m {
                    bwd!(i);
                }
            }
        }
        total_loss / m as f32
    }
}

impl<M: Layer> Layer for PipelineStage<M> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.layers.forward(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.layers.backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.layers.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::{Gelu, Linear, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;
    use colossalai_topology::systems::system_i;

    /// A 4-layer MLP split into `n_stages` chunks; every rank builds the
    /// full model from the same seed and keeps its slice.
    fn full_layers(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = init::rng(seed);
        vec![
            Box::new(Linear::from_rng("l0", 4, 8, true, &mut rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("l1", 8, 8, true, &mut rng)),
            Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
        ]
    }

    fn stage_slice(seed: u64, n_stages: usize, stage: usize) -> Sequential {
        let mut all = full_layers(seed);
        let parts = partition_layers(all.len(), n_stages);
        let (start, end) = parts[stage];
        // drain preserves order; take the slice for this stage
        let tail = all.split_off(start);
        let mut tail = tail;
        let rest = tail.split_off(end - start);
        drop(rest);
        drop(all);
        Sequential::new(tail)
    }

    fn serial_reference(
        seed: u64,
        micros: &[Tensor],
        targets: &[Vec<usize>],
    ) -> (f32, Vec<Tensor>) {
        let mut model = Sequential::new(full_layers(seed));
        let mut loss_sum = 0.0;
        for (x, t) in micros.iter().zip(targets) {
            let logits = model.forward(x);
            let (loss, dlogits) = cross_entropy(&logits, t);
            loss_sum += loss;
            let _ = model.backward(&dlogits);
        }
        let mut grads = Vec::new();
        model.visit_params(&mut |p| grads.push(p.grad().clone()));
        (loss_sum / micros.len() as f32, grads)
    }

    fn run_pipeline(schedule: Schedule, p: usize, m: usize) -> (f32, Vec<Tensor>, Vec<usize>) {
        let seed = 1234;
        let mut rng = init::rng(77);
        let micros: Vec<Tensor> = (0..m)
            .map(|_| init::uniform([2, 4], -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Vec<usize>> = (0..m).map(|i| vec![i % 3, (i + 1) % 3]).collect();

        let world = World::new(system_i());
        let targets2 = targets.clone();
        let micros2 = micros.clone();
        let results = world.run_on(p, |ctx| {
            let devices: Vec<usize> = (0..p).collect();
            let mut stage = PipelineStage::new(ctx, &devices, stage_slice(seed, p, ctx.rank()));
            let mut lf = |micro: u64, out: &Tensor| {
                let (loss, d) = cross_entropy(out, &targets2[micro as usize]);
                (loss, d)
            };
            let loss = stage.run_step(
                schedule,
                stage.is_first().then_some(&micros2[..]),
                stage
                    .is_last()
                    .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
                m,
            );
            let mut grads = Vec::new();
            stage.visit_params(&mut |pp| grads.push(pp.grad().clone()));
            (loss, grads, stage.peak_in_flight)
        });
        // losses: only last stage reports
        let loss = results[p - 1].0;
        // concatenate stage grads in stage order = serial param order
        let grads: Vec<Tensor> = results.iter().flat_map(|(_, g, _)| g.clone()).collect();
        let peaks: Vec<usize> = results.iter().map(|&(_, _, pk)| pk).collect();
        let (want_loss, want_grads) = serial_reference(seed, &micros, &targets);
        assert!(
            (loss - want_loss).abs() < 1e-5,
            "loss {loss} vs {want_loss}"
        );
        assert_eq!(grads.len(), want_grads.len());
        for (g, w) in grads.iter().zip(&want_grads) {
            assert!(g.allclose(w, 1e-4), "grad diff {}", g.max_abs_diff(w));
        }
        (loss, grads, peaks)
    }

    #[test]
    fn gpipe_matches_serial_2_stages() {
        run_pipeline(Schedule::GPipe, 2, 4);
    }

    #[test]
    fn gpipe_matches_serial_3_stages() {
        run_pipeline(Schedule::GPipe, 3, 5);
    }

    #[test]
    fn one_f_one_b_matches_serial() {
        run_pipeline(Schedule::OneFOneB, 2, 4);
        run_pipeline(Schedule::OneFOneB, 3, 6);
    }

    #[test]
    fn one_f_one_b_has_lower_peak_memory() {
        let (_, _, gpipe_peaks) = run_pipeline(Schedule::GPipe, 3, 6);
        let (_, _, fb_peaks) = run_pipeline(Schedule::OneFOneB, 3, 6);
        // GPipe's first stage holds all m micro-batches; 1F1B holds at most
        // the pipeline depth
        assert_eq!(gpipe_peaks[0], 6);
        assert!(fb_peaks[0] <= 3, "1F1B peak {} too high", fb_peaks[0]);
    }

    #[test]
    fn schedules_produce_matching_gradients() {
        // GPipe drains micro-batches in reverse, 1F1B in FIFO order, so
        // float accumulation order differs — equal up to rounding
        let (_, g1, _) = run_pipeline(Schedule::GPipe, 3, 6);
        let (_, g2, _) = run_pipeline(Schedule::OneFOneB, 3, 6);
        for (a, b) in g1.iter().zip(&g2) {
            assert!(
                a.allclose(b, 1e-5),
                "schedules disagree by {}",
                a.max_abs_diff(b)
            );
        }
    }

    #[test]
    fn bubble_fraction_formula() {
        assert!((bubble_fraction(4, 1) - 0.75).abs() < 1e-12);
        assert!((bubble_fraction(4, 12) - 3.0 / 15.0).abs() < 1e-12);
        assert!(bubble_fraction(4, 1000) < 0.01);
    }

    #[test]
    fn interleaving_shrinks_the_bubble() {
        // v = 1 degenerates to the plain formula; more chunks, less bubble
        assert_eq!(interleaved_bubble_fraction(4, 8, 1), bubble_fraction(4, 8));
        assert!(interleaved_bubble_fraction(4, 8, 2) < bubble_fraction(4, 8));
        assert!(interleaved_bubble_fraction(4, 8, 4) < interleaved_bubble_fraction(4, 8, 2));
    }

    #[test]
    fn virtual_time_shows_pipeline_bubble() {
        // charge 1 ms per micro forward; the last stage's clock should be
        // close to ideal_time = (m + p - 1) * t_fwd + m * 3 t_fwd-ish
        let p = 4;
        let m = 8;
        let t_fwd = 1e-3;
        let seed = 555;
        let mut rng = init::rng(78);
        let micros: Vec<Tensor> = (0..m)
            .map(|_| init::uniform([2, 4], -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Vec<usize>> = (0..m).map(|i| vec![i % 3, (i + 1) % 3]).collect();
        let world = World::new(system_i());
        let clocks = world.run_on(p, |ctx| {
            let devices: Vec<usize> = (0..p).collect();
            let mut stage = PipelineStage::new(ctx, &devices, stage_slice(seed, p, ctx.rank()));
            stage.micro_forward_seconds = t_fwd;
            let mut lf = |micro: u64, out: &Tensor| cross_entropy(out, &targets[micro as usize]);
            let _ = stage.run_step(
                Schedule::GPipe,
                stage.is_first().then_some(&micros[..]),
                stage
                    .is_last()
                    .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
                m,
            );
            ctx.clock()
        });
        let step_time = clocks.iter().cloned().fold(0.0, f64::max);
        // per-device work: m micros * (1 fwd + 3 bwd-equivalent) = 4m t_fwd;
        // pipeline fill adds ~(p-1) * (1 + 3) t_fwd
        let ideal = (4 * m) as f64 * t_fwd;
        let with_bubble = ideal + 4.0 * (p as f64 - 1.0) * t_fwd;
        assert!(
            step_time >= ideal && step_time < with_bubble * 1.3,
            "step {step_time} vs ideal {ideal} / bubble bound {with_bubble}"
        );
        // and more micro-batches shrink the *relative* bubble
        assert!(step_time / ideal < 1.0 + 1.5 * bubble_fraction(p, m));
    }

    #[test]
    fn shared_tracer_reconstructs_schedule() {
        // the gantt view is now derived from the world tracer; per stage it
        // must see m forward + m backward compute segments with the charged
        // durations, non-overlapping in virtual time
        let p = 3;
        let m = 4;
        let t_fwd = 1e-3;
        let seed = 555;
        let mut rng = init::rng(79);
        let micros: Vec<Tensor> = (0..m)
            .map(|_| init::uniform([2, 4], -1.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<Vec<usize>> = (0..m).map(|i| vec![i % 3, (i + 1) % 3]).collect();
        let world = World::new(system_i());
        world.set_tracing(true);
        world.run_on(p, |ctx| {
            let devices: Vec<usize> = (0..p).collect();
            let mut stage = PipelineStage::new(ctx, &devices, stage_slice(seed, p, ctx.rank()));
            stage.micro_forward_seconds = t_fwd;
            let mut lf = |micro: u64, out: &Tensor| cross_entropy(out, &targets[micro as usize]);
            let _ = stage.run_step(
                Schedule::OneFOneB,
                stage.is_first().then_some(&micros[..]),
                stage
                    .is_last()
                    .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
                m,
            );
        });
        let spans = world.trace();
        for rank in 0..p {
            let ev = stage_events(&spans, rank);
            assert_eq!(ev.len(), 2 * m, "rank {rank}: {ev:?}");
            assert_eq!(ev.iter().filter(|e| e.forward).count(), m);
            for w in ev.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12, "rank {rank} overlaps");
            }
            for e in &ev {
                let want = if e.forward { t_fwd } else { 3.0 * t_fwd };
                assert!(
                    (e.end - e.start - want).abs() < 1e-12,
                    "rank {rank} event {e:?}"
                );
            }
        }
    }

    #[test]
    fn partition_layers_covers_all() {
        assert_eq!(partition_layers(4, 2), vec![(0, 2), (2, 4)]);
        assert_eq!(partition_layers(5, 3), vec![(0, 2), (2, 4), (4, 5)]);
        assert_eq!(partition_layers(3, 3), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn partition_rejects_more_stages_than_layers() {
        partition_layers(2, 3);
    }
}
