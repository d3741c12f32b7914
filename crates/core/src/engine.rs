//! The execution engine behind `colossalai.initialize` (Listing 1): wraps a
//! model with the configured gradient reduction, optimizer, mixed
//! precision and clipping, behind the same five calls the paper's snippet
//! uses — `zero_grad / forward / criterion / backward / step`.
//!
//! Every optimizer steps in one order — reduce (unless the overlapped
//! backward already did) → unscale + finite check → clip → update — because
//! only the *reduced* gradient is the same on every rank: a rank judging
//! its local gradient would skip or scale a step its peers take. The finite
//! flag and the squared norm are agreed over the ranks whose reduced
//! gradients differ: every rank under ZeRO, whose shards differ across the
//! data-parallel group, else the tensor-parallel group.

use crate::amp::GradScaler;
use crate::config::Config;
use crate::context::{ParallelAxis, ParallelContext};
use colossalai_autograd::{AdamW, Layer, Sgd};
use colossalai_comm::{DeviceCtx, Group};
use colossalai_parallel::bucket::GradReducer;
use colossalai_parallel::zero::{ZeroOptimizer, ZeroStage};
use colossalai_tensor::Tensor;

/// Optimizer choice passed to [`initialize`].
pub enum OptimizerSpec {
    AdamW { lr: f32, weight_decay: f32 },
    Sgd { lr: f32, momentum: f32 },
}

enum EngineOptimizer {
    AdamW(AdamW),
    Sgd(Sgd),
    // boxed: ZeroOptimizer embeds its DeviceCtx + Group handles and is an
    // order of magnitude larger than the dense-optimizer variants
    Zero(Box<ZeroOptimizer>),
}

/// The training engine: owns the model and drives one rank's training.
pub struct Engine {
    model: Box<dyn Layer>,
    optimizer: EngineOptimizer,
    dp_group: Option<Group>,
    /// The ranks whose reduced gradients differ, over which the overflow
    /// flag and the clip norm are agreed: the whole run under ZeRO (with
    /// one pipeline stage, DP x TP is every rank), else the tensor-parallel
    /// group, whose ranks hold different shards of the parameters.
    span: Option<Group>,
    ctx: DeviceCtx,
    /// The gradient reducer of non-ZeRO engines with data-parallel peers or
    /// replicated parameters (a ZeRO optimizer holds its own sharding
    /// reducer).
    reducer: Option<GradReducer>,
    /// `Some` once an overlapped backward reduced this step's gradients, so
    /// `step` must not reduce them again: ZeRO's shards, or empty for dense
    /// optimizers, whose reduced gradients are written back into the model.
    reduced: Option<Vec<Tensor>>,
    /// A ZeRO-3 step released the parameters; the next read gathers them.
    released: bool,
    scaler: Option<GradScaler>,
    grad_clip: f32,
    /// Micro-batches per optimizer step (>= 1).
    accumulation: u32,
    micro_steps: u32,
    steps: u64,
    skipped: u64,
}

/// Builds an [`Engine`] from a config — the Rust analogue of
/// `colossalai.initialize(model, optimizer, ...)`.
///
/// `world` is the number of devices participating in this run (the closure
/// count passed to `World::run_on`).
///
/// No caller names a process group. A non-ZeRO engine reduces gradients
/// through one [`GradReducer`] when the rank has data-parallel peers or the
/// model holds parameters its parallel mode replicated (`Param::replicas`
/// names the groups that sum them). A ZeRO-3 engine holds only shards
/// between steps and gathers the parameters again at the next read.
///
/// The model trains as given: the engine checkpoints no activations. One
/// checkpoint around the whole model would recompute every activation at
/// the start of backward and so lower no peak; checkpointing belongs around
/// each block.
pub fn initialize(
    ctx: &DeviceCtx,
    config: &Config,
    world: usize,
    mut model: Box<dyn Layer>,
    optimizer: OptimizerSpec,
) -> Engine {
    config.validate().expect("invalid configuration");
    let stages = config.pipeline_size();
    assert!(
        stages == 1,
        "parallel.pipeline.size = {stages}: initialize() would train the whole model on every \
         stage rank; build the stages with parallel::PipelineStage"
    );
    let pctx = ParallelContext::new(config, ctx.rank(), world);
    let dp_members = pctx.group_members(ParallelAxis::Data);
    let dp_group = (dp_members.len() > 1).then(|| ctx.group(&dp_members));
    let span_members = match config.zero {
        Some(_) => (0..world).collect(),
        None => pctx.group_members(ParallelAxis::Tensor),
    };
    let span = (span_members.len() > 1).then(|| ctx.group(&span_members));

    let optimizer = match (config.zero, optimizer) {
        (Some(z), OptimizerSpec::AdamW { lr, weight_decay }) => {
            let stage = match z.stage {
                1 => ZeroStage::One,
                2 => ZeroStage::Two,
                _ => ZeroStage::Three,
            };
            let group = dp_group.clone().unwrap_or_else(|| ctx.group(&[ctx.rank()]));
            EngineOptimizer::Zero(Box::new(ZeroOptimizer::with_bucket_bytes(
                ctx,
                &group,
                model.as_mut(),
                stage,
                AdamW::new(lr, weight_decay),
                config.bucket_bytes(),
            )))
        }
        (Some(_), OptimizerSpec::Sgd { .. }) => {
            panic!("ZeRO requires the AdamW optimizer in this reproduction")
        }
        (None, OptimizerSpec::AdamW { lr, weight_decay }) => {
            EngineOptimizer::AdamW(AdamW::new(lr, weight_decay))
        }
        (None, OptimizerSpec::Sgd { lr, momentum }) => EngineOptimizer::Sgd(Sgd::new(lr, momentum)),
    };

    // non-ZeRO engines reduce gradients through fused size-capped buckets:
    // the replica sums the model's parameters name and the data-parallel mean
    let reducer = (!matches!(optimizer, EngineOptimizer::Zero(_)))
        .then(|| GradReducer::data_parallel(model.as_mut(), config.bucket_bytes()))
        .filter(|reducer| dp_group.is_some() || reducer.sums_replicas());
    Engine {
        model,
        optimizer,
        dp_group,
        span,
        ctx: ctx.clone(),
        reducer,
        reduced: None,
        released: false,
        scaler: config.mixed_precision.then(GradScaler::default),
        grad_clip: config.grad_clip,
        accumulation: config.gradient_accumulation.max(1),
        micro_steps: 0,
        steps: 0,
        skipped: 0,
    }
}

impl Engine {
    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.model.zero_grad();
        self.reduced = None;
    }

    /// Forward pass, over [`Engine::model_mut`]'s gathered parameters.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let ctx = self.ctx.clone();
        ctx.trace_phase("forward", || self.model_mut().forward(x))
    }

    /// Backward pass from the loss gradient (scaled when mixed precision is
    /// on). Returns the input gradient.
    ///
    /// Under ZeRO or with data-parallel peers or replica groups, and with
    /// no accumulation, gradient reduction happens *inside* this call: each
    /// bucket's collectives (a replicated bucket's sums, then the
    /// data-parallel one) launch on the comm stream as soon as the staged
    /// backward has produced its last gradient, and the streams join before
    /// returning, bit-identical to the blocking reduce `step` takes under
    /// accumulation, once per optimizer step (replica sums included).
    pub fn backward(&mut self, dloss: &Tensor) -> Tensor {
        let dy = match &self.scaler {
            Some(s) => s.scale_grad(dloss),
            None => dloss.clone(),
        };
        let ctx = self.ctx.clone();
        let model = &mut self.model;
        // overlap needs each backward to be a full, final gradient pass:
        // under accumulation, grads keep accumulating across micro-batches
        // and must only reduce once at the end
        let (dx, reduced) = ctx.trace_phase("backward", || {
            let dp = self.dp_group.as_ref();
            let (dx, reduced) = match (&mut self.optimizer, &mut self.reducer) {
                _ if self.accumulation > 1 => return (model.backward(&dy), None),
                (EngineOptimizer::Zero(o), _) => o.backward_overlapped(model, &dy),
                (_, Some(r)) => r.backward_overlapped(&ctx, dp, model, &dy),
                _ => return (model.backward(&dy), None),
            };
            (dx, Some(reduced))
        });
        self.reduced = reduced;
        dx
    }

    /// Synchronizes gradients, applies unscaling/clipping and takes one
    /// optimizer step. Returns `false` if the step was skipped because of
    /// fp16 overflow.
    ///
    /// Under gradient accumulation (`gradient_accumulation > 1` in the
    /// config), the first `n-1` calls only bank gradients (cheap, no
    /// communication); the n-th call synchronizes once with the mean over
    /// all accumulated micro-batches and applies the optimizer — the
    /// standard large-effective-batch recipe.
    pub fn step(&mut self) -> bool {
        self.micro_steps += 1;
        if self.micro_steps < self.accumulation {
            return true; // bank gradients, defer the optimizer
        }
        self.micro_steps = 0;
        let ctx = self.ctx.clone();
        ctx.trace_phase("optimizer", || self.apply_step())
    }

    fn apply_step(&mut self) -> bool {
        if self.accumulation > 1 {
            let inv = 1.0 / self.accumulation as f32;
            self.model.visit_params(&mut |p| p.grad_mut().scale(inv));
        }
        let ctx = &self.ctx;
        let dp = self.dp_group.as_ref();
        let model = self.model.as_mut();
        // 1. reduce: replica sums and the data-parallel mean, fused per
        // bucket, unless an overlapped backward already did
        let reducers = (&mut self.optimizer, &mut self.reducer);
        let mut shards = self.reduced.take().unwrap_or_else(|| match reducers {
            (EngineOptimizer::Zero(o), _) => o.reduce(model),
            (_, Some(r)) => r.reduce(ctx, dp, model),
            _ => Vec::new(),
        });
        // what the reduction left: ZeRO's shards or the model's own
        // gradients, which differ across the span
        let mut grads = match self.optimizer {
            EngineOptimizer::Zero(_) => Grads::Shards(&mut shards),
            _ => Grads::Model(model),
        };
        let span = self.span.as_ref();
        // 2. unscale; any overflow anywhere skips the step on every rank
        if let Some(scaler) = &mut self.scaler {
            let mut finite = true;
            grads.for_each(&mut |g| finite &= g.data().iter().all(|v| v.is_finite()));
            if let Some(g) = span {
                let overflow = Tensor::scalar(if finite { 0.0 } else { 1.0 });
                finite = g.all_reduce_max(ctx, overflow).item() == 0.0;
            }
            let Some(inv) = scaler.update(finite) else {
                self.model.zero_grad();
                self.skipped += 1;
                return false;
            };
            grads.for_each(&mut |g| g.scale(inv));
        }
        // 3. clip by the global norm over the span (replicated layers are
        // counted once per tensor-parallel rank, a consistent overestimate
        // that keeps replicas in lockstep — the Megatron approximation)
        if self.grad_clip > 0.0 {
            clip_grads(span.map(|g| (ctx, g)), &mut grads, self.grad_clip);
        }
        match &mut self.optimizer {
            EngineOptimizer::AdamW(o) => {
                o.step_layer(self.model.as_mut());
                self.model.zero_grad();
            }
            EngineOptimizer::Sgd(o) => {
                o.step_layer(self.model.as_mut());
                self.model.zero_grad();
            }
            EngineOptimizer::Zero(o) => {
                self.released = o.step_with_shards(self.model.as_mut(), &shards)
            }
        }
        self.steps += 1;
        true
    }

    /// The wrapped model; the first call after a ZeRO-3 step gathers it.
    pub fn model_mut(&mut self) -> &mut dyn Layer {
        let released = std::mem::take(&mut self.released);
        if let (true, EngineOptimizer::Zero(o)) = (released, &self.optimizer) {
            o.materialize_params(self.model.as_mut());
        }
        self.model.as_mut()
    }

    /// Optimizer steps taken (excluding overflow skips).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Steps skipped by the loss scaler.
    pub fn skipped_steps(&self) -> u64 {
        self.skipped
    }

    /// The loss scaler's current scale (`None` without `mixed_precision`).
    pub fn loss_scale(&self) -> Option<f32> {
        self.scaler.as_ref().map(GradScaler::scale)
    }

    /// The device context driving this engine.
    pub fn device(&self) -> &DeviceCtx {
        &self.ctx
    }

    /// Snapshots the model parameters (per-rank: tensor-parallel engines
    /// checkpoint their shards, which restore onto the same parallel
    /// layout), gathered after a ZeRO-3 step.
    pub fn state_dict(&mut self) -> colossalai_autograd::StateDict {
        colossalai_autograd::StateDict::capture(self.model_mut())
    }

    /// Restores a snapshot produced by [`Engine::state_dict`] on the same
    /// model/parallel layout. Under ZeRO the master shards are re-captured
    /// from the restored model: they, not the model, are what the next step
    /// updates and gathers.
    pub fn load_state_dict(&mut self, sd: &colossalai_autograd::StateDict) -> Result<(), String> {
        sd.restore(self.model.as_mut())?;
        self.released = false;
        if let EngineOptimizer::Zero(o) = &mut self.optimizer {
            o.reload_master(self.model.as_mut());
        }
        Ok(())
    }
}

/// One optimizer step's reduced gradients: the model's own, or the shards
/// ZeRO's reduction left.
enum Grads<'a> {
    Model(&'a mut dyn Layer),
    Shards(&'a mut [Tensor]),
}

impl Grads<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        match self {
            Grads::Model(model) => model.visit_params(&mut |p| f(p.grad_mut())),
            Grads::Shards(shards) => shards.iter_mut().for_each(f),
        }
    }
}

/// Clips `grads` to a global L2 norm of `max_norm` (Megatron-style) and
/// returns the pre-clip norm. With a `span` group each rank holds only part
/// of the gradient, so it contributes its local sum of squares: each crosses
/// as an f32 pair that carries 48 of its bits, and every rank adds them in
/// f64, so how the span cuts the gradient moves the sum far below an f32 ulp.
fn clip_grads(span: Option<(&DeviceCtx, &Group)>, grads: &mut Grads, max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    grads.for_each(&mut |g| sq += g.data().iter().map(|&g| g as f64 * g as f64).sum::<f64>());
    if let Some((ctx, group)) = span {
        let hi = sq as f32;
        let lo = if hi.is_finite() {
            (sq - hi as f64) as f32
        } else {
            0.0
        };
        let pairs = group.all_gather_cat(ctx, Tensor::from_vec([2], vec![hi, lo]), 0);
        sq = pairs.data().iter().map(|&x| x as f64).sum();
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm {
        let scale = max_norm / norm;
        grads.for_each(&mut |g| g.scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_autograd::{Linear, Param, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;
    use colossalai_topology::systems::system_i;

    fn make_model(seed: u64) -> Box<dyn Layer> {
        let mut rng = init::rng(seed);
        Box::new(Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 8, true, &mut rng)),
            Box::new(colossalai_autograd::Gelu::new()),
            Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
        ]))
    }

    #[test]
    #[should_panic(expected = "parallel.pipeline.size")]
    fn a_pipeline_axis_is_rejected_not_ignored() {
        let cfg = Config::from_json(r#"{ "parallel": { "pipeline": { "size": 2 } } }"#).unwrap();
        World::new(system_i()).run_on(2, |ctx| {
            let spec = OptimizerSpec::Sgd {
                lr: 0.1,
                momentum: 0.0,
            };
            let _ = initialize(ctx, &cfg, 2, make_model(9), spec);
        });
    }

    #[test]
    fn serial_engine_trains() {
        let world = World::new(system_i());
        let losses = world.run_on(1, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let mut engine = initialize(
                ctx,
                &cfg,
                1,
                make_model(10),
                OptimizerSpec::AdamW {
                    lr: 0.02,
                    weight_decay: 0.0,
                },
            );
            let mut rng = init::rng(11);
            let x = init::uniform([6, 4], -1.0, 1.0, &mut rng);
            let t: Vec<usize> = (0..6).map(|i| i % 3).collect();
            let mut losses = Vec::new();
            for _ in 0..15 {
                engine.zero_grad();
                let logits = engine.forward(&x);
                let (loss, dlogits) = cross_entropy(&logits, &t);
                losses.push(loss);
                let _ = engine.backward(&dlogits);
                assert!(engine.step());
            }
            losses
        });
        let l = &losses[0];
        assert!(l.last().unwrap() < &(l[0] * 0.7), "{l:?}");
    }

    #[test]
    fn dp_engine_matches_across_ranks() {
        let world = World::new(system_i());
        let params = world.run_on(4, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let mut engine = initialize(
                ctx,
                &cfg,
                4,
                make_model(20),
                OptimizerSpec::AdamW {
                    lr: 0.01,
                    weight_decay: 0.01,
                },
            );
            // per-rank data
            let mut rng = init::rng(21 + ctx.rank() as u64);
            for _ in 0..3 {
                let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
                let t = vec![0usize, 1];
                engine.zero_grad();
                let logits = engine.forward(&x);
                let (_, d) = cross_entropy(&logits, &t);
                let _ = engine.backward(&d);
                engine.step();
            }
            colossalai_parallel::data_parallel::flatten_params(engine.model_mut())
        });
        for p in &params[1..] {
            assert_eq!(p.data(), params[0].data(), "replicas diverged");
        }
    }

    /// Three AdamW steps of a 2-rank engine on `Linear(4, 3)` with per-rank
    /// data, each over `gradient_accumulation` micro-batches; `poison` puts
    /// `+inf` into rank 1's first loss gradient at step 0. Per rank: final
    /// parameters, `steps()`, `skipped_steps()`, loss scale.
    fn two_rank_run(json: &str, poison: bool) -> Vec<(Tensor, u64, u64, Option<f32>)> {
        let world = World::new(system_i());
        world.run_on(2, |ctx| {
            let cfg = Config::from_json(json).unwrap();
            let mut rng = init::rng(30);
            let model = Box::new(Linear::from_rng("l", 4, 3, true, &mut rng));
            let spec = OptimizerSpec::AdamW {
                lr: 0.01,
                weight_decay: 0.0,
            };
            let mut engine = initialize(ctx, &cfg, 2, model, spec);
            let mut rng = init::rng(31 + ctx.rank() as u64);
            for step in 0..3 {
                engine.zero_grad();
                for micro in 0..cfg.gradient_accumulation.max(1) {
                    let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
                    let logits = engine.forward(&x);
                    let (_, mut d) = cross_entropy(&logits, &[0, 2]);
                    if poison && step == 0 && micro == 0 && ctx.rank() == 1 {
                        d.data_mut()[0] = f32::INFINITY;
                    }
                    let _ = engine.backward(&d);
                    engine.step();
                }
            }
            let flat = colossalai_parallel::data_parallel::flatten_params(engine.model_mut());
            let scale = engine.loss_scale();
            (flat, engine.steps(), engine.skipped_steps(), scale)
        })
    }

    #[test]
    fn zero_engine_matches_plain_dp() {
        // 0 disables clipping; a threshold that never fires must not cost
        // the invariant either
        for clip in ["0", "1e6"] {
            let plain = two_rank_run(&format!(r#"{{ "grad_clip": {clip} }}"#), false);
            for stage in 1..=3 {
                let json = format!(r#"{{ "grad_clip": {clip}, "zero": {{ "stage": {stage} }} }}"#);
                let z = two_rank_run(&json, false);
                assert_eq!(z[0].0.data(), plain[0].0.data(), "ZeRO-{stage} != DDP");
            }
        }
    }

    #[test]
    fn zero_clips_the_reduced_gradient_like_plain_dp() {
        // a threshold that fires every step: each rank clipping its local,
        // unreduced gradient used to leave ZeRO 6e-3 away from DP
        let plain = two_rank_run(r#"{ "grad_clip": 0.05 }"#, false);
        assert_eq!(plain[0].0.data(), plain[1].0.data());
        for stage in 1..=3 {
            let json = format!(r#"{{ "grad_clip": 0.05, "zero": {{ "stage": {stage} }} }}"#);
            let z = two_rank_run(&json, false);
            assert_eq!(
                z[0].0.data(),
                z[1].0.data(),
                "ZeRO-{stage} replicas diverged"
            );
            let gap = z[0].0.max_abs_diff(&plain[0].0);
            assert!(
                gap <= 1e-6,
                "ZeRO-{stage} + clip is {gap:e} away from DP + clip"
            );
        }
    }

    #[test]
    fn overflow_on_one_rank_skips_the_step_on_every_rank() {
        // rank 1 alone overflows at step 0: the reduction must still run on
        // both ranks (ZeRO used to deadlock here), and both must skip. The
        // backward reduces unless gradients accumulate, which takes the
        // blocking reduce in `step`
        for (accumulation, stages) in [(1, 0..=3), (2, 0..=3)] {
            let base =
                format!(r#""mixed_precision": true, "gradient_accumulation": {accumulation}"#);
            let plain = two_rank_run(&format!("{{ {base} }}"), true);
            for stage in stages {
                let runs = match stage {
                    0 => plain.clone(),
                    s => two_rank_run(
                        &format!(r#"{{ {base}, "zero": {{ "stage": {s} }} }}"#),
                        true,
                    ),
                };
                let what = format!("stage {stage}, accumulation {accumulation}");
                for (params, steps, skipped, scale) in &runs {
                    assert_eq!((*steps, *skipped), (2, 1), "{what}");
                    assert_eq!(*scale, Some(32768.0), "{what}");
                    assert_eq!(params.data(), plain[0].0.data(), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_stage3_step_leaves_shards_and_the_next_read_gathers_once() {
        // all-gathers inside `step()`, then in a first and a second
        // `model_mut()`: stages 1 and 2 gather in the step, stage 3's step
        // releases the parameters and the first read after it gathers them
        use colossalai_comm::OpKind;
        use colossalai_parallel::bucket::BucketPlan;
        let buckets = BucketPlan::for_model(make_model(80).as_mut(), 0)
            .buckets
            .len() as u64;
        let world = World::new(system_i());
        for stage in 1..=3 {
            let json =
                format!(r#"{{ "zero": {{ "stage": {stage} }}, "comm": {{ "bucket_mb": 0 }} }}"#);
            let cfg = Config::from_json(&json).unwrap();
            let counts = world.run_on(1, |ctx| {
                let spec = OptimizerSpec::AdamW {
                    lr: 0.01,
                    weight_decay: 0.0,
                };
                let mut engine = initialize(ctx, &cfg, 1, make_model(80), spec);
                let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(81));
                let (_, d) = cross_entropy(&engine.forward(&x), &[0, 2]);
                let _ = engine.backward(&d);
                let gathers = || world.stats().ops_of(OpKind::AllGather);
                let mut at = gathers();
                let mut since = || {
                    let now = gathers();
                    now - std::mem::replace(&mut at, now)
                };
                assert!(engine.step());
                let step = since();
                let _ = engine.model_mut();
                let first = since();
                let _ = engine.model_mut();
                [step, first, since()]
            });
            let want = match stage {
                3 => [0, buckets, 0],
                _ => [buckets, 0, 0],
            };
            assert_eq!(
                counts[0], want,
                "stage {stage}: step, first and second read"
            );
        }
    }

    #[test]
    fn overlapped_engine_matches_blocking_bitwise_and_is_no_slower() {
        use colossalai_parallel::data_parallel::flatten_params;
        use colossalai_topology::systems::system_iii;
        // the engine (which overlaps) against the same model and reducer
        // driven blocking (backward, then reduce), both with one bucket per
        // parameter so several buckets fire during the backward
        let run = |engine: bool| {
            let world = World::new(system_iii());
            let mut out = world.run_on(4, |ctx| {
                let cfg = Config::from_json(r#"{ "comm": { "bucket_mb": 0 } }"#).unwrap();
                let spec = OptimizerSpec::AdamW {
                    lr: 0.01,
                    weight_decay: 0.01,
                };
                let mut rng = init::rng(61 + ctx.rank() as u64);
                let mut batches = (0..3).map(|_| init::uniform([2, 4], -1.0, 1.0, &mut rng));
                let flat = if engine {
                    let mut engine = initialize(ctx, &cfg, 4, make_model(60), spec);
                    for x in &mut batches {
                        engine.zero_grad();
                        let (_, d) = cross_entropy(&engine.forward(&x), &[0, 1]);
                        let _ = engine.backward(&d);
                        engine.step();
                    }
                    flatten_params(engine.model_mut())
                } else {
                    let g = ctx.world_group(4);
                    let mut model = make_model(60);
                    let mut reducer = GradReducer::data_parallel(model.as_mut(), 0);
                    let mut opt = AdamW::new(0.01, 0.01);
                    for x in &mut batches {
                        model.zero_grad();
                        let (_, d) = cross_entropy(&model.forward(&x), &[0, 1]);
                        let _ = model.backward(&d);
                        reducer.reduce(ctx, Some(&g), model.as_mut());
                        opt.step_layer(model.as_mut());
                    }
                    flatten_params(model.as_mut())
                };
                (flat, ctx.clock())
            });
            out.swap_remove(0)
        };
        let (blocking, t_block) = run(false);
        let (overlapped, t_overlap) = run(true);
        assert_eq!(
            blocking.data(),
            overlapped.data(),
            "overlap must not change the trajectory"
        );
        // the two paths accumulate the same per-op costs onto different
        // clocks (main vs comm stream), so allow one float-rounding ULP
        assert!(
            t_overlap <= t_block * (1.0 + 1e-12),
            "overlap slower: {t_overlap} vs {t_block}"
        );
    }

    #[test]
    fn mixed_precision_skips_on_overflow() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let cfg = Config::from_json(r#"{ "mixed_precision": true }"#).unwrap();
            let mut engine = initialize(
                ctx,
                &cfg,
                1,
                make_model(40),
                OptimizerSpec::Sgd {
                    lr: 0.1,
                    momentum: 0.0,
                },
            );
            // poison the gradient
            engine.model_mut().visit_params(&mut |p: &mut Param| {
                p.accumulate_grad(&Tensor::full(p.value().shape().clone(), f32::NAN));
            });
            assert!(!engine.step());
            assert_eq!(engine.skipped_steps(), 1);
            assert_eq!(engine.steps(), 0);
            // gradients were cleared so the step is safely skippable
            engine
                .model_mut()
                .visit_params(&mut |p| assert!(p.grad().data().iter().all(|&g| g == 0.0)));
            // the scale halved to 32768; a finite gradient is unscaled by
            // it before the update: SGD moves every weight by lr * 1
            let mut before = Vec::new();
            engine.model_mut().visit_params(&mut |p: &mut Param| {
                before.push(p.value().data()[0]);
                p.accumulate_grad(&Tensor::full(p.value().shape().clone(), 32768.0));
            });
            assert!(engine.step());
            let mut after = Vec::new();
            engine
                .model_mut()
                .visit_params(&mut |p| after.push(p.value().data()[0]));
            for (b, a) in before.iter().zip(&after) {
                assert!((b - a - 0.1).abs() < 1e-6, "{b} -> {a}");
            }
        });
    }

    #[test]
    fn gradient_accumulation_equals_large_batch() {
        // 4 micro-batches of 2 with accumulation == one batch of 8
        let mut rng = init::rng(95);
        let x = init::uniform([8, 4], -1.0, 1.0, &mut rng);
        let t: Vec<usize> = (0..8).map(|i| i % 3).collect();

        let run = |json: &str, micro: usize| {
            let world = World::new(system_i());
            let x = x.clone();
            let t = t.clone();
            let mut out = world.run_on(1, |ctx| {
                let cfg = Config::from_json(json).unwrap();
                let mut engine = initialize(
                    ctx,
                    &cfg,
                    1,
                    make_model(96),
                    OptimizerSpec::AdamW {
                        lr: 0.01,
                        weight_decay: 0.0,
                    },
                );
                for _ in 0..2 {
                    // one optimizer step's worth of micro-batches
                    for m in 0..(8 / micro) {
                        let xm = x.narrow(0, m * micro, micro);
                        let tm = t[m * micro..(m + 1) * micro].to_vec();
                        let logits = engine.forward(&xm);
                        let (_, d) = cross_entropy(&logits, &tm);
                        let _ = engine.backward(&d);
                        assert!(engine.step());
                    }
                }
                colossalai_parallel::data_parallel::flatten_params(engine.model_mut())
            });
            out.swap_remove(0)
        };

        let big = run("{}", 8);
        let accumulated = run(r#"{ "gradient_accumulation": 4 }"#, 2);
        // cross_entropy means per micro-batch; accumulation means over the 4
        // micro means = the big batch's mean (equal micro sizes)
        assert!(
            accumulated.allclose(&big, 1e-5),
            "accumulated diverged by {}",
            accumulated.max_abs_diff(&big)
        );
    }

    #[test]
    fn distributed_clip_matches_serial_clip() {
        // two ranks each hold half the "parameters"; distributed clipping
        // must produce the same scale a serial clip over all of them would
        let world = World::new(system_i());
        let norms = world.run_on(2, |ctx| {
            let g = ctx.world_group(2);
            let mut rng = init::rng(90 + ctx.rank() as u64);
            let mut model: Box<dyn Layer> = Box::new(Linear::from_rng("l", 3, 3, false, &mut rng));
            model.visit_params(&mut |p: &mut Param| {
                p.accumulate_grad(&Tensor::full(p.value().shape().clone(), 2.0));
            });
            let norm = clip_grads(Some((ctx, &g)), &mut Grads::Model(model.as_mut()), 1.0);
            // check the post-clip global norm is 1
            let mut sq = 0.0f32;
            model.visit_params(&mut |p| {
                sq += p.grad().data().iter().map(|g| g * g).sum::<f32>();
            });
            (norm, sq)
        });
        // both ranks saw the same pre-clip global norm: sqrt(18 * 4) = 8.485
        assert!((norms[0].0 - (36.0f32 + 36.0).sqrt()).abs() < 1e-3);
        assert_eq!(norms[0].0, norms[1].0);
        // the *global* post-clip norm is 1 => each rank holds half the square
        let total_sq = norms[0].1 + norms[1].1;
        assert!(
            (total_sq - 1.0).abs() < 1e-4,
            "global norm after clip: {}",
            total_sq.sqrt()
        );
    }

    #[test]
    fn engine_checkpoint_roundtrip_preserves_trajectory() {
        let world = World::new(system_i());
        world.run_on(1, |ctx| {
            let cfg = Config::from_json("{}").unwrap();
            let mut engine = initialize(
                ctx,
                &cfg,
                1,
                make_model(98),
                OptimizerSpec::Sgd {
                    lr: 0.05,
                    momentum: 0.0,
                },
            );
            let mut rng = init::rng(99);
            let x = init::uniform([4, 4], -1.0, 1.0, &mut rng);
            let step = |e: &mut Engine| {
                e.zero_grad();
                let logits = e.forward(&x);
                let (_, d) = cross_entropy(&logits, &[0, 1, 2, 0]);
                let _ = e.backward(&d);
                e.step();
            };
            step(&mut engine);
            let snapshot = engine.state_dict();
            let bytes = snapshot.to_bytes();
            step(&mut engine);
            let after_two = colossalai_parallel::data_parallel::flatten_params(engine.model_mut());
            // roll back to the snapshot and replay: must land on the same
            // parameters (SGD without momentum is stateless)
            let restored = colossalai_autograd::StateDict::from_bytes(&bytes).unwrap();
            engine.load_state_dict(&restored).unwrap();
            step(&mut engine);
            let replayed = colossalai_parallel::data_parallel::flatten_params(engine.model_mut());
            assert_eq!(replayed.data(), after_two.data());
        });
    }

    #[test]
    fn clip_grads_scales_down() {
        let mut model = make_model(50);
        model.visit_params(&mut |p| {
            p.accumulate_grad(&Tensor::full(p.value().shape().clone(), 1.0));
        });
        let n_params = model.n_params() as f32;
        let before = clip_grads(None, &mut Grads::Model(model.as_mut()), 1.0);
        assert!((before - n_params.sqrt()).abs() < 1e-3);
        // all grads now have global norm 1
        let mut sq = 0.0f32;
        model.visit_params(&mut |p| sq += p.grad().data().iter().map(|g| g * g).sum::<f32>());
        assert!((sq.sqrt() - 1.0).abs() < 1e-5);
    }
}
