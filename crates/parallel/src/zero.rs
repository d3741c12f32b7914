//! The Zero Redundancy Optimizer (Rajbhandari et al., integrated in
//! Colossal-AI via the re-designed sharded tensor interface of Section 3.2).
//!
//! Three stages, all arithmetically identical to data-parallel AdamW:
//!
//! * **Stage 1** — optimizer states (FP32 master weights + Adam moments)
//!   sharded; gradients still all-reduced in full.
//! * **Stage 2** — gradients reduce-scattered, so each rank only ever
//!   materializes its gradient shard.
//! * **Stage 3** — parameters sharded too: ranks persist only their shard
//!   and re-materialize the full parameters by all-gather around each
//!   forward/backward.
//!
//! Because our reductions are rank-order deterministic, every stage yields
//! parameters *bitwise equal* to the plain data-parallel baseline — the key
//! invariant in DESIGN.md, checked by the tests below.
//!
//! A `ZeroOptimizer` is the shared [`GradReducer`] (the one bucketed data
//! parallelism runs, keeping a shard of each bucket instead of the whole)
//! plus sharded AdamW plus the parameter all-gather. The padded flat
//! gradient is split into p-aligned element ranges of at most the bucket
//! capacity (default 25 MB); the master copy and Adam moments are laid out
//! bucket-by-bucket (rank `r` owns the `r`-th p-th of every bucket), so any
//! bucket plan yields the same bits, and a single default bucket
//! degenerates to the classic contiguous shard. The reducer's
//! `bucket::FlatLayout` is the only mapping between the model and those
//! buckets: it picks the master shards out of the parameters (at
//! construction, and again when a checkpoint restore rewrote them), and
//! every gathered bucket lands in the model as O(1) views — a parameter
//! *is* a region of the bucket it arrived in, shared by the p ranks of the
//! group, not a copy of it.

use crate::bucket::{BucketPlan, GradReducer, Keep, DEFAULT_BUCKET_BYTES};
use colossalai_autograd::{adamw_update, Layer, Param};
use colossalai_comm::compress::Compression;
use colossalai_comm::{DeviceCtx, Group};
use colossalai_memory::offload::OffloadPlan;
use colossalai_tensor::Tensor;
use colossalai_topology::{HostSpec, Link};

/// Which ZeRO stage to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroStage {
    One,
    Two,
    Three,
}

/// Per-device model-data bytes under each stage for `n` parameters over `p`
/// ranks at mixed precision (fp16 params/grads, fp32 master + moments) —
/// the memory story of Section 2.1.
pub fn model_data_bytes_per_device(stage: ZeroStage, n: u64, p: u64) -> u64 {
    let (params, grads, optim) = match stage {
        ZeroStage::One => (2 * n, 2 * n, 12 * n / p),
        ZeroStage::Two => (2 * n, 2 * n / p, 12 * n / p),
        ZeroStage::Three => (2 * n / p, 2 * n / p, 12 * n / p),
    };
    params + grads + optim
}

/// A ZeRO sharded AdamW over any [`Layer`] model.
pub struct ZeroOptimizer {
    stage: ZeroStage,
    ctx: DeviceCtx,
    group: Group,
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: u64,
    /// Bucketed gradient reduction over p-aligned element ranges of the
    /// padded flat gradient; each rank keeps its p-th of every bucket.
    reducer: GradReducer,
    /// This rank's FP32 master shard, one pooled tensor per bucket: the
    /// `r`-th p-th of that bucket's elements. Updated in place, and handed
    /// to the parameter all-gather as an O(1) copy-on-write handle.
    master: Vec<Tensor>,
    /// Adam moments of the master shard, bucket after bucket.
    m: Vec<f32>,
    v: Vec<f32>,
    /// Where the shard lives, and the PCIe link and host its off-device
    /// share is charged against ([`ZeroOptimizer::with_offload`]).
    offload: Option<(OffloadPlan, Link, HostSpec)>,
}

/// This rank's p-th of every bucket of the model's current parameter
/// values: the FP32 master shards.
fn master_shards(reducer: &GradReducer, group: &Group, model: &mut dyn Layer) -> Vec<Tensor> {
    let (p, r) = (group.size(), group.rank());
    let shard_of = |bucket: Vec<f32>| {
        let sl = bucket.len() / p;
        Tensor::from_vec([bucket.len()], bucket).narrow(0, r * sl, sl)
    };
    let values = reducer.layout.gather_all(model, Param::value);
    values.into_iter().map(shard_of).collect()
}

impl ZeroOptimizer {
    /// Captures the model's current parameters as the master copy and
    /// shards all optimizer state. Buckets default to
    /// [`DEFAULT_BUCKET_BYTES`].
    pub fn new(
        ctx: &DeviceCtx,
        group: &Group,
        model: &mut dyn Layer,
        stage: ZeroStage,
        lr: f32,
        weight_decay: f32,
    ) -> Self {
        Self::with_bucket_bytes(
            ctx,
            group,
            model,
            stage,
            lr,
            weight_decay,
            DEFAULT_BUCKET_BYTES,
        )
    }

    /// Like [`ZeroOptimizer::new`] with an explicit gradient-bucket capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn with_bucket_bytes(
        ctx: &DeviceCtx,
        group: &Group,
        model: &mut dyn Layer,
        stage: ZeroStage,
        lr: f32,
        weight_decay: f32,
        bucket_bytes: usize,
    ) -> Self {
        let mut param_sizes = Vec::new();
        model.visit_params(&mut |p| param_sizes.push(p.numel()));
        let n: usize = param_sizes.iter().sum();
        let buckets = BucketPlan::element_ranges(n, group.size(), bucket_bytes);
        let keep = match stage {
            ZeroStage::One => Keep::ShardOfAllReduce,
            ZeroStage::Two | ZeroStage::Three => Keep::ShardOfReduceScatter,
        };
        let reducer = GradReducer::new(&param_sizes, buckets, keep);
        let master = master_shards(&reducer, group, model);
        let shard_len = master.iter().map(Tensor::numel).sum();
        ZeroOptimizer {
            stage,
            ctx: ctx.clone(),
            group: group.clone(),
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            reducer,
            master,
            m: vec![0.0; shard_len],
            v: vec![0.0; shard_len],
            offload: None,
        }
    }

    /// Selects the lossy gradient channel (exact f32 until then): int8 /
    /// fp16 quantize each bucket with error feedback before the stage's
    /// collective. Top-k is a data-parallel-only channel and panics here.
    /// Residual state resets on switch.
    pub fn with_compression(mut self, comp: Compression) -> Self {
        self.reducer.set_compression(comp);
        self
    }

    /// Places this rank's shard per `plan` (Section 3.2: `static` keeps
    /// all of it in host memory, `adaptive` only what the device cannot
    /// hold): every step charges the plan's PCIe legs and the CPU share of
    /// the Adam update to the rank's clock ([`OffloadPlan::charge_step`]).
    /// The update is the one elementwise kernel wherever the data lives, so
    /// a placement changes no bit; on a one-rank group this is the paper's
    /// hybrid CPU + GPU Adam.
    pub fn with_offload(mut self, plan: OffloadPlan, pcie: Link, host: HostSpec) -> Self {
        self.offload = Some((plan, pcie, host));
        self
    }

    /// Re-captures the master shards from the model's current parameters —
    /// after a checkpoint restore wrote them, since the next step gathers
    /// the shards back over the model. The moments and step count stay, as
    /// they do for a dense AdamW whose parameters were restored.
    pub fn reload_master(&mut self, model: &mut dyn Layer) {
        self.master = master_shards(&self.reducer, &self.group, model);
    }

    /// Elements in one shard.
    pub fn shard_len(&self) -> usize {
        self.m.len()
    }

    /// The p-aligned `(offset, len)` element buckets of the flat gradient.
    pub fn bucket_ranges(&self) -> &[(usize, usize)] {
        self.reducer.buckets()
    }

    /// Backward with the bucketed reduction overlapped on the comm stream
    /// ([`GradReducer::backward_overlapped`]): returns the input gradient
    /// and the reduced shards for [`ZeroOptimizer::step_with_shards`].
    pub fn backward_overlapped(
        &mut self,
        model: &mut dyn Layer,
        dy: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        self.reducer
            .backward_overlapped(&self.ctx, &self.group, model, dy)
    }

    /// Reduces the model's accumulated gradients (blocking) to this rank's
    /// mean-scaled shards, one per bucket.
    pub fn reduce(&mut self, model: &mut dyn Layer) -> Vec<Tensor> {
        self.reducer.reduce(&self.ctx, &self.group, model)
    }

    /// Reduces the gradients (data-parallel mean), updates this rank's
    /// shard and re-materializes the full parameters into the model. Clears
    /// the model's gradients afterwards.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let shards = self.reduce(model);
        self.step_with_shards(model, &shards);
    }

    /// The update half of [`ZeroOptimizer::step`], from shards
    /// [`ZeroOptimizer::reduce`] or [`ZeroOptimizer::backward_overlapped`]
    /// produced (and the caller may since have unscaled or clipped).
    pub fn step_with_shards(&mut self, model: &mut dyn Layer, grad_shards: &[Tensor]) {
        assert_eq!(grad_shards.len(), self.master.len(), "one shard per bucket");
        self.t += 1;
        let mut ms = 0;
        for (master, shard) in self.master.iter_mut().zip(grad_shards) {
            let sl = shard.numel();
            adamw_update(
                master.data_mut(),
                shard.data(),
                &mut self.m[ms..ms + sl],
                &mut self.v[ms..ms + sl],
                self.t,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                self.weight_decay,
            );
            ms += sl;
        }
        assert_eq!(ms, self.shard_len());
        if let Some((plan, pcie, host)) = &self.offload {
            plan.charge_step(&self.ctx, *pcie, host);
        }
        self.gather_params_into(model);
        model.zero_grad();
    }

    /// All-gathers every bucket of the sharded master copy and lands it in
    /// the model: each parameter becomes a view of the gathered bucket that
    /// holds it (one that straddles two buckets is copied into).
    fn gather_params_into(&self, model: &mut dyn Layer) {
        let gather = |part: &Tensor| self.group.all_gather_cat(&self.ctx, part.clone(), 0);
        let gathered: Vec<Tensor> = self.master.iter().map(gather).collect();
        self.reducer.layout.scatter_values(model, &gathered);
    }

    /// ZeRO-3 helper: drops the full parameters from the model, leaving
    /// zeros (the master shard remains authoritative). Persistent
    /// parameter memory falls to `2N/p`, and the memory really goes: every
    /// value becomes a view of one shared zero tensor the size of the
    /// largest parameter, so this rank's handles to the gathered buckets
    /// drop and a bucket's storage returns to the pool once the last rank
    /// of the group has released it.
    pub fn release_params(&self, model: &mut dyn Layer) {
        assert_eq!(
            self.stage,
            ZeroStage::Three,
            "release only applies to stage 3"
        );
        let mut largest = 0;
        model.visit_params(&mut |p| largest = largest.max(p.numel()));
        let zeros = Tensor::zeros([largest]);
        model.visit_params(&mut |p| {
            let shape = p.value().shape().clone();
            p.set_value(zeros.view(0, shape));
        });
    }

    /// ZeRO-3 helper: re-materializes full parameters by all-gathering the
    /// master shards (called before each forward pass).
    pub fn materialize_params(&self, model: &mut dyn Layer) {
        assert_eq!(
            self.stage,
            ZeroStage::Three,
            "materialize only applies to stage 3"
        );
        self.gather_params_into(model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_parallel::{flatten_params, split_batch};
    use colossalai_autograd::{AdamW, Gelu, Linear, Sequential};
    use colossalai_comm::{OpKind, World};
    use colossalai_tensor::init;
    use colossalai_tensor::ops::cross_entropy;
    use colossalai_topology::systems::system_ii;

    fn make_model(seed: u64) -> Sequential {
        let mut rng = init::rng(seed);
        Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 6, 10, true, &mut rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("l2", 10, 4, true, &mut rng)),
        ])
    }

    /// What [`trajectory`] reports of one training run.
    struct Run {
        /// Final parameters, per rank.
        params: Vec<Tensor>,
        stats: colossalai_comm::CommStats,
        /// Per rank, the bytes a gradient channel can influence: per-step
        /// loss bits, final error-feedback residual bits and final (main,
        /// comm) clock bits.
        bytes: Vec<Vec<u8>>,
        /// Per rank, the input gradient the last backward returned.
        dx: Vec<Tensor>,
    }

    /// One training run of `make_model(900)` on `p` ranks: bucketed data
    /// parallelism + AdamW when `stage` is `None`, else ZeRO at that stage;
    /// either way the model plus one [`GradReducer`], blocking (backward,
    /// then reduce) or on the comm-overlapped backward path.
    fn trajectory(
        stage: Option<ZeroStage>,
        p: usize,
        steps: usize,
        bucket_bytes: usize,
        overlap: bool,
        comp: Compression,
    ) -> Run {
        let world = World::new(system_ii());
        let out = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let batch = |s: usize| {
                let mut rng = init::rng(1000 + s as u64);
                let x = init::uniform([p * 2, 6], -1.0, 1.0, &mut rng);
                let t: Vec<usize> = (0..p * 2).map(|i| (i + s) % 4).collect();
                let t_local = t.chunks(2).nth(g.rank()).unwrap().to_vec();
                (split_batch(&x, p, g.rank()), t_local)
            };
            let bits = |residuals: &[Vec<f32>]| -> Vec<u8> {
                let flat = residuals.iter().flatten();
                flat.flat_map(|r| r.to_bits().to_le_bytes()).collect()
            };
            let mut bytes: Vec<u8> = Vec::new();
            let mut dx = Tensor::scalar(0.0);
            let params = match stage {
                None => {
                    let mut model = make_model(900);
                    let mut reducer = GradReducer::data_parallel(&mut model, bucket_bytes);
                    reducer.set_compression(comp);
                    let mut opt = AdamW::new(0.01, 0.05);
                    for s in 0..steps {
                        let (x, t) = batch(s);
                        model.zero_grad();
                        let (loss, dlogits) = cross_entropy(&model.forward(&x), &t);
                        bytes.extend(loss.to_bits().to_le_bytes());
                        if overlap {
                            (dx, _) = reducer.backward_overlapped(ctx, &g, &mut model, &dlogits);
                        } else {
                            dx = model.backward(&dlogits);
                            reducer.reduce(ctx, &g, &mut model);
                        }
                        opt.step_layer(&mut model);
                    }
                    bytes.extend(bits(reducer.residuals()));
                    flatten_params(&mut model)
                }
                Some(stage) => {
                    let mut model = make_model(900);
                    let mut opt = ZeroOptimizer::with_bucket_bytes(
                        ctx,
                        &g,
                        &mut model,
                        stage,
                        0.01,
                        0.05,
                        bucket_bytes,
                    )
                    .with_compression(comp);
                    for s in 0..steps {
                        let (x, t) = batch(s);
                        if stage == ZeroStage::Three {
                            opt.materialize_params(&mut model);
                        }
                        let (loss, dlogits) = cross_entropy(&model.forward(&x), &t);
                        bytes.extend(loss.to_bits().to_le_bytes());
                        if overlap {
                            let shards;
                            (dx, shards) = opt.backward_overlapped(&mut model, &dlogits);
                            opt.step_with_shards(&mut model, &shards);
                        } else {
                            dx = model.backward(&dlogits);
                            opt.step(&mut model);
                        }
                        if stage == ZeroStage::Three {
                            opt.release_params(&mut model);
                            opt.materialize_params(&mut model);
                        }
                    }
                    bytes.extend(bits(opt.reducer.residuals()));
                    flatten_params(&mut model)
                }
            };
            bytes.extend(ctx.clock().to_bits().to_le_bytes());
            bytes.extend(ctx.comm_clock().to_bits().to_le_bytes());
            (params, bytes, dx)
        });
        let mut run = Run {
            params: Vec::new(),
            stats: world.stats(),
            bytes: Vec::new(),
            dx: Vec::new(),
        };
        for (params, bytes, dx) in out {
            run.params.push(params);
            run.bytes.push(bytes);
            run.dx.push(dx);
        }
        run
    }

    /// Plain DP + AdamW baseline trajectory under `comp`.
    fn ddp_trajectory_compressed(p: usize, steps: usize, comp: Compression) -> Tensor {
        let mut run = trajectory(None, p, steps, DEFAULT_BUCKET_BYTES, false, comp);
        run.params.swap_remove(0)
    }

    fn ddp_trajectory(p: usize, steps: usize) -> Tensor {
        ddp_trajectory_compressed(p, steps, Compression::None)
    }

    /// ZeRO trajectory with an explicit bucket capacity, optionally the
    /// comm-overlapped backward path, and a compression channel.
    fn zero_trajectory_opts(
        p: usize,
        steps: usize,
        stage: ZeroStage,
        bucket_bytes: usize,
        overlap: bool,
        comp: Compression,
    ) -> (Tensor, colossalai_comm::CommStats) {
        let mut run = trajectory(Some(stage), p, steps, bucket_bytes, overlap, comp);
        (run.params.swap_remove(0), run.stats)
    }

    fn zero_trajectory(
        p: usize,
        steps: usize,
        stage: ZeroStage,
    ) -> (Tensor, colossalai_comm::CommStats) {
        zero_trajectory_opts(
            p,
            steps,
            stage,
            DEFAULT_BUCKET_BYTES,
            false,
            Compression::None,
        )
    }

    #[test]
    fn zero1_bitwise_equals_ddp() {
        let want = ddp_trajectory(4, 3);
        let (got, _) = zero_trajectory(4, 3, ZeroStage::One);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn zero2_bitwise_equals_ddp() {
        let want = ddp_trajectory(4, 3);
        let (got, _) = zero_trajectory(4, 3, ZeroStage::Two);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn zero3_bitwise_equals_ddp() {
        let want = ddp_trajectory(4, 3);
        let (got, _) = zero_trajectory(4, 3, ZeroStage::Three);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn tiny_buckets_stay_bitwise_equal_to_ddp() {
        // 16-element buckets over the 116-element padded flat grad → many
        // buckets, bucket-sharded master layout; the bits must not move
        let want = ddp_trajectory(4, 3);
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let (got, _) = zero_trajectory_opts(4, 3, stage, 64, false, Compression::None);
            assert_eq!(got.data(), want.data(), "stage {stage:?} with tiny buckets");
        }
    }

    #[test]
    fn every_scheme_channel_and_schedule_runs_the_one_reducer() {
        // {DP, ZeRO-1/2/3} x {none, int8, fp16} x {blocking, overlapped},
        // plus DP x topk, several 64-byte buckets firing per backward
        use Compression::{Fp16, Int8, TopK};
        let schemes = [
            None,
            Some(ZeroStage::One),
            Some(ZeroStage::Two),
            Some(ZeroStage::Three),
        ];
        let exact_ddp = trajectory(None, 4, 3, 64, false, Compression::None);
        for scheme in schemes {
            for comp in [Compression::None, Int8, Fp16, TopK(3)] {
                if scheme.is_some() && comp == TopK(3) {
                    continue; // rejected: see `zero_rejects_topk_by_name`
                }
                let what = format!("{scheme:?}, {comp:?}");
                let blocking = trajectory(scheme, 4, 3, 64, false, comp);
                let overlapped = trajectory(scheme, 4, 3, 64, true, comp);
                for r in 0..4 {
                    // lossy or not, every replica lands on the same bits
                    assert_eq!(
                        blocking.params[r].data(),
                        blocking.params[0].data(),
                        "{what}: rank {r} diverged"
                    );
                    // and overlap changes neither the parameters nor the
                    // input gradient the backward returns
                    assert_eq!(
                        overlapped.params[r].data(),
                        blocking.params[r].data(),
                        "{what}: overlap must not change the math"
                    );
                    assert_eq!(overlapped.dx[r].data(), blocking.dx[r].data(), "{what}");
                }
                // the exact channel: every scheme is the plain data-parallel
                // trajectory
                if comp == Compression::None {
                    assert_eq!(
                        overlapped.params[0].data(),
                        exact_ddp.params[0].data(),
                        "{what}: diverged from DDP"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_stages_agree_bitwise_under_quantized_channels() {
        // Stages share `element_ranges` bucketing, so a quantized channel
        // perturbs each stage's gradients identically: all three must still
        // land on the same bits (and differ from the exact run — the lossy
        // channel really engaged).
        let (exact, _) = zero_trajectory(4, 3, ZeroStage::One);
        for comp in [Compression::Int8, Compression::Fp16] {
            let runs: Vec<Tensor> = [ZeroStage::One, ZeroStage::Two, ZeroStage::Three]
                .into_iter()
                .map(|stage| zero_trajectory_opts(4, 3, stage, DEFAULT_BUCKET_BYTES, false, comp).0)
                .collect();
            assert_eq!(runs[0].data(), runs[1].data(), "{comp:?}: stage1 == stage2");
            assert_eq!(runs[0].data(), runs[2].data(), "{comp:?}: stage1 == stage3");
            assert_ne!(runs[0].data(), exact.data(), "{comp:?} actually engaged");
        }
    }

    #[test]
    fn zero1_int8_matches_dp_int8_at_default_bucket_cap() {
        // At the default 25 MB cap both DP and ZeRO fuse all gradients into
        // a single bucket; ZeRO's tail padding is zeros, which change
        // neither the bucket's maxabs nor any quantized value — so the two
        // trajectories must agree bitwise.
        let want = ddp_trajectory_compressed(4, 3, Compression::Int8);
        let (got, _) = zero_trajectory_opts(
            4,
            3,
            ZeroStage::One,
            DEFAULT_BUCKET_BYTES,
            false,
            Compression::Int8,
        );
        assert_eq!(got.data(), want.data());
    }

    #[test]
    #[should_panic(
        expected = "comm.compress \"topk(4)\" does not combine with zero (ShardOfReduceScatter)"
    )]
    fn zero_rejects_topk_by_name() {
        // Top-k has no sparse reduce-scatter wire format: a ZeRO optimizer
        // built with it directly (not through `Config::validate`) must fail
        // loudly rather than train on the exact dense channel.
        let _ = zero_trajectory_opts(
            4,
            2,
            ZeroStage::Two,
            DEFAULT_BUCKET_BYTES,
            false,
            Compression::TopK(4),
        );
    }

    /// FNV-1a 64 over everything [`trajectory`] reports of a 4-rank,
    /// 3-step, 64-byte-bucket run except the parameters: the per-rank
    /// channel bytes, then the `CommStats` breakdown (op kinds sorted).
    fn compressed_run_fingerprint(
        stage: Option<ZeroStage>,
        comp: Compression,
        overlap: bool,
    ) -> u64 {
        let Run {
            stats,
            bytes: per_rank,
            ..
        } = trajectory(stage, 4, 3, 64, overlap, comp);
        let mut by_op: Vec<_> = stats.by_op.iter().collect();
        by_op.sort_by_key(|(kind, _)| kind.name());
        let stats_text = format!("{} {} {} {by_op:?}", stats.ops, stats.elements, stats.bytes);
        per_rank
            .into_iter()
            .flatten()
            .chain(stats_text.bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn compressed_dp_and_zero_reproduce_the_frozen_fingerprints() {
        // (blocking, overlapped) fingerprints per scheme x channel, frozen
        // from the per-width, per-stream `Group` methods before the
        // `Collective` descriptor replaced them (PR 13)
        use Compression::{Fp16, Int8, TopK};
        use ZeroStage::{One, Two};
        let golden = [
            (
                None,
                Compression::None,
                0xd887_1225_cfbb_66df,
                0x5f45_9215_df05_759f,
            ),
            (None, TopK(3), 0xab6a_7a86_97ae_779a, 0xe68c_b575_975e_34e2),
            (None, Int8, 0x1d78_7e2e_674e_1a87, 0xe77d_dce3_9420_cbab),
            (None, Fp16, 0xf96a_5dc1_fe7a_f89d, 0x85f8_65fd_8e80_8a2d),
            (
                Some(One),
                Compression::None,
                0xb2c8_b2b3_54a1_ba6f,
                0x2dc3_c839_046b_0523,
            ),
            (
                Some(One),
                Int8,
                0xf592_0bcf_c48b_f847,
                0x068b_4615_c98f_eb03,
            ),
            (
                Some(One),
                Fp16,
                0xacc1_cc29_d693_9282,
                0x37d4_baa2_b421_f796,
            ),
            (
                Some(Two),
                Compression::None,
                0x296a_7899_fcdd_58d4,
                0x526a_1f2b_a5fa_fea0,
            ),
            (
                Some(Two),
                Int8,
                0x0c34_31d4_0108_96d1,
                0xd505_18ff_6ac9_c6e9,
            ),
            (
                Some(Two),
                Fp16,
                0x6b2f_7f4b_93f8_ee0d,
                0xf10f_af58_5542_0a0d,
            ),
        ];
        for (stage, comp, blocking, overlapped) in golden {
            for (overlap, want) in [(false, blocking), (true, overlapped)] {
                let got = compressed_run_fingerprint(stage, comp, overlap);
                assert_eq!(
                    got, want,
                    "stage {stage:?}, {comp:?}, overlap={overlap}: {got:#018x}"
                );
            }
        }
    }

    /// Three steps of ZeRO at `stage` on a one-rank group — with a plan,
    /// the hybrid CPU + GPU Adam of Section 3.2. Returns the final
    /// parameters, how far each `step` advanced the main clock, and the
    /// trace.
    fn one_rank_run(
        stage: ZeroStage,
        offload: Option<OffloadPlan>,
    ) -> (Tensor, Vec<f64>, Vec<colossalai_comm::Span>) {
        let world = World::new(system_ii());
        world.set_tracing(true);
        let mut out = world.run_on(1, |ctx| {
            let g = ctx.world_group(1);
            let mut model = make_model(910);
            // 64-byte buckets: several master shards, parameters straddling them
            let mut opt =
                ZeroOptimizer::with_bucket_bytes(ctx, &g, &mut model, stage, 0.01, 0.05, 64);
            if let Some(plan) = offload {
                opt = opt.with_offload(plan, Link::pcie(), HostSpec::dgx());
            }
            let mut advanced = Vec::new();
            for s in 0..3 {
                seeded_backward(&mut model, s);
                let before = ctx.clock();
                opt.step(&mut model);
                advanced.push(ctx.clock() - before);
            }
            (flatten_params(&mut model), advanced)
        });
        let (params, advanced) = out.swap_remove(0);
        (params, advanced, world.trace())
    }

    /// Leaves the gradients of a seeded batch in `model`.
    fn seeded_backward(model: &mut Sequential, step: u64) {
        let x = init::uniform([4, 6], -1.0, 1.0, &mut init::rng(1100 + step));
        let (_, dlogits) = cross_entropy(&model.forward(&x), &[0, 1, 2, 3]);
        let _ = model.backward(&dlogits);
    }

    /// A plan that keeps the fp16 shard and half the optimizer shard of
    /// `make_model` on the device, and one that keeps everything.
    fn hybrid_and_resident_plans() -> (OffloadPlan, OffloadPlan) {
        use colossalai_memory::offload::{plan, ModelData, PlacementPolicy};
        let model = ModelData {
            n_params: 114,
            dp_degree: 1,
        };
        let half = model.fp16_shard_bytes() + model.optimizer_shard_bytes() / 2;
        let hybrid = plan(PlacementPolicy::Adaptive, model, half, 0);
        assert!(hybrid.cpu_adam_params > 0 && hybrid.gpu_adam_params > 0);
        let resident = plan(PlacementPolicy::Adaptive, model, 1 << 20, 0);
        assert_eq!(resident.cpu_adam_params, 0);
        (hybrid, resident)
    }

    #[test]
    fn every_stage_on_one_rank_is_plain_adamw_wherever_the_shard_lives() {
        let mut reference = make_model(910);
        let mut adamw = AdamW::new(0.01, 0.05);
        for s in 0..3 {
            seeded_backward(&mut reference, s);
            adamw.step_layer(&mut reference);
            reference.zero_grad();
        }
        let want = flatten_params(&mut reference);
        let (hybrid, resident) = hybrid_and_resident_plans();
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            for offload in [None, Some(hybrid), Some(resident)] {
                let (got, ..) = one_rank_run(stage, offload);
                assert_eq!(got.data(), want.data(), "{stage:?}, {offload:?}");
            }
        }
    }

    #[test]
    fn offload_time_reaches_the_clock_through_the_optimizer() {
        use colossalai_comm::SpanKind;
        let (hybrid, resident) = hybrid_and_resident_plans();
        let overhead = hybrid.overhead_seconds(Link::pcie(), &HostSpec::dgx());
        assert!(overhead > 0.0);
        let moves = |trace: &[colossalai_comm::Span]| {
            let is_move = |s: &&colossalai_comm::Span| matches!(s.kind, SpanKind::MemMove { .. });
            trace.iter().filter(is_move).count()
        };

        let (_, bare, trace) = one_rank_run(ZeroStage::Three, None);
        assert_eq!(moves(&trace), 0);
        let (_, advanced, trace) = one_rank_run(ZeroStage::Three, Some(resident));
        assert_eq!(advanced, bare, "a fully resident plan charges nothing");
        assert_eq!(moves(&trace), 0);

        let (_, advanced, trace) = one_rank_run(ZeroStage::Three, Some(hybrid));
        // the first step starts from a zero clock, where the sum is exact
        assert_eq!(advanced[0], bare[0] + overhead);
        for (with, without) in advanced.iter().zip(&bare) {
            assert!(
                (with - without - overhead).abs() < 1e-12,
                "{with} vs {without}"
            );
        }
        // an h2d and a d2h leg per step, and the CPU share of the update
        assert_eq!(moves(&trace), 2 * 3);
        let cpu_adam = |s: &&colossalai_comm::Span| matches!(&s.kind, SpanKind::Compute { label } if label == "cpu_adam");
        assert_eq!(trace.iter().filter(cpu_adam).count(), 3);
    }

    #[test]
    fn master_shards_update_in_place() {
        // the all-gather takes an O(1) handle to each master shard; once it
        // has published, nothing else may still hold one, or every step's
        // update would first copy the shard
        let world = World::new(system_ii());
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut model = make_model(911);
            let mut opt = ZeroOptimizer::with_bucket_bytes(
                ctx,
                &g,
                &mut model,
                ZeroStage::Three,
                0.01,
                0.0,
                64,
            );
            let homes = |opt: &ZeroOptimizer| -> Vec<*const f32> {
                opt.master.iter().map(|t| t.data().as_ptr()).collect()
            };
            let before = homes(&opt);
            for s in 0..2 {
                opt.materialize_params(&mut model);
                seeded_backward(&mut model, s);
                opt.step(&mut model);
            }
            assert_eq!(homes(&opt), before);
        });
    }

    #[test]
    fn bucket_ranges_cover_padded_flat_grad() {
        let world = World::new(system_ii());
        world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut model = make_model(903);
            let opt = ZeroOptimizer::with_bucket_bytes(
                ctx,
                &g,
                &mut model,
                ZeroStage::Two,
                0.01,
                0.0,
                64,
            );
            let mut o = 0;
            for &(off, len) in opt.bucket_ranges() {
                assert_eq!(off, o);
                assert_eq!(len % 4, 0);
                o += len;
            }
            assert_eq!(o, 116, "covers ceil(114/4)*4");
            assert!(opt.bucket_ranges().len() > 1);
        });
    }

    #[test]
    fn zero2_moves_less_gradient_traffic_than_zero1() {
        let (_, s1) = zero_trajectory(4, 2, ZeroStage::One);
        let (_, s2) = zero_trajectory(4, 2, ZeroStage::Two);
        // stage 1: all-reduce (2(p-1)n hops); stage 2: reduce-scatter
        // ((p-1)n hops) + the same param all-gather in both
        let grad1 = s1.elements_of(OpKind::AllReduce);
        let grad2 = s2.elements_of(OpKind::ReduceScatter);
        assert!(grad2 * 2 <= grad1 + 1, "rs {grad2} vs ar {grad1}");
    }

    #[test]
    fn memory_formula_monotone_in_stage() {
        let n = 1_000_000u64;
        let p = 8u64;
        let m1 = model_data_bytes_per_device(ZeroStage::One, n, p);
        let m2 = model_data_bytes_per_device(ZeroStage::Two, n, p);
        let m3 = model_data_bytes_per_device(ZeroStage::Three, n, p);
        assert!(m1 > m2 && m2 > m3);
        // stage 3 is the full 16/p bytes per param
        assert_eq!(m3, 16 * n / p);
        // p = 1 degenerates to plain mixed-precision training
        assert_eq!(model_data_bytes_per_device(ZeroStage::Three, n, 1), 16 * n);
    }

    #[test]
    fn padding_handles_indivisible_param_counts() {
        // model has 6*10+10+10*4+4 = 114 params; over 4 ranks -> padded 116
        let world = World::new(system_ii());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut model = make_model(901);
            let opt = ZeroOptimizer::new(ctx, &g, &mut model, ZeroStage::Two, 0.01, 0.0);
            opt.shard_len()
        });
        assert_eq!(out, vec![29; 4]); // ceil(114/4) = 29
    }

    #[test]
    fn release_then_materialize_roundtrip() {
        let world = World::new(system_ii());
        world.run_on(2, |ctx| {
            let g = ctx.world_group(2);
            let mut model = make_model(902);
            let before = flatten_params(&mut model);
            let opt = ZeroOptimizer::new(ctx, &g, &mut model, ZeroStage::Three, 0.01, 0.0);
            opt.release_params(&mut model);
            let released = flatten_params(&mut model);
            assert!(released.data().iter().all(|&x| x == 0.0));
            opt.materialize_params(&mut model);
            let after = flatten_params(&mut model);
            assert_eq!(before.data(), after.data());
        });
    }
}
