//! The Zero Redundancy Optimizer (Rajbhandari et al., integrated in
//! Colossal-AI via the re-designed sharded tensor interface of Section 3.2).
//!
//! Three stages, all arithmetically identical to data-parallel AdamW:
//!
//! * **Stage 1** — optimizer states (FP32 master weights + Adam moments)
//!   sharded; gradients still all-reduced in full.
//! * **Stage 2** — gradients reduce-scattered: each rank still holds its
//!   full per-parameter gradients until the reduce (the backward writes
//!   them), but receives and keeps only its shard of the reduced sum. The
//!   step clears the full gradients without writing them: each parks its
//!   buffer (`Param::zero_grad`), which the next backward overwrites.
//! * **Stage 3** — parameters sharded too: a step releases them, so ranks
//!   persist only their shard, and one all-gather
//!   ([`ZeroOptimizer::materialize_params`]) gathers them for the forward.
//!
//! Because our reductions are rank-order deterministic, every stage yields
//! parameters *bitwise equal* to the plain data-parallel baseline — the key
//! invariant in DESIGN.md, checked by the tests below.
//!
//! A `ZeroOptimizer` is the shared [`GradReducer`] (the one bucketed data
//! parallelism runs, keeping a shard of each bucket instead of the whole)
//! plus [`AdamW`] over the shards plus the parameter all-gather. Its
//! buckets are data parallelism's: runs of whole parameters of at most the
//! bucket capacity (default 25 MB) and of one replica mark, each padded to
//! a multiple of p, so a layout's replica sums ride them as they ride DP's.
//! Rank `r` owns the `r`-th p-th of every bucket as one FP32 master tensor,
//! and the dense optimizer's [`AdamW::step_tensors`] steps that list, so
//! each bucket's Adam moments sit beside its master shard. The update is
//! element-wise, so any bucket plan yields the same bits, and a single
//! default bucket degenerates to the classic contiguous shard. The
//! reducer's `bucket::FlatLayout` is the only mapping between the model and
//! those buckets, and it copies no whole bucket: the reduce-scatter reads
//! the gradients in place, the master shards are cut straight from the
//! parameters (at construction, and again when a checkpoint restore
//! rewrote them), and every gathered bucket lands in the model as O(1)
//! views — a parameter *is* a region of the bucket it arrived in, shared by
//! the p ranks of the group, not a copy of it. Gradients take no memory
//! until the first backward writes them, so the initial parameter buffers
//! a stage-3 rank drops at its first gather are the ones its gradients
//! reuse from the pool.

use crate::bucket::{GradReducer, Keep, DEFAULT_BUCKET_BYTES};
use colossalai_autograd::{AdamW, Layer, Param};
use colossalai_comm::{DeviceCtx, Group, Pieces};
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

/// ZeRO over any [`Layer`] model: [`AdamW`] stepping this rank's shard of
/// every gradient bucket.
pub struct ZeroOptimizer {
    stage: ZeroStage,
    ctx: DeviceCtx,
    group: Group,
    /// The optimizer of the master shards; its moments are per bucket,
    /// beside the shard they update.
    adam: AdamW,
    /// Bucketed gradient reduction over buckets of whole parameters, each
    /// padded to a multiple of p; each rank keeps its p-th of every bucket.
    reducer: GradReducer,
    /// This rank's FP32 master shard, one pooled tensor per bucket: the
    /// `r`-th p-th of that bucket's elements. Updated in place, and handed
    /// to the parameter all-gather as an O(1) copy-on-write handle.
    master: Vec<Tensor>,
    /// Where the shard lives, and the PCIe link and host its off-device
    /// share is charged against ([`ZeroOptimizer::with_offload`]).
    offload: Option<(OffloadPlan, Link, HostSpec)>,
}

/// This rank's p-th of every bucket of the model's current parameter
/// values, cut straight from the parameters: the FP32 master shards.
fn master_shards(reducer: &GradReducer, group: &Group, model: &mut dyn Layer) -> Vec<Tensor> {
    let (p, r) = (group.size(), group.rank());
    let shard_of = |bucket: Pieces| {
        let sl = bucket.numel() / p;
        bucket.copy_range(r * sl..(r + 1) * sl)
    };
    let values = reducer.layout.pieces(model, Param::value);
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
        let adam = AdamW::new(lr, weight_decay);
        Self::with_bucket_bytes(ctx, group, model, stage, adam, DEFAULT_BUCKET_BYTES)
    }

    /// Like [`ZeroOptimizer::new`], stepping the shards with `adam` and with
    /// an explicit gradient-bucket capacity.
    pub fn with_bucket_bytes(
        ctx: &DeviceCtx,
        group: &Group,
        model: &mut dyn Layer,
        stage: ZeroStage,
        adam: AdamW,
        bucket_bytes: usize,
    ) -> Self {
        let keep = match stage {
            ZeroStage::One => Keep::ShardOfAllReduce,
            ZeroStage::Two | ZeroStage::Three => Keep::ShardOfReduceScatter,
        };
        let reducer = GradReducer::new(model, bucket_bytes, keep, group.size());
        let master = master_shards(&reducer, group, model);
        ZeroOptimizer {
            stage,
            ctx: ctx.clone(),
            group: group.clone(),
            adam,
            reducer,
            master,
            offload: None,
        }
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
    /// after a checkpoint restore wrote them, since the next gather lands
    /// the shards back over the model. The moments and step count stay, as
    /// they do for a dense AdamW whose parameters were restored.
    pub fn reload_master(&mut self, model: &mut dyn Layer) {
        self.master = master_shards(&self.reducer, &self.group, model);
    }

    /// The `(offset, len)` buckets of the flat gradient: runs of whole
    /// parameters, each padded to a multiple of p.
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
            .backward_overlapped(&self.ctx, Some(&self.group), model, dy)
    }

    /// Reduces the model's accumulated gradients (blocking) to this rank's
    /// mean-scaled shards, one per bucket.
    pub fn reduce(&mut self, model: &mut dyn Layer) -> Vec<Tensor> {
        self.reducer.reduce(&self.ctx, Some(&self.group), model)
    }

    /// Reduces the gradients (data-parallel mean), updates this rank's
    /// shard, gathers the parameters back (stage 3: releases them for
    /// `materialize_params`) and clears the model's gradients.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let shards = self.reduce(model);
        self.step_with_shards(model, &shards);
    }

    /// The update half of [`ZeroOptimizer::step`], from shards
    /// [`ZeroOptimizer::reduce`] or [`ZeroOptimizer::backward_overlapped`]
    /// produced (and the caller may since have unscaled or clipped);
    /// returns whether it released the parameters (stage 3).
    pub fn step_with_shards(&mut self, model: &mut dyn Layer, grad_shards: &[Tensor]) -> bool {
        self.adam.step_tensors(&mut self.master, grad_shards);
        if let Some((plan, pcie, host)) = &self.offload {
            plan.charge_step(&self.ctx, *pcie, host);
        }
        match self.stage {
            ZeroStage::Three => self.release_params(model),
            _ => self.gather_params_into(model),
        }
        model.zero_grad();
        self.stage == ZeroStage::Three
    }

    /// All-gathers every bucket of the sharded master copy and lands it in
    /// the model: each parameter becomes a view of the gathered bucket that
    /// holds it.
    fn gather_params_into(&self, model: &mut dyn Layer) {
        let gather = |part: &Tensor| self.group.all_gather_cat(&self.ctx, part.clone(), 0);
        let gathered: Vec<Tensor> = self.master.iter().map(gather).collect();
        self.reducer.layout.scatter_values(model, &gathered);
    }

    /// How every ZeRO-3 step ends: drops the full parameters, leaving zeros
    /// (the master shard is authoritative). Persistent parameter memory
    /// falls to `2N/p`, and the memory really goes: every value becomes a
    /// view of one zero tensor the size of the largest parameter, itself a
    /// view of the shared zero storage ([`Tensor::shared_zeros`]) that holds
    /// nothing of its own, so this rank's handles to the gathered buckets
    /// drop and a bucket's storage returns to the pool once the last rank
    /// has released it.
    pub fn release_params(&self, model: &mut dyn Layer) {
        assert_eq!(
            self.stage,
            ZeroStage::Three,
            "release only applies to stage 3"
        );
        let mut largest = 0;
        model.visit_params(&mut |p| largest = largest.max(p.numel()));
        let zeros = Tensor::shared_zeros([largest]);
        model.visit_params(&mut |p| {
            let shape = p.value().shape().clone();
            p.set_value(zeros.view(0, shape));
        });
    }

    /// ZeRO-3's one parameter gather: all-gathers the master shards into
    /// the model, after a step released it and before the next forward.
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
        /// Per rank, the per-step loss bits.
        bits: Vec<Vec<u8>>,
        /// Per rank, the final (main, comm) clocks.
        clocks: Vec<[f64; 2]>,
        /// Per rank, the input gradient the last backward returned.
        dx: Vec<Tensor>,
        /// Per rank, per step: where each parameter's gradient lives once
        /// the step is done. Plain data parallelism only: a ZeRO step parks
        /// the gradients' buffers and leaves shared-zeros views.
        grad_homes: Vec<Vec<Vec<usize>>>,
    }

    /// Where each of `model`'s gradients lives.
    fn grad_homes(model: &mut dyn Layer) -> Vec<usize> {
        let mut homes = Vec::new();
        model.visit_params(&mut |p| homes.push(p.grad().data().as_ptr() as usize));
        homes
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
            let mut bytes: Vec<u8> = Vec::new();
            let mut dx = Tensor::scalar(0.0);
            let mut homes = Vec::new();
            let params = match stage {
                None => {
                    let mut model = make_model(900);
                    let mut reducer = GradReducer::data_parallel(&mut model, bucket_bytes);
                    let mut opt = AdamW::new(0.01, 0.05);
                    for s in 0..steps {
                        let (x, t) = batch(s);
                        model.zero_grad();
                        let (loss, dlogits) = cross_entropy(&model.forward(&x), &t);
                        bytes.extend(loss.to_bits().to_le_bytes());
                        if overlap {
                            (dx, _) =
                                reducer.backward_overlapped(ctx, Some(&g), &mut model, &dlogits);
                        } else {
                            dx = model.backward(&dlogits);
                            reducer.reduce(ctx, Some(&g), &mut model);
                        }
                        opt.step_layer(&mut model);
                        homes.push(grad_homes(&mut model));
                    }
                    flatten_params(&mut model)
                }
                Some(stage) => {
                    let mut model = make_model(900);
                    let mut opt = ZeroOptimizer::with_bucket_bytes(
                        ctx,
                        &g,
                        &mut model,
                        stage,
                        AdamW::new(0.01, 0.05),
                        bucket_bytes,
                    );
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
                    flatten_params(&mut model)
                }
            };
            (params, bytes, [ctx.clock(), ctx.comm_clock()], dx, homes)
        });
        let mut run = Run {
            params: Vec::new(),
            stats: world.stats(),
            bits: Vec::new(),
            clocks: Vec::new(),
            dx: Vec::new(),
            grad_homes: Vec::new(),
        };
        for (params, bits, clocks, dx, homes) in out {
            run.params.push(params);
            run.bits.push(bits);
            run.clocks.push(clocks);
            run.dx.push(dx);
            run.grad_homes.push(homes);
        }
        run
    }

    /// Plain DP + AdamW baseline trajectory.
    fn ddp_trajectory(p: usize, steps: usize) -> Tensor {
        let mut run = trajectory(None, p, steps, DEFAULT_BUCKET_BYTES, false);
        run.params.swap_remove(0)
    }

    /// ZeRO trajectory with an explicit bucket capacity.
    fn zero_trajectory_opts(
        p: usize,
        steps: usize,
        stage: ZeroStage,
        bucket_bytes: usize,
    ) -> (Tensor, colossalai_comm::CommStats) {
        let mut run = trajectory(Some(stage), p, steps, bucket_bytes, false);
        (run.params.swap_remove(0), run.stats)
    }

    fn zero_trajectory(
        p: usize,
        steps: usize,
        stage: ZeroStage,
    ) -> (Tensor, colossalai_comm::CommStats) {
        zero_trajectory_opts(p, steps, stage, DEFAULT_BUCKET_BYTES)
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
        // 16-element buckets over the 114-element model → a bucket per
        // parameter (60 / 12 / 40 / 4 after padding), bucket-sharded master
        // layout; the bits must not move
        let want = ddp_trajectory(4, 3);
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let (got, _) = zero_trajectory_opts(4, 3, stage, 64);
            assert_eq!(got.data(), want.data(), "stage {stage:?} with tiny buckets");
        }
    }

    #[test]
    fn every_scheme_and_schedule_runs_the_one_reducer() {
        // {DP, ZeRO-1/2/3} x {blocking, overlapped}, several 64-byte
        // buckets firing per backward
        let schemes = [
            None,
            Some(ZeroStage::One),
            Some(ZeroStage::Two),
            Some(ZeroStage::Three),
        ];
        let exact_ddp = trajectory(None, 4, 3, 64, false);
        for scheme in schemes {
            let what = format!("{scheme:?}");
            let blocking = trajectory(scheme, 4, 3, 64, false);
            let overlapped = trajectory(scheme, 4, 3, 64, true);
            for r in 0..4 {
                // every replica lands on the same bits
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
            // every scheme is the plain data-parallel trajectory
            assert_eq!(
                overlapped.params[0].data(),
                exact_ddp.params[0].data(),
                "{what}: diverged from DDP"
            );
        }
    }

    #[test]
    fn gradients_keep_their_buffers_from_step_to_step() {
        // the bucket collectives read the gradients through handles the
        // combine drops; one the rendezvous kept would make the next
        // write-back, `zero_grad` or accumulation copy the gradient away.
        // Plain data parallelism: after a ZeRO step every gradient is a
        // shared-zeros view, so the ZeRO stages are held after each backward
        // by `each_backward_writes_the_gradients_where_the_last_one_did`
        for overlap in [false, true] {
            let run = trajectory(None, 4, 3, 64, overlap);
            for (r, homes) in run.grad_homes.iter().enumerate() {
                assert_eq!(homes.len(), 3);
                assert!(
                    homes.iter().all(|h| h == &homes[0]),
                    "overlap {overlap}, rank {r}: a gradient moved"
                );
            }
        }
    }

    #[test]
    fn each_backward_writes_the_gradients_where_the_last_one_did() {
        // the step clears the gradients by parking their buffers, and the
        // next backward writes them there (the weight GEMM stores over
        // its stale contents); a handle a peer's reduce-scatter still held
        // when this rank resumed would make that write copy it away
        for stage in [ZeroStage::Two, ZeroStage::Three] {
            for overlap in [false, true] {
                let world = World::new(system_ii());
                let homes = world.run_on(4, |ctx| {
                    let g = ctx.world_group(4);
                    let mut model = make_model(900);
                    let adam = AdamW::new(0.01, 0.05);
                    let mut opt =
                        ZeroOptimizer::with_bucket_bytes(ctx, &g, &mut model, stage, adam, 64);
                    let mut homes = Vec::new();
                    for s in 0..3 {
                        let mut rng = init::rng(1000 + (4 * s + g.rank()) as u64);
                        let x = init::uniform([2, 6], -1.0, 1.0, &mut rng);
                        if stage == ZeroStage::Three {
                            opt.materialize_params(&mut model);
                        }
                        let (_, dlogits) = cross_entropy(&model.forward(&x), &[s % 4, 1]);
                        let shards = if overlap {
                            opt.backward_overlapped(&mut model, &dlogits).1
                        } else {
                            model.backward(&dlogits);
                            opt.reduce(&mut model)
                        };
                        homes.push(grad_homes(&mut model));
                        opt.step_with_shards(&mut model, &shards);
                    }
                    homes
                });
                for (r, homes) in homes.iter().enumerate() {
                    assert!(
                        homes.iter().all(|h| h == &homes[0]),
                        "{stage:?}, overlap {overlap}, rank {r}: a gradient moved"
                    );
                }
            }
        }
    }

    /// FNV-1a 64 hashes of everything [`trajectory`] reports of a 4-rank,
    /// 3-step, 64-byte-bucket run except the parameters, as `(bits,
    /// clocks)`: the bits hash covers the per-rank loss bytes, then the
    /// `CommStats` breakdown (op kinds sorted); the clock hash covers the
    /// per-rank final (main, comm) clocks. A change to the time model
    /// moves only the second.
    fn run_fingerprint(stage: Option<ZeroStage>, overlap: bool) -> (u64, u64) {
        let Run {
            stats,
            bits,
            clocks,
            ..
        } = trajectory(stage, 4, 3, 64, overlap);
        let mut by_op: Vec<_> = stats.by_op.iter().collect();
        by_op.sort_by_key(|(kind, _)| kind.name());
        let stats_text = format!("{} {} {} {by_op:?}", stats.ops, stats.elements, stats.bytes);
        let fnv = |bytes: &mut dyn Iterator<Item = u8>| {
            bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        (
            fnv(&mut bits.into_iter().flatten().chain(stats_text.bytes())),
            fnv(&mut clocks
                .iter()
                .flatten()
                .flat_map(|c| c.to_bits().to_le_bytes())),
        )
    }

    #[test]
    fn dp_and_zero_reproduce_the_frozen_fingerprints() {
        // per scheme, the bits fingerprint (overlap moves no bit) and the
        // clock fingerprints of the blocking and of the overlapped run. The
        // bits were frozen from the per-width, per-stream `Group` methods
        // before the `Collective` descriptor replaced them; the clocks were
        // re-pinned when every collective started paying the cost model's
        // launch term, and again when the kernels' metered FLOPs reached the
        // clock. The two ZeRO rows were re-pinned, bits and clocks, when ZeRO
        // moved onto data parallelism's whole-parameter buckets: at this
        // 64-byte cap the 114-element model went from 8 p-aligned buckets
        // to 4 (60 / 12 / 40 / 4 after padding), so half as many gradient
        // and parameter collectives of the same 116 elements. The per-rank
        // loss bytes both rows hash did not move; the `CommStats` text and
        // the launches did
        use ZeroStage::{One, Two};
        let golden = [
            (
                None,
                0x1e79_3363_a889_ea6f,
                [0x7086_79c4_b933_0b7d, 0xda54_e808_749b_3805],
            ),
            (
                Some(One),
                0x0289_14b4_4b3b_e063,
                [0x4539_dae3_bae1_605d, 0x4f2a_acdc_4eb4_9475],
            ),
            (
                Some(Two),
                0xce3f_18c5_804a_8954,
                [0x23f1_5741_28ef_ff55, 0xdc18_af76_93a4_0265],
            ),
        ];
        let mut moved = Vec::new();
        for (stage, bits, clocks) in golden {
            for (overlap, clocks) in [false, true].into_iter().zip(clocks) {
                let got = run_fingerprint(stage, overlap);
                if got != (bits, clocks) {
                    let (bits, clocks) = got;
                    let at = format!("{stage:?}, overlap={overlap}");
                    moved.push(format!("{at}: ({bits:#018x}, {clocks:#018x})"));
                }
            }
        }
        assert!(
            moved.is_empty(),
            "moved fingerprints:\n{}",
            moved.join("\n")
        );
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
            // 64-byte buckets: a master shard per parameter
            let mut opt = ZeroOptimizer::with_bucket_bytes(
                ctx,
                &g,
                &mut model,
                stage,
                AdamW::new(0.01, 0.05),
                64,
            );
            if let Some(plan) = offload {
                opt = opt.with_offload(plan, Link::pcie(), HostSpec::dgx());
            }
            let mut advanced = Vec::new();
            for s in 0..3 {
                seeded_backward(&mut model, s);
                let before = ctx.clock();
                opt.step(&mut model);
                advanced.push(ctx.clock() - before);
                if stage == ZeroStage::Three {
                    opt.materialize_params(&mut model);
                }
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
                AdamW::new(0.01, 0.0),
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
    fn a_zero3_step_leaves_only_shards_and_gathers_the_model_once() {
        // materialize → forward → backward → step, the hand-driven stage-3
        // loop: the step releases what the pre-forward gather brought, so
        // each step issues one all-gather per bucket
        let world = World::new(system_ii());
        let buckets = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut model = make_model(912);
            let mut opt = ZeroOptimizer::with_bucket_bytes(
                ctx,
                &g,
                &mut model,
                ZeroStage::Three,
                AdamW::new(0.01, 0.0),
                64,
            );
            for s in 0..3 {
                opt.materialize_params(&mut model);
                seeded_backward(&mut model, s);
                opt.step(&mut model);
                // every value is a view of one zero tensor: no gathered
                // bucket is held
                let mut values = Vec::new();
                model.visit_params(&mut |p| values.push(p.value().clone()));
                for v in &values {
                    assert!(v.shares_storage(&values[0]));
                    assert!(v.data().iter().all(|&x| x == 0.0));
                }
            }
            opt.bucket_ranges().len() as u64
        });
        assert_eq!(buckets[0], 4);
        assert_eq!(world.stats().ops_of(OpKind::AllGather), 3 * buckets[0]);
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
                AdamW::new(0.01, 0.0),
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
            opt.bucket_ranges()
                .iter()
                .map(|&(_, len)| len)
                .sum::<usize>()
                / 4
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
