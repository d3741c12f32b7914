//! Bucketed gradient synchronization for data parallelism.
//!
//! Per-parameter all-reduce pays one latency (alpha) term per tensor; with
//! hundreds of small parameters the latency terms dominate. Instead we pack
//! gradients into size-capped *buckets* (default 25 MB, like PyTorch DDP and
//! the Colossal-AI gradient handler) and issue one fused all-reduce per
//! bucket. Because [`Layer::backward_staged`] fires stages in reverse-forward
//! order, the produced gradients always form a growing suffix of the
//! visit-order parameter list — so a bucket can launch on the comm stream as
//! soon as the suffix reaches its first parameter, overlapping communication
//! with the rest of the backward pass.
//!
//! Bitwise safety: a fused bucket all-reduce performs exactly the same
//! per-element rank-order additions as per-parameter all-reduces, and the
//! 1/p scale is elementwise — so the synced gradients are bit-identical to
//! the unbucketed baseline for *any* bucket plan.
//!
//! Opt-in **lossy channels** ([`Compression`], via `comm.compress`) trade
//! gradient fidelity for wire bytes: top-k
//! sparsification, int8 or fp16 quantization, each with a per-bucket
//! error-feedback residual so dropped mass is carried into the next step
//! instead of lost (see `colossalai_comm::compress`).

use colossalai_autograd::Layer;
use colossalai_comm::compress::{self, Compression};
use colossalai_comm::{DeviceCtx, Group, Stream};
use colossalai_tensor::Tensor;
use std::ops::Range;

/// Default bucket capacity: 25 MB of f32 gradient, PyTorch DDP's default.
pub const DEFAULT_BUCKET_BYTES: usize = 25 << 20;

/// One gradient bucket: a contiguous run of whole parameters in
/// `visit_params` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Half-open range of parameter indices (visit order).
    pub params: Range<usize>,
    /// Flat element offset of the bucket's first element.
    pub offset: usize,
    /// Total elements in the bucket.
    pub len: usize,
}

/// A deterministic partition of a model's parameters into buckets. Every
/// rank computes the same plan from the same model, so fused collectives
/// line up without any negotiation.
#[derive(Clone, Debug)]
pub struct BucketPlan {
    /// Buckets in visit (forward) order; they *fire* in reverse order
    /// during backward.
    pub buckets: Vec<Bucket>,
    /// Element count of each parameter, in visit order.
    pub param_sizes: Vec<usize>,
}

impl BucketPlan {
    /// Greedily packs parameters (in visit order) into buckets of at most
    /// `cap_bytes` of f32 data. A parameter larger than the cap gets a
    /// bucket of its own — parameters are never split across buckets.
    pub fn from_param_sizes(sizes: &[usize], cap_bytes: usize) -> BucketPlan {
        let cap_elems = (cap_bytes / std::mem::size_of::<f32>()).max(1);
        let mut buckets = Vec::new();
        let mut start = 0;
        let mut offset = 0;
        let mut len = 0;
        for (i, &n) in sizes.iter().enumerate() {
            if len > 0 && len + n > cap_elems {
                buckets.push(Bucket {
                    params: start..i,
                    offset,
                    len,
                });
                start = i;
                offset += len;
                len = 0;
            }
            len += n;
        }
        if len > 0 || sizes.is_empty() {
            buckets.push(Bucket {
                params: start..sizes.len(),
                offset,
                len,
            });
        }
        BucketPlan {
            buckets,
            param_sizes: sizes.to_vec(),
        }
    }

    /// Builds the plan for a model's parameters.
    pub fn for_model(model: &mut dyn Layer, cap_bytes: usize) -> BucketPlan {
        let mut sizes = Vec::new();
        model.visit_params(&mut |p| sizes.push(p.numel()));
        BucketPlan::from_param_sizes(&sizes, cap_bytes)
    }

    /// Total flat element count.
    pub fn total_elements(&self) -> usize {
        self.param_sizes.iter().sum()
    }

    /// Partitions `[0, total.div_ceil(p) * p)` — the flat gradient padded to
    /// a multiple of `p` — into contiguous element ranges of at most
    /// `cap_bytes`, each range a multiple of `p` elements. ZeRO shards every
    /// bucket evenly across the `p` ranks, so p-alignment keeps the
    /// reduce-scatter chunks equal. Returns `(offset, len)` pairs.
    pub fn element_ranges(total: usize, p: usize, cap_bytes: usize) -> Vec<(usize, usize)> {
        assert!(p > 0);
        let padded = total.div_ceil(p) * p;
        let cap_elems = (cap_bytes / std::mem::size_of::<f32>()).max(1);
        // round the cap up so each bucket length is a multiple of p
        let chunk = cap_elems.div_ceil(p) * p;
        let mut out = Vec::new();
        let mut o = 0;
        while o < padded {
            let len = chunk.min(padded - o);
            out.push((o, len));
            o += len;
        }
        if out.is_empty() {
            out.push((0, 0));
        }
        out
    }
}

/// Fused, bucketed data-parallel gradient synchronization over a [`Group`].
///
/// Two modes:
/// * [`sync_blocking`](BucketedGradSync::sync_blocking) — after a normal
///   backward, one blocking fused all-reduce per bucket (replaces
///   per-parameter all-reduce; same result, far fewer latency terms);
/// * [`backward_overlapped`](BucketedGradSync::backward_overlapped) — drives
///   [`Layer::backward_staged`] and launches each bucket's all-reduce on the
///   *comm stream* the moment its last gradient is produced, then joins the
///   streams with [`DeviceCtx::comm_sync`]. Communication hides behind the
///   remaining backward compute; only the final bucket's tail serializes.
pub struct BucketedGradSync {
    plan: BucketPlan,
    compress: Compression,
    /// Per-bucket error-feedback residuals: what the lossy channel has not
    /// sent yet. Empty vectors until the first lossy sync touches a bucket;
    /// always all-zero under [`Compression::None`].
    residuals: Vec<Vec<f32>>,
}

/// Compresses one flat bucket (updating its error-feedback `residual`) and
/// issues the channel's all-reduce ([`Compression::all_reduce`]) on
/// `stream`. The caller still applies the 1/p mean scale to the returned
/// sum.
fn all_reduce_bucket(
    ctx: &DeviceCtx,
    group: &Group,
    comp: Compression,
    residual: &mut Vec<f32>,
    mut flat: Vec<f32>,
    stream: Stream,
) -> Tensor {
    if comp.is_lossy() {
        if residual.is_empty() {
            residual.resize(flat.len(), 0.0);
        }
        let _ = compress::compress_with_feedback(comp, &mut flat, residual);
    }
    let t = Tensor::from_vec([flat.len()], flat);
    group.collective(ctx, comp.all_reduce().on(stream), t)
}

impl BucketedGradSync {
    /// Plans buckets for `model` with the given capacity
    /// (see [`DEFAULT_BUCKET_BYTES`]) and exact f32 gradients; pick a lossy
    /// channel with [`BucketedGradSync::with_compression`].
    pub fn new(model: &mut dyn Layer, cap_bytes: usize) -> Self {
        let plan = BucketPlan::for_model(model, cap_bytes);
        let residuals = vec![Vec::new(); plan.buckets.len()];
        BucketedGradSync {
            plan,
            compress: Compression::None,
            residuals,
        }
    }

    /// Selects the lossy gradient channel. Residual state resets: switching
    /// channels mid-training would otherwise replay another channel's
    /// backlog.
    pub fn with_compression(mut self, comp: Compression) -> Self {
        self.set_compression(comp);
        self
    }

    /// In-place form of [`BucketedGradSync::with_compression`].
    pub fn set_compression(&mut self, comp: Compression) {
        self.compress = comp;
        for r in &mut self.residuals {
            r.clear();
        }
    }

    /// The active gradient-compression channel.
    pub fn compression(&self) -> Compression {
        self.compress
    }

    /// Per-bucket error-feedback residuals (empty until a lossy sync).
    pub fn residuals(&self) -> &[Vec<f32>] {
        &self.residuals
    }

    /// The bucket plan.
    pub fn plan(&self) -> &BucketPlan {
        &self.plan
    }

    /// Fuses each bucket's gradients into one flat tensor, sends it through
    /// the compression channel and its all-reduce (blocking, main clock),
    /// scales by 1/p and writes the mean gradients back into the model.
    pub fn sync_blocking(&mut self, ctx: &DeviceCtx, group: &Group, model: &mut dyn Layer) {
        let scale = 1.0 / group.size() as f32;
        let mut grads: Vec<Tensor> = Vec::with_capacity(self.plan.param_sizes.len());
        model.visit_params(&mut |p| grads.push(p.grad().clone()));
        let mut reduced = Vec::with_capacity(self.plan.buckets.len());
        for (bi, b) in self.plan.buckets.iter().enumerate() {
            let flat = flatten_slices(b.len, grads[b.params.clone()].iter().map(|g| g.data()));
            let mut r = all_reduce_bucket(
                ctx,
                group,
                self.compress,
                &mut self.residuals[bi],
                flat,
                Stream::Main,
            );
            r.scale(scale);
            reduced.push(r);
        }
        self.write_back(model, &reduced);
    }

    /// Runs the staged backward, launching each bucket's fused all-reduce
    /// asynchronously as soon as the produced gradient suffix covers it,
    /// then joins compute and comm clocks and writes back mean gradients.
    /// Returns the input gradient, bit-identical to a plain backward +
    /// blocking sync.
    pub fn backward_overlapped(
        &mut self,
        ctx: &DeviceCtx,
        group: &Group,
        model: &mut dyn Layer,
        dy: &Tensor,
    ) -> Tensor {
        let n = self.plan.param_sizes.len();
        let scale = 1.0 / group.size() as f32;
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        let mut produced = n; // start of the produced suffix, in visit order
        let mut next = self.plan.buckets.len(); // buckets fire back to front
        let mut reduced: Vec<Option<Tensor>> = vec![None; self.plan.buckets.len()];
        // field-disjoint borrows: the closure mutates the residuals while
        // reading the plan
        let plan = &self.plan;
        let comp = self.compress;
        let residuals = &mut self.residuals;
        let dx = model.backward_staged(dy, &mut |stage| {
            assert!(stage.len() <= produced, "stage overruns parameter list");
            produced -= stage.len();
            for (i, g) in stage.iter().enumerate() {
                grads[produced + i] = Some(g.clone());
            }
            while next > 0 && plan.buckets[next - 1].params.start >= produced {
                next -= 1;
                let b = &plan.buckets[next];
                let flat = flatten_slices(
                    b.len,
                    grads[b.params.clone()]
                        .iter()
                        .map(|g| g.as_ref().expect("bucket grad produced").data()),
                );
                let mut r =
                    all_reduce_bucket(ctx, group, comp, &mut residuals[next], flat, Stream::Comm);
                r.scale(scale);
                reduced[next] = Some(r);
            }
        });
        assert_eq!(produced, 0, "backward_staged must cover every parameter");
        assert_eq!(next, 0, "every bucket must have launched");
        // grads must be final before optimizer.step: join the comm stream
        ctx.comm_sync();
        let reduced: Vec<Tensor> = reduced.into_iter().map(|r| r.unwrap()).collect();
        self.write_back(model, &reduced);
        dx
    }

    /// Scatters the reduced flat buckets back into per-parameter gradients.
    /// For large models the per-parameter copies (pure, disjoint reads of
    /// `reduced`) run across the `tensor::par` pool: one visit collects each
    /// parameter's (shape, bucket, offset), the tensors are built in
    /// parallel, and a second visit assigns them in order.
    fn write_back(&self, model: &mut dyn Layer, reduced: &[Tensor]) {
        let total = self.plan.total_elements();
        if colossalai_tensor::par::par_eligible(total) && self.plan.param_sizes.len() > 1 {
            let mut metas = Vec::with_capacity(self.plan.param_sizes.len());
            {
                let mut pi = 0;
                let mut bi = 0;
                let mut off = 0;
                model.visit_params(&mut |p| {
                    while pi >= self.plan.buckets[bi].params.end {
                        bi += 1;
                        off = 0;
                    }
                    metas.push((p.grad().shape().clone(), bi, off));
                    off += p.numel();
                    pi += 1;
                });
                assert_eq!(pi, self.plan.param_sizes.len());
            }
            let built = colossalai_tensor::par::par_map(metas, |_, (shape, bi, off)| {
                let n = shape.numel();
                Tensor::from_slice(shape, &reduced[bi].data()[off..off + n])
            });
            let mut built = built.into_iter();
            model.visit_params(&mut |p| {
                *p.grad_mut() = built.next().expect("one built grad per parameter");
            });
            return;
        }
        let mut pi = 0;
        let mut bi = 0;
        let mut off = 0;
        model.visit_params(&mut |p| {
            while pi >= self.plan.buckets[bi].params.end {
                bi += 1;
                off = 0;
            }
            let n = p.numel();
            let shape = p.grad().shape().clone();
            // pooled copy instead of a fresh `to_vec` per parameter
            *p.grad_mut() = Tensor::from_slice(shape, &reduced[bi].data()[off..off + n]);
            off += n;
            pi += 1;
        });
        assert_eq!(pi, self.plan.param_sizes.len());
    }
}

/// Flattens ordered gradient slices into one pooled bucket buffer. Large
/// buckets copy each slice's disjoint span on its own `tensor::par`
/// executor; the result is byte-identical to sequential `extend_from_slice`.
fn flatten_slices<'g>(len: usize, srcs: impl Iterator<Item = &'g [f32]>) -> Vec<f32> {
    if colossalai_tensor::par::par_eligible(len) {
        let srcs: Vec<&[f32]> = srcs.collect();
        if srcs.len() > 1 {
            let mut flat = colossalai_tensor::pool::take_zeroed(len);
            let mut segs: Vec<(&[f32], &mut [f32])> = Vec::with_capacity(srcs.len());
            let mut rest = flat.as_mut_slice();
            for s in srcs {
                let (head, tail) = rest.split_at_mut(s.len());
                segs.push((s, head));
                rest = tail;
            }
            colossalai_tensor::par::par_items(segs, |_, (s, d)| d.copy_from_slice(s));
            return flat;
        }
        let mut flat = colossalai_tensor::pool::take_buffer(len);
        for s in srcs {
            flat.extend_from_slice(s);
        }
        return flat;
    }
    let mut flat = colossalai_tensor::pool::take_buffer(len);
    for s in srcs {
        flat.extend_from_slice(s);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_parallel::flatten_grads;
    use colossalai_autograd::{Gelu, Linear, Sequential};
    use colossalai_comm::{OpKind, Wire, World};
    use colossalai_tensor::init;
    use colossalai_topology::systems::{system_i, system_iii};

    fn make_model(seed: u64) -> Sequential {
        let mut rng = init::rng(seed);
        Sequential::new(vec![
            Box::new(Linear::from_rng("l1", 4, 8, true, &mut rng)),
            Box::new(Gelu::new()),
            Box::new(Linear::from_rng("l2", 8, 3, true, &mut rng)),
        ])
    }

    #[test]
    fn greedy_packing_respects_cap_and_covers_params() {
        // sizes in elements; cap of 100 elements = 400 bytes
        let sizes = [40, 50, 30, 200, 10, 10];
        let plan = BucketPlan::from_param_sizes(&sizes, 400);
        // 40+50 fits the 100-element cap; +30 would exceed → new bucket;
        // 30+200 exceeds → 200 gets its own; 10+10 closes it out
        let ranges: Vec<_> = plan.buckets.iter().map(|b| b.params.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..4, 4..6]);
        let mut covered = 0;
        for b in &plan.buckets {
            assert_eq!(b.offset, covered);
            covered += b.len;
            assert_eq!(
                b.len,
                sizes[b.params.clone()].iter().sum::<usize>(),
                "bucket length equals its params' elements"
            );
        }
        assert_eq!(covered, sizes.iter().sum::<usize>());
    }

    #[test]
    fn oversized_param_gets_own_bucket() {
        let sizes = [1000, 4, 4];
        let plan = BucketPlan::from_param_sizes(&sizes, 64);
        assert_eq!(plan.buckets[0].params, 0..1);
        assert_eq!(plan.buckets[0].len, 1000);
    }

    #[test]
    fn element_ranges_are_p_aligned_and_cover_padded_total() {
        let p = 4;
        let total = 114; // pads to 116
        let ranges = BucketPlan::element_ranges(total, p, 40 * 4); // 40-elem cap
        let padded = total.div_ceil(p) * p;
        let mut o = 0;
        for &(off, len) in &ranges {
            assert_eq!(off, o);
            assert_eq!(len % p, 0, "every bucket shards evenly over p ranks");
            o += len;
        }
        assert_eq!(o, padded);
    }

    #[test]
    fn fused_blocking_sync_matches_per_param_allreduce() {
        let p = 4;
        let world = World::new(system_i());
        let grads = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(820);
            let mut rng = init::rng(900 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
            let y = model.forward(&x);
            let _ = model.backward(&Tensor::ones(y.shape().clone()));

            // per-parameter baseline on a copy of the grads
            let mut baseline = Vec::new();
            model.visit_params(&mut |pa| {
                let mut r = g.all_reduce(ctx, pa.grad().clone());
                r.scale(1.0 / p as f32);
                baseline.extend_from_slice(r.data());
            });

            // tiny cap → many buckets; still must match bitwise
            let mut sync = BucketedGradSync::new(&mut model, 64);
            assert!(sync.plan().buckets.len() > 1);
            sync.sync_blocking(ctx, &g, &mut model);
            let fused = flatten_grads(&mut model);
            assert_eq!(fused.data(), &baseline[..], "fused == per-param bitwise");
            fused
        });
        assert_eq!(grads[0].data(), grads[1].data());
    }

    #[test]
    fn overlapped_backward_matches_blocking_bitwise() {
        let p = 4;
        let world = World::new(system_iii());
        let results = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut rng = init::rng(910 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);

            // blocking reference
            let mut m1 = make_model(821);
            let y1 = m1.forward(&x);
            let dy = Tensor::ones(y1.shape().clone());
            let dx1 = m1.backward(&dy);
            let mut sync = BucketedGradSync::new(&mut m1, 64);
            sync.sync_blocking(ctx, &g, &mut m1);
            let want = flatten_grads(&mut m1);

            // overlapped run on an identical model
            let mut m2 = make_model(821);
            let y2 = m2.forward(&x);
            assert_eq!(y1.data(), y2.data());
            let mut sync2 = BucketedGradSync::new(&mut m2, 64);
            let dx2 = sync2.backward_overlapped(ctx, &g, &mut m2, &dy);
            assert_eq!(dx1.data(), dx2.data());
            let got = flatten_grads(&mut m2);
            assert_eq!(got.data(), want.data(), "overlap is bitwise-neutral");
            got
        });
        assert_eq!(results[0].data(), results[1].data());
    }

    #[test]
    fn compressed_sync_is_deterministic_and_overlap_neutral() {
        // Every lossy channel: all ranks land on identical grads, and the
        // overlapped schedule is bitwise-identical to the blocking one.
        let p = 4;
        for comp in [Compression::Fp16, Compression::Int8, Compression::TopK(3)] {
            let run = |overlapped: bool| {
                let world = World::new(system_iii());
                world.run_on(p, |ctx| {
                    let g = ctx.world_group(p);
                    let mut model = make_model(830);
                    let mut rng = init::rng(940 + g.rank() as u64);
                    let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
                    let y = model.forward(&x);
                    let dy = Tensor::ones(y.shape().clone());
                    let mut sync = BucketedGradSync::new(&mut model, 64).with_compression(comp);
                    if overlapped {
                        let _ = sync.backward_overlapped(ctx, &g, &mut model, &dy);
                    } else {
                        let _ = model.backward(&dy);
                        sync.sync_blocking(ctx, &g, &mut model);
                    }
                    flatten_grads(&mut model)
                })
            };
            let blocking = run(false);
            let overlapped = run(true);
            for r in 1..p {
                assert_eq!(
                    blocking[0].data(),
                    blocking[r].data(),
                    "{comp:?}: ranks agree"
                );
            }
            for (b, o) in blocking.iter().zip(&overlapped) {
                assert_eq!(b.data(), o.data(), "{comp:?}: overlap is bitwise-neutral");
            }
        }
    }

    #[test]
    fn error_feedback_residual_accounts_exactly_through_bucket_sync() {
        // On a single-rank group the all-reduced value IS the sent value, so
        // sent + residual must reconstruct the exact pre-compression gradient
        // bitwise (the §14 error-feedback invariant), per channel.
        for comp in [Compression::TopK(2), Compression::Int8, Compression::Fp16] {
            let world = World::new(system_i());
            world.run_on(1, |ctx| {
                let g = ctx.world_group(1);
                let mut model = make_model(831);
                let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(950));
                let y = model.forward(&x);
                let _ = model.backward(&Tensor::ones(y.shape().clone()));
                let exact = flatten_grads(&mut model);
                let mut sync = BucketedGradSync::new(&mut model, 64).with_compression(comp);
                sync.sync_blocking(ctx, &g, &mut model);
                let sent = flatten_grads(&mut model);
                let residual: Vec<f32> = sync.residuals().concat();
                assert_eq!(residual.len(), exact.numel());
                for (i, ((s, r), e)) in sent
                    .data()
                    .iter()
                    .zip(&residual)
                    .zip(exact.data())
                    .enumerate()
                {
                    assert_eq!(s + r, *e, "{comp:?}: sent + residual == exact at {i}");
                }
            });
        }
    }

    #[test]
    fn topk_wire_bytes_match_idxval_allgather_accounting() {
        // Ragged buckets (64-byte cap over 4/8/3-sized params): each bucket
        // crosses as an all-gather of min(k, len) (index, value) pairs per
        // rank, charged at Wire::IdxVal width.
        let p = 4;
        let k = 5;
        let world = World::new(system_i());
        let plans = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(832);
            let mut rng = init::rng(960 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
            let y = model.forward(&x);
            let _ = model.backward(&Tensor::ones(y.shape().clone()));
            let mut sync =
                BucketedGradSync::new(&mut model, 64).with_compression(Compression::TopK(k));
            sync.sync_blocking(ctx, &g, &mut model);
            sync.plan()
                .buckets
                .iter()
                .map(|b| b.len)
                .collect::<Vec<_>>()
        });
        let lens = &plans[0];
        assert!(lens.iter().any(|&n| n < k), "some bucket is shorter than k");
        assert!(lens.iter().any(|&n| n > k), "some bucket is longer than k");
        let stats = world.stats();
        let expect_elems: u64 = lens
            .iter()
            .map(|&n| (p as u64) * (p as u64 - 1) * k.min(n) as u64)
            .sum();
        assert_eq!(stats.elements_of(OpKind::AllReduce), expect_elems);
        assert_eq!(stats.bytes, expect_elems * Wire::IdxVal.bytes());
        assert_eq!(stats.ops_of(OpKind::AllReduce), lens.len() as u64);
    }

    #[test]
    fn int8_wire_bytes_are_one_per_element_hop() {
        // Ring all-reduce moves 2(p-1)·n element-hops per bucket; the int8
        // channel charges each at Wire::I8 (one byte).
        let p = 4;
        let world = World::new(system_i());
        let plans = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(833);
            let mut rng = init::rng(970 + g.rank() as u64);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut rng);
            let y = model.forward(&x);
            let _ = model.backward(&Tensor::ones(y.shape().clone()));
            let mut sync =
                BucketedGradSync::new(&mut model, 64).with_compression(Compression::Int8);
            sync.sync_blocking(ctx, &g, &mut model);
            sync.plan()
                .buckets
                .iter()
                .map(|b| b.len)
                .collect::<Vec<_>>()
        });
        let stats = world.stats();
        let expect_elems: u64 = plans[0]
            .iter()
            .map(|&n| 2 * (p as u64 - 1) * n as u64)
            .sum();
        assert_eq!(stats.elements_of(OpKind::AllReduce), expect_elems);
        assert_eq!(stats.bytes, expect_elems * Wire::I8.bytes());
    }

    #[test]
    fn overlapped_backward_joins_streams() {
        let p = 4;
        let world = World::new(system_i());
        let clocks = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(822);
            let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(930));
            let y = model.forward(&x);
            let mut sync = BucketedGradSync::new(&mut model, 64);
            let _ = sync.backward_overlapped(ctx, &g, &mut model, &Tensor::ones(y.shape().clone()));
            (ctx.clock(), ctx.comm_clock())
        });
        for (main, comm) in clocks {
            assert!(main > 0.0, "comm time was charged");
            assert_eq!(main, comm, "comm_sync joins both clocks");
        }
    }
}
