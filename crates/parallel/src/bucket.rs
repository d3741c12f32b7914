//! The gradient reducer: bucketed, backward-overlapped reduction of the flat
//! gradient, shared by data parallelism, every ZeRO stage and the replica
//! sums of sequence and mesh parallelism. A parameter such a mode replicates
//! names the groups that sum its gradient ([`Param::replicas`]); no bucket
//! mixes parameters whose lists differ, and a marked bucket is all-reduced
//! over each of its groups, outermost first, then over the data-parallel
//! group. This file is the one reader of the mark.
//!
//! Per-parameter all-reduce pays one latency (alpha) term per tensor; with
//! hundreds of small parameters the latency terms dominate. Instead the
//! gradient is packed into size-capped *buckets* (default 25 MB, like
//! PyTorch DDP and the Colossal-AI gradient handler) of whole parameters
//! with one fused collective each. Because [`Layer::backward_staged`] fires
//! stages in reverse-forward order, the produced gradients always form a
//! growing suffix of the visit-order parameter list — so a bucket can launch
//! on the comm stream as soon as the suffix reaches its first parameter,
//! overlapping communication with the rest of the backward pass. Which
//! collective is fused — what each rank [`Keep`]s — is all that bucketed DP
//! ("ZeRO stage 0") and ZeRO 1/2/3 differ in, so [`GradReducer`] takes it
//! as a parameter; a sharded kind pads each bucket to a multiple of the
//! data-parallel size so its shards are equal.
//!
//! Bitwise safety: a fused bucket reduction performs exactly the same
//! per-element rank-order additions as per-parameter all-reduces, and the
//! 1/p scale is elementwise — so the reduced gradients are bit-identical to
//! the unbucketed baseline for *any* bucket plan. Every bucket crosses the
//! wire as exact f32.

use colossalai_autograd::{Layer, Param};
use colossalai_comm::{Collective, DeviceCtx, Group, Op, Pieces, Stream};
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
    /// Total elements of its parameters.
    pub len: usize,
    /// Its parameters' [`Param::replicas`], which they all share.
    pub replicas: Vec<Vec<usize>>,
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
    /// Greedily packs `(size, replicas)` parameters (in visit order) into
    /// buckets of one replica list and at most `cap_bytes` of f32 data. A
    /// parameter larger than the cap gets a bucket of its own — parameters
    /// are never split across buckets.
    fn from_params(params: &[(usize, Vec<Vec<usize>>)], cap_bytes: usize) -> BucketPlan {
        let cap_elems = (cap_bytes / std::mem::size_of::<f32>()).max(1);
        let mut buckets = Vec::new();
        let mut start = 0;
        let mut len = 0;
        for (i, (n, replicas)) in params.iter().enumerate() {
            if len > 0 && (len + n > cap_elems || *replicas != params[i - 1].1) {
                buckets.push(Bucket {
                    params: start..i,
                    len,
                    replicas: params[i - 1].1.clone(),
                });
                start = i;
                len = 0;
            }
            len += n;
        }
        // the last run, even if only empty parameters are left for it:
        // every parameter lies in exactly one bucket
        buckets.push(Bucket {
            params: start..params.len(),
            len,
            replicas: params.last().map(|p| p.1.clone()).unwrap_or_default(),
        });
        BucketPlan {
            buckets,
            param_sizes: params.iter().map(|p| p.0).collect(),
        }
    }

    /// Builds the plan for a model's parameters.
    pub fn for_model(model: &mut dyn Layer, cap_bytes: usize) -> BucketPlan {
        let mut params = Vec::new();
        model.visit_params(&mut |p| params.push((p.numel(), p.replicas.clone())));
        BucketPlan::from_params(&params, cap_bytes)
    }
}

/// What each rank keeps of a reduced bucket — the one thing bucketed data
/// parallelism and the ZeRO stages differ in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keep {
    /// All-reduce; every rank keeps the whole mean bucket (bucketed DP,
    /// "ZeRO stage 0").
    Whole,
    /// All-reduce, then narrow to this rank's p-th of the bucket (ZeRO-1).
    ShardOfAllReduce,
    /// Reduce-scatter: this rank only ever receives its p-th (ZeRO-2/3).
    ShardOfReduceScatter,
}

/// The one flat layout of a model: the buckets of a [`BucketPlan`] end to
/// end, each its parameters' elements in `visit_params` order followed by
/// the zeros that pad it to a multiple of the shard count — the only
/// mapping between a model and flat buffers (DESIGN.md §8.3). Nothing is
/// copied into a bucket: a bucket is its parameters' tensors as
/// [`Pieces`], O(1) handles a collective reads in place. The way back is
/// one scatter (bucket tensors → model), which hands parameter values out
/// as O(1) views of the bucket tensors instead of copying them. Every
/// parameter lies in exactly one bucket. Padding reads as zeros and
/// scatters nowhere.
pub(crate) struct FlatLayout {
    /// Per parameter: its bucket and its elements' span within it.
    homes: Vec<(usize, Range<usize>)>,
    /// Per bucket: its parameters, as visit-order indices.
    params: Vec<Range<usize>>,
    /// Per bucket: its padded `(offset, len)` in the flat vector.
    ranges: Vec<(usize, usize)>,
}

impl FlatLayout {
    /// Lays `plan`'s buckets end to end, each padded to a multiple of `pad`
    /// elements.
    fn new(plan: &BucketPlan, pad: usize) -> Self {
        let mut layout = FlatLayout {
            homes: Vec::new(),
            params: Vec::new(),
            ranges: Vec::new(),
        };
        let mut offset = 0;
        for (b, bucket) in plan.buckets.iter().enumerate() {
            let mut o = 0;
            for n in &plan.param_sizes[bucket.params.clone()] {
                layout.homes.push((b, o..o + n));
                o += n;
            }
            let len = bucket.len.div_ceil(pad) * pad;
            layout.params.push(bucket.params.clone());
            layout.ranges.push((offset, len));
            offset += len;
        }
        layout
    }

    /// `model`'s parameters as a single bucket.
    pub(crate) fn whole(model: &mut dyn Layer) -> Self {
        let mut params = Vec::new();
        model.visit_params(&mut |p| params.push((p.numel(), Vec::new())));
        FlatLayout::new(&BucketPlan::from_params(&params, usize::MAX), 1)
    }

    /// Bucket `b` as its parameters' tensors `parts`, in order, padded.
    fn bucket(&self, b: usize, parts: Vec<Tensor>) -> Pieces {
        let homes = &self.homes[self.params[b].clone()];
        assert_eq!(parts.len(), homes.len(), "model parameter set changed");
        for (part, (_, span)) in parts.iter().zip(homes) {
            assert_eq!(part.numel(), span.len(), "model parameter set changed");
        }
        Pieces::padded(parts, self.ranges[b].1)
    }

    /// Every bucket as `pick` ([`Param::value`] or [`Param::grad`]) of its
    /// parameters: O(1) handles, padded with zeros, copying nothing.
    pub(crate) fn pieces(&self, model: &mut dyn Layer, pick: fn(&Param) -> &Tensor) -> Vec<Pieces> {
        let mut handles = Vec::with_capacity(self.homes.len());
        model.visit_params(&mut |p| handles.push(pick(p).clone()));
        assert_eq!(
            handles.len(),
            self.homes.len(),
            "model parameter set changed"
        );
        let mut handles = handles.into_iter();
        let bucket = |(b, params): (usize, &Range<usize>)| {
            self.bucket(b, handles.by_ref().take(params.len()).collect())
        };
        self.params.iter().enumerate().map(bucket).collect()
    }

    /// Panics unless `buckets` holds one tensor of the right length per
    /// bucket.
    fn check_lens(&self, buckets: &[Tensor]) {
        let lens = buckets.iter().map(Tensor::numel);
        assert!(
            lens.eq(self.ranges.iter().map(|r| r.1)),
            "flat vector length mismatch"
        );
    }

    /// Calls `f` with every parameter, its bucket's tensor and its
    /// elements' span there.
    fn for_each_home(
        &self,
        model: &mut dyn Layer,
        buckets: &[Tensor],
        f: &mut dyn FnMut(&mut Param, &Tensor, Range<usize>),
    ) {
        self.check_lens(buckets);
        let mut pi = 0;
        model.visit_params(&mut |p| {
            let (b, span) = &self.homes[pi];
            assert_eq!(p.numel(), span.len(), "model parameter set changed");
            f(p, &buckets[*b], span.clone());
            pi += 1;
        });
        assert_eq!(pi, self.homes.len(), "model parameter set changed");
    }

    /// Writes `scale` times one tensor per bucket back into `pick`
    /// ([`Param::value_mut`] or [`Param::grad_mut`]) of every parameter, in
    /// place: one pass that copies and scales (`x * scale`, the bits of
    /// scaling the bucket tensors first and copying after).
    pub(crate) fn scatter(
        &self,
        model: &mut dyn Layer,
        pick: fn(&mut Param) -> &mut Tensor,
        buckets: &[Tensor],
        scale: f32,
    ) {
        self.for_each_home(model, buckets, &mut |p, bucket, span| {
            let dst = pick(p).data_mut();
            for (d, &x) in dst.iter_mut().zip(&bucket.data()[span]) {
                *d = x * scale;
            }
        });
    }

    /// Lands one tensor per bucket in the model's parameter values without
    /// moving the bytes again: every parameter becomes an O(1) view of its
    /// bucket's tensor, so every rank holding a handle to a gathered bucket
    /// reads the one buffer.
    pub(crate) fn scatter_values(&self, model: &mut dyn Layer, buckets: &[Tensor]) {
        self.for_each_home(model, buckets, &mut |p, bucket, span| {
            let shape = p.value().shape().clone();
            p.set_value(bucket.view(span.start, shape));
        });
    }
}

/// The gradient reducer: the buckets of a `FlatLayout` over the flat
/// (`visit_params`-order) gradient, one bucket reduction and two drivers
/// over it, blocking
/// ([`GradReducer::reduce`]) and overlapped with backward
/// ([`GradReducer::backward_overlapped`]). Each bucket's collective reads
/// the parameters' gradients in place, from O(1) handles the combine drops
/// before any rank resumes, so no rank copies its gradients first and none
/// is left shared. The sharded kinds return this rank's mean-scaled shard
/// of every bucket; [`Keep::Whole`] (bucketed data parallelism, replica
/// sums) leaves the reduced gradients in the model and returns nothing. A
/// rank without data-parallel peers passes `None`.
pub struct GradReducer {
    /// Buckets of whole parameters covering the flat gradient, each padded
    /// to a multiple of p for the sharded kinds (the padding reduces as
    /// zeros).
    pub(crate) layout: FlatLayout,
    keep: Keep,
    /// Per bucket: the member lists of the groups it is summed over first,
    /// outermost first (empty: not replicated).
    replicas: Vec<Vec<Vec<usize>>>,
}

impl GradReducer {
    /// The reducer over `model`: buckets of whole parameters, at most
    /// `cap_bytes` each (see [`DEFAULT_BUCKET_BYTES`]) and split wherever
    /// [`Param::replicas`] differ ([`BucketPlan::for_model`]), each padded
    /// to a multiple of `p` — the data-parallel size a sharded `keep` cuts
    /// it into, 1 for [`Keep::Whole`] — and each marked one summed over the
    /// groups its parameters name first.
    pub(crate) fn new(model: &mut dyn Layer, cap_bytes: usize, keep: Keep, p: usize) -> Self {
        let plan = BucketPlan::for_model(model, cap_bytes);
        GradReducer {
            layout: FlatLayout::new(&plan, p),
            keep,
            replicas: plan.buckets.into_iter().map(|b| b.replicas).collect(),
        }
    }

    /// Bucketed data parallelism over `model`: the [`Keep::Whole`] reducer.
    /// The model must have been built identically on every rank (same
    /// seed), as real DDP assumes rank-0 broadcast weights.
    pub fn data_parallel(model: &mut dyn Layer, cap_bytes: usize) -> Self {
        GradReducer::new(model, cap_bytes, Keep::Whole, 1)
    }

    /// Whether some bucket holds replicated parameters: a reducer a rank
    /// without data-parallel peers still needs.
    pub fn sums_replicas(&self) -> bool {
        self.replicas.iter().any(|lists| !lists.is_empty())
    }

    /// The padded `(offset, len)` buckets, in visit (forward) order.
    pub fn buckets(&self) -> &[(usize, usize)] {
        &self.layout.ranges
    }

    /// Sends bucket `b` (all-reduced over each of its replica groups
    /// first) through the kind's collective at f32 width on `stream`: an
    /// all-reduce, or a reduce-scatter for [`Keep::ShardOfReduceScatter`].
    /// A shard is this rank's alone and is scaled by 1/p here, in place; a
    /// whole bucket is the one all-reduce result every rank holds a handle
    /// to and stays the sum (the 1/p goes into [`GradReducer::finish`]'s
    /// write-back instead of a private copy).
    fn reduce_bucket(
        &self,
        ctx: &DeviceCtx,
        dp: Option<&Group>,
        b: usize,
        mut bucket: Pieces,
        stream: Stream,
    ) -> Tensor {
        let all_reduce = Collective::from(Op::AllReduce { max: false }).on(stream);
        for members in &self.replicas[b] {
            bucket = ctx
                .group(members)
                .collective(ctx, all_reduce, bucket)
                .into();
        }
        let Some(group) = dp else {
            return bucket.into_tensor();
        };
        let op = match self.keep {
            Keep::Whole | Keep::ShardOfAllReduce => Op::AllReduce { max: false },
            Keep::ShardOfReduceScatter => Op::ReduceScatter { dim: 0 },
        };
        let p = group.size();
        let mut kept = group.collective(ctx, Collective::from(op).on(stream), bucket);
        if self.keep == Keep::ShardOfAllReduce {
            let shard = kept.numel() / p;
            kept = kept.narrow(0, group.rank() * shard, shard);
        }
        if self.keep != Keep::Whole {
            kept.scale(1.0 / p as f32);
        }
        kept
    }

    /// What a reduction hands back: the shards of a sharded kind, or — under
    /// [`Keep::Whole`] — nothing, with the mean of the summed buckets left in
    /// the model's gradients (the 1/p rides the copy every rank makes
    /// anyway).
    fn finish(&self, dp: Option<&Group>, model: &mut dyn Layer, kept: Vec<Tensor>) -> Vec<Tensor> {
        if self.keep != Keep::Whole {
            return kept;
        }
        let mean = 1.0 / dp.map_or(1, Group::size) as f32;
        self.layout.scatter(model, Param::grad_mut, &kept, mean);
        Vec::new()
    }

    /// Reduces the model's accumulated gradients, blocking on the main
    /// stream: one fused collective per bucket, front to back. Returns the
    /// shards, or under [`Keep::Whole`] nothing (see [`GradReducer`]).
    pub fn reduce(
        &mut self,
        ctx: &DeviceCtx,
        dp: Option<&Group>,
        model: &mut dyn Layer,
    ) -> Vec<Tensor> {
        let buckets = self.layout.pieces(model, Param::grad);
        let reduce = |(b, bucket)| self.reduce_bucket(ctx, dp, b, bucket, Stream::Main);
        let reduced = buckets.into_iter().enumerate().map(reduce).collect();
        self.finish(dp, model, reduced)
    }

    /// Runs the staged backward, launching each bucket's collective on the
    /// comm stream as soon as the produced gradient suffix reaches its
    /// first parameter, then joins compute and comm clocks. Returns the input
    /// gradient and what [`GradReducer::reduce`] returns, bit-identical to a
    /// plain backward followed by it; each bucket's collective rides under
    /// the remaining backward compute.
    pub fn backward_overlapped(
        &mut self,
        ctx: &DeviceCtx,
        dp: Option<&Group>,
        model: &mut dyn Layer,
        dy: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        // the produced gradients' handles, until their bucket launches
        let mut grads: Vec<Option<Tensor>> = vec![None; self.layout.homes.len()];
        let mut produced = grads.len(); // start of the produced param suffix
        let mut next = self.layout.ranges.len(); // buckets fire back to front
        let mut reduced: Vec<Option<Tensor>> = vec![None; next];
        let dx = model.backward_staged(dy, &mut |stage| {
            assert!(stage.len() <= produced, "stage overruns parameter list");
            produced -= stage.len();
            for (slot, g) in grads[produced..].iter_mut().zip(stage) {
                *slot = Some(g.clone());
            }
            while next > 0 && self.layout.params[next - 1].start >= produced {
                next -= 1;
                let parts = grads[self.layout.params[next].clone()]
                    .iter_mut()
                    .map(|g| g.take().expect("a launched bucket's gradient"))
                    .collect();
                let bucket = self.layout.bucket(next, parts);
                reduced[next] = Some(self.reduce_bucket(ctx, dp, next, bucket, Stream::Comm));
            }
        });
        assert_eq!(produced, 0, "backward_staged must cover every parameter");
        assert_eq!(next, 0, "every bucket must have launched");
        // the reduced gradients must be final before anyone reads them
        ctx.comm_sync();
        let reduced = reduced.into_iter().map(|r| r.unwrap()).collect();
        (dx, self.finish(dp, model, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_parallel::flatten_grads;
    use colossalai_autograd::{Gelu, Linear, Sequential};
    use colossalai_comm::World;
    use colossalai_tensor::init;
    use colossalai_topology::systems::system_i;

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
        let plan = BucketPlan::from_params(&sizes.map(|n| (n, Vec::new())), 400);
        // 40+50 fits the 100-element cap; +30 would exceed → new bucket;
        // 30+200 exceeds → 200 gets its own; 10+10 closes it out
        let ranges: Vec<_> = plan.buckets.iter().map(|b| b.params.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..4, 4..6]);
        for b in &plan.buckets {
            assert_eq!(
                b.len,
                sizes[b.params.clone()].iter().sum::<usize>(),
                "bucket length equals its params' elements"
            );
        }
        let covered: usize = plan.buckets.iter().map(|b| b.len).sum();
        assert_eq!(covered, sizes.iter().sum::<usize>());
    }

    #[test]
    fn a_bucket_never_mixes_replicated_and_unreplicated_parameters() {
        let marks = [false, true, true, false, false, true];
        let lists = marks.map(|m| if m { vec![vec![0, 1]] } else { Vec::new() });
        let params: Vec<_> = [4, 4, 4, 0, 4, 4].into_iter().zip(lists).collect();
        let plan = BucketPlan::from_params(&params, 1 << 20);
        let got: Vec<_> = plan
            .buckets
            .iter()
            .map(|b| (b.params.clone(), !b.replicas.is_empty()))
            .collect();
        assert_eq!(
            got,
            vec![(0..1, false), (1..3, true), (3..5, false), (5..6, true)]
        );
    }

    /// Two 3-element parameters, `a` marked to sum over the pair of ranks
    /// that differ in bit 0 and `b` over the pair that differ in bit 1, with
    /// rank r's gradient 2^r, reduced by the reducer that keeps `keep` over
    /// `dp` (the data-parallel group's members, if any): per rank, the
    /// reduction's output (each parameter's gradient under [`Keep::Whole`]),
    /// and what the world metered.
    fn reduce_marked_pair(
        ranks: usize,
        keep: Keep,
        dp: fn(usize) -> Option<Vec<usize>>,
    ) -> (Vec<Vec<Vec<f32>>>, colossalai_comm::CommStats) {
        let world = World::new(system_i());
        let out = world.run_on(ranks, |ctx| {
            let r = ctx.rank();
            let groups = [vec![r & !1, r | 1], vec![r & !2, r | 2]];
            let params = groups.into_iter().zip(["a", "b"]).map(|(members, name)| {
                let mut p = Param::new(name, Tensor::zeros([3]));
                p.accumulate_grad(&Tensor::full([3], (1 << r) as f32));
                p.replicas = vec![members];
                p
            });
            let mut model = Bag(params.collect());
            let dp = dp(r).map(|members| ctx.group(&members));
            let p = dp.as_ref().map_or(1, Group::size);
            let mut reducer = GradReducer::new(&mut model, DEFAULT_BUCKET_BYTES, keep, p);
            assert!(reducer.sums_replicas());
            let padded = 3usize.div_ceil(p) * p;
            assert_eq!(reducer.buckets(), &[(0, padded), (padded, padded)]);
            let kept = reducer.reduce(ctx, dp.as_ref(), &mut model);
            let out = match keep {
                Keep::Whole => model.0.iter().map(|p| p.grad().data().to_vec()).collect(),
                _ => kept.iter().map(|shard| shard.data().to_vec()).collect(),
            };
            out
        });
        (out, world.stats())
    }

    #[test]
    fn each_bucket_is_summed_over_the_groups_its_parameters_name() {
        use colossalai_comm::OpKind::{AllReduce, ReduceScatter};
        // on 4 ranks, `a` sums over {0, 1} / {2, 3} and `b` over {0, 2} /
        // {1, 3}; rank r contributes 2^r, so every sum names the ranks it added
        let (grads, stats) = reduce_marked_pair(4, Keep::Whole, |_| None);
        let hand = [[3.0, 5.0], [3.0, 10.0], [12.0, 5.0], [12.0, 10.0]];
        for (r, (got, want)) in grads.iter().zip(hand).enumerate() {
            assert_eq!(got, &want.map(|g| vec![g; 3]), "rank {r}");
        }
        // one all-reduce per marked bucket per replica group: 2 x 2
        assert_eq!((stats.ops_of(AllReduce), stats.ops), (4, 4));

        // on 8 ranks the pairs that differ in bit 2 are the data-parallel
        // groups: a bucket is summed over its replica group, then over the
        // data-parallel pair, so `a` adds the 4 ranks that share bit 1 and
        // `b` the 4 that share bit 0. Each 3-element bucket pads to 4, of
        // which data-parallel rank d keeps elements 2d..2d + 2, over p = 2
        let dp = |r: usize| Some(vec![r & !4, r | 4]);
        // per reduction: one all-reduce per marked bucket per replica group
        // (2 buckets x 4 pairs), plus one data-parallel collective per
        // bucket per data-parallel pair (2 x 4)
        for (keep, all_reduces, reduce_scatters) in [
            (Keep::ShardOfAllReduce, 8 + 8, 0),
            (Keep::ShardOfReduceScatter, 8, 8),
        ] {
            let (shards, stats) = reduce_marked_pair(8, keep, dp);
            for (r, got) in shards.iter().enumerate() {
                let hand = [[51.0, 204.0][r >> 1 & 1], [85.0, 170.0][r & 1]];
                let want = hand.map(|sum: f32| match r >> 2 {
                    0 => vec![sum / 2.0, sum / 2.0],
                    _ => vec![sum / 2.0, 0.0],
                });
                assert_eq!(got, &want, "{keep:?}, rank {r}");
            }
            let ops = (stats.ops_of(AllReduce), stats.ops_of(ReduceScatter));
            assert_eq!(ops, (all_reduces, reduce_scatters), "{keep:?}");
            assert_eq!(stats.ops, 16, "{keep:?}");
        }
    }

    #[test]
    fn oversized_param_gets_own_bucket() {
        let sizes = [1000, 4, 4];
        let plan = BucketPlan::from_params(&sizes.map(|n| (n, Vec::new())), 64);
        assert_eq!(plan.buckets[0].params, 0..1);
        assert_eq!(plan.buckets[0].len, 1000);
    }

    #[test]
    fn padded_buckets_are_p_aligned_and_cover_padded_total() {
        let p = 4;
        let sizes = [7, 3, 30, 1, 1, 50, 22]; // 114 elements
        let plan = BucketPlan::from_params(&sizes.map(|n| (n, Vec::new())), 40 * 4); // 40-elem cap
        let ranges = FlatLayout::new(&plan, p).ranges;
        // [7, 3, 30] | [1, 1] | [50] | [22], each rounded up to a multiple of p
        assert_eq!(ranges, [(0, 40), (40, 4), (44, 52), (96, 24)]);
        let mut o = 0;
        for &(off, len) in &ranges {
            assert_eq!(off, o);
            assert_eq!(len % p, 0, "every bucket shards evenly over p ranks");
            o += len;
        }
        let padded: usize = plan.buckets.iter().map(|b| b.len.div_ceil(p) * p).sum();
        assert_eq!(o, padded);
    }

    /// A model that is nothing but its parameters.
    struct Bag(Vec<Param>);

    impl Layer for Bag {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.iter_mut().for_each(f);
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scatter_inverts_the_pieces_bit_for_bit_over_ragged_layouts() {
        use rand::Rng;
        // shapes a plan must survive; each must occur somewhere in the sweep
        let (mut empty_param, mut wide_range, mut padded_tail) = (false, false, false);
        for seed in 0..40u64 {
            let mut rng = init::rng(4100 + seed);
            let sizes: Vec<usize> = (0..rng.gen_range(1usize..9))
                .map(|_| [0, 1, 3, 7, 20, 33][rng.gen_range(0usize..6)])
                .collect();
            let total: usize = sizes.iter().sum();
            let p = rng.gen_range(1usize..5);
            let cap_bytes = 4 * rng.gen_range(2usize..24);
            // a replica mark on every fourth parameter splits buckets too
            let marked = sizes.iter().enumerate();
            let mark = |i: usize| vec![vec![0]; usize::from((i + seed as usize).is_multiple_of(4))];
            let marked: Vec<_> = marked.map(|(i, &n)| (n, mark(i))).collect();
            let plan = BucketPlan::from_params(&marked, cap_bytes);
            // the buckets whole, and padded to shard over p ranks
            for pad in [1, p] {
                let layout = FlatLayout::new(&plan, pad);
                let ranges = layout.ranges.clone();
                let covered = ranges.iter().map(|r| r.1).sum::<usize>();
                empty_param |= sizes.contains(&0);
                padded_tail |= covered > total;
                for b in &plan.buckets {
                    let inside = sizes[b.params.clone()].iter().filter(|&&n| n > 0);
                    wide_range |= inside.count() >= 3;
                }

                type Picks = (fn(&Param) -> &Tensor, fn(&mut Param) -> &mut Tensor);
                let picks: [Picks; 2] = [
                    (Param::value, Param::value_mut),
                    (Param::grad, Param::grad_mut),
                ];
                for (pick, pick_mut) in picks {
                    let params = sizes.iter().map(|&n| {
                        let mut param = Param::new("p", Tensor::zeros([n]));
                        *pick_mut(&mut param) = init::uniform([n], -1.0, 1.0, &mut rng);
                        param
                    });
                    let mut model = Bag(params.collect());
                    let want: Vec<Vec<u32>> = model.0.iter().map(|q| bits(pick(q))).collect();

                    // the buckets read as the flat concatenation, each
                    // zero-padded
                    let pieces = layout.pieces(&mut model, pick);
                    let bufs: Vec<Tensor> = pieces.into_iter().map(Pieces::into_tensor).collect();
                    let mut flat: Vec<u32> = Vec::new();
                    for (b, &(o, len)) in plan.buckets.iter().zip(&ranges) {
                        flat.extend(want[b.params.clone()].concat());
                        flat.resize(o + len, 0f32.to_bits());
                    }
                    let got: Vec<u32> = bufs.iter().flat_map(bits).collect();
                    assert_eq!(
                        got, flat,
                        "seed {seed}: pieces of {sizes:?} over {ranges:?}"
                    );

                    // and scatter puts every element back where it came from
                    for q in &mut model.0 {
                        pick_mut(q).data_mut().fill(f32::NAN);
                    }
                    layout.scatter(&mut model, pick_mut, &bufs, 1.0);
                    let back: Vec<Vec<u32>> = model.0.iter().map(|q| bits(pick(q))).collect();
                    assert_eq!(
                        back, want,
                        "seed {seed}: scatter of {sizes:?} over {ranges:?}"
                    );
                }

                // values land as views: the same elements, and every
                // parameter reads its own bucket's storage
                let params = sizes.iter().map(|&n| Param::new("p", Tensor::zeros([n])));
                let mut model = Bag(params.collect());
                let flat = |&(_, len): &(usize, usize)| init::uniform([len], -1.0, 1.0, &mut rng);
                let bufs: Vec<Tensor> = ranges.iter().map(flat).collect();
                layout.scatter_values(&mut model, &bufs);
                for (b, home) in plan.buckets.iter().zip(&bufs) {
                    let mut start = 0;
                    for pi in b.params.clone() {
                        let (q, n) = (&model.0[pi], sizes[pi]);
                        assert_eq!(q.value().data(), &home.data()[start..start + n]);
                        let shared = bufs.iter().filter(|b| b.shares_storage(q.value()));
                        assert!(
                            shared.count() == 1 && home.shares_storage(q.value()),
                            "seed {seed}: parameter {pi} of {sizes:?} over {ranges:?}"
                        );
                        start += n;
                    }
                }
            }
        }
        assert!(empty_param, "no zero-length parameter was drawn");
        assert!(wide_range, "no range spanned three parameters");
        assert!(padded_tail, "no plan had a p-alignment padding tail");
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
            let mut reducer = GradReducer::data_parallel(&mut model, 64);
            assert!(reducer.buckets().len() > 1);
            assert!(reducer.reduce(ctx, Some(&g), &mut model).is_empty());
            let fused = flatten_grads(&mut model);
            assert_eq!(fused.data(), &baseline[..], "fused == per-param bitwise");
            fused
        });
        assert_eq!(grads[0].data(), grads[1].data());
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
            let mut reducer = GradReducer::data_parallel(&mut model, 64);
            let dy = Tensor::ones(y.shape().clone());
            let (_, reduced) = reducer.backward_overlapped(ctx, Some(&g), &mut model, &dy);
            assert!(reduced.is_empty(), "whole buckets land in the model");
            (ctx.clock(), ctx.comm_clock())
        });
        for (main, comm) in clocks {
            assert!(main > 0.0, "comm time was charged");
            assert_eq!(main, comm, "comm_sync joins both clocks");
        }
    }
}
