//! The gradient reducer: bucketed, backward-overlapped reduction of the flat
//! gradient, shared by data parallelism and every ZeRO stage.
//!
//! Per-parameter all-reduce pays one latency (alpha) term per tensor; with
//! hundreds of small parameters the latency terms dominate. Instead the
//! gradient is packed into size-capped *buckets* (default 25 MB, like
//! PyTorch DDP and the Colossal-AI gradient handler) with one fused
//! collective each. Because [`Layer::backward_staged`] fires stages in
//! reverse-forward order, the produced gradients always form a growing
//! suffix of the visit-order parameter list — so a bucket can launch on the
//! comm stream as soon as the suffix reaches its first element, overlapping
//! communication with the rest of the backward pass. Which collective is
//! fused — what each rank [`Keep`]s — is all that bucketed DP ("ZeRO stage
//! 0") and ZeRO 1/2/3 differ in, so [`GradReducer`] takes it as a parameter.
//!
//! Bitwise safety: a fused bucket reduction performs exactly the same
//! per-element rank-order additions as per-parameter all-reduces, and the
//! 1/p scale is elementwise — so the reduced gradients are bit-identical to
//! the unbucketed baseline for *any* bucket plan.
//!
//! Opt-in **lossy channels** ([`Compression`], via `comm.compress`) trade
//! gradient fidelity for wire bytes: top-k sparsification, int8 or fp16
//! quantization, each with a per-bucket error-feedback residual so dropped
//! mass is carried into the next step instead of lost (see
//! `colossalai_comm::compress`).

use colossalai_autograd::{Layer, Param};
use colossalai_comm::compress::{self, Compression};
use colossalai_comm::{Collective, DeviceCtx, Group, Op, Stream};
use colossalai_tensor::{pool, Tensor};
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

/// The one flat layout of a model: its parameters' elements in
/// `visit_params` order as one vector, covered by contiguous `(offset, len)`
/// ranges — the only mapping between a model and flat buffers (DESIGN.md
/// §8.3), with one gather (model → range buffers) and one scatter (range
/// tensors → model), which hands parameter values out as O(1) views of the
/// range tensors instead of copying them.
///
/// Ranges and parameters are laid independently over the same axis: under a
/// p-aligned plan ([`BucketPlan::element_ranges`]) a range spans several
/// parameters, a parameter may straddle several ranges, and the last range
/// runs past the final parameter into the padding that rounds the vector up
/// to a multiple of p. Padding gathers as zeros and scatters nowhere.
pub(crate) struct FlatLayout {
    /// Flat element offset of each parameter, then the total.
    offsets: Vec<usize>,
    ranges: Vec<(usize, usize)>,
}

impl FlatLayout {
    /// Lays contiguous `ranges` over parameters of `param_sizes` elements
    /// (visit order). The ranges must cover every parameter element.
    fn new(param_sizes: &[usize], ranges: Vec<(usize, usize)>) -> Self {
        let mut offsets = vec![0];
        for n in param_sizes {
            offsets.push(offsets[offsets.len() - 1] + n);
        }
        let mut end = 0;
        for &(o, len) in &ranges {
            assert_eq!(o, end, "ranges must be contiguous from 0");
            end += len;
        }
        assert!(
            end >= offsets[param_sizes.len()],
            "ranges must cover every parameter"
        );
        FlatLayout { offsets, ranges }
    }

    /// `model`'s parameters as a single range.
    pub(crate) fn whole(model: &mut dyn Layer) -> Self {
        let mut sizes = Vec::new();
        model.visit_params(&mut |p| sizes.push(p.numel()));
        let total = sizes.iter().sum();
        FlatLayout::new(&sizes, vec![(0, total)])
    }

    /// One zeroed pooled buffer per range, for [`FlatLayout::gather`] to
    /// fill in any order: `backward_overlapped`'s stages arrive back to
    /// front. (A front-to-back fill needs no zeroing: see
    /// [`FlatLayout::gather_all`].)
    fn buffers(&self) -> Vec<Vec<f32>> {
        self.ranges.iter().map(|r| pool::take_zeroed(r.1)).collect()
    }

    /// The ranges parameter `pi`, of `numel` elements, overlaps, as `(range
    /// index, span within the range, span within the parameter)`: exactly
    /// one under a parameter-aligned plan, none for an empty parameter.
    fn overlaps(
        &self,
        pi: usize,
        numel: usize,
    ) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> + '_ {
        let (start, end) = (self.offsets[pi], self.offsets[pi + 1]);
        assert_eq!(numel, end - start, "model parameter set changed");
        let first = self.ranges.partition_point(|&(o, len)| o + len <= start);
        let tail = self.ranges.iter().enumerate().skip(first);
        tail.map_while(move |(ri, &(o, len))| {
            let (lo, hi) = (start.max(o), end.min(o + len));
            (lo < hi).then(|| (ri, lo - o..hi - o, lo - start..hi - start))
        })
    }

    /// Copies parameter `pi`'s elements (`data`: its value or its gradient)
    /// into the zeroed buffer of every range it overlaps.
    fn gather(&self, bufs: &mut [Vec<f32>], pi: usize, data: &[f32]) {
        for (ri, in_range, in_param) in self.overlaps(pi, data.len()) {
            bufs[ri][in_range].copy_from_slice(&data[in_param]);
        }
    }

    /// Gathers `pick` ([`Param::value`] or [`Param::grad`]) of every
    /// parameter into fresh range buffers, padding zero. Parameters arrive
    /// in flat order, so every buffer is extended front to back and only
    /// the padding is ever zeroed.
    pub(crate) fn gather_all(
        &self,
        model: &mut dyn Layer,
        pick: fn(&Param) -> &Tensor,
    ) -> Vec<Vec<f32>> {
        let take = |r: &(usize, usize)| pool::take_buffer(r.1);
        let mut bufs: Vec<Vec<f32>> = self.ranges.iter().map(take).collect();
        let mut pi = 0;
        model.visit_params(&mut |p| {
            let data = pick(p).data();
            for (ri, in_range, in_param) in self.overlaps(pi, data.len()) {
                assert_eq!(bufs[ri].len(), in_range.start, "ranges fill in order");
                bufs[ri].extend_from_slice(&data[in_param]);
            }
            pi += 1;
        });
        assert_eq!(pi + 1, self.offsets.len(), "model parameter set changed");
        for (buf, r) in bufs.iter_mut().zip(&self.ranges) {
            buf.resize(r.1, 0.0);
        }
        bufs
    }

    /// Panics unless `ranges` holds one tensor of the right length per range.
    fn check_lens(&self, ranges: &[Tensor]) {
        let lens = ranges.iter().map(Tensor::numel);
        assert!(
            lens.eq(self.ranges.iter().map(|r| r.1)),
            "flat vector length mismatch"
        );
    }

    /// Writes `scale` times one tensor per range back into `pick`
    /// ([`Param::value_mut`] or [`Param::grad_mut`]) of every parameter, in
    /// place: one pass that copies and scales (`x * scale`, the bits of
    /// scaling the range tensors first and copying after).
    pub(crate) fn scatter(
        &self,
        model: &mut dyn Layer,
        pick: fn(&mut Param) -> &mut Tensor,
        ranges: &[Tensor],
        scale: f32,
    ) {
        self.check_lens(ranges);
        let mut pi = 0;
        model.visit_params(&mut |p| {
            let dst = pick(p).data_mut();
            for (ri, in_range, in_param) in self.overlaps(pi, dst.len()) {
                let src = &ranges[ri].data()[in_range];
                for (d, &x) in dst[in_param].iter_mut().zip(src) {
                    *d = x * scale;
                }
            }
            pi += 1;
        });
        assert_eq!(pi + 1, self.offsets.len(), "model parameter set changed");
    }

    /// Lands one tensor per range in the model's parameter values without
    /// moving the bytes again: a parameter inside one range becomes an O(1)
    /// view of that range's tensor, so every rank holding a handle to a
    /// gathered bucket reads the one buffer. A parameter straddling ranges
    /// keeps storage of its own and is copied into.
    pub(crate) fn scatter_values(&self, model: &mut dyn Layer, ranges: &[Tensor]) {
        self.check_lens(ranges);
        let mut pi = 0;
        model.visit_params(&mut |p| {
            let n = p.numel();
            let mut spans = self.overlaps(pi, n).peekable();
            pi += 1;
            match spans.peek() {
                Some((ri, in_range, in_param)) if in_param.len() == n => {
                    let shape = p.value().shape().clone();
                    p.set_value(ranges[*ri].view(in_range.start, shape));
                }
                _ => {
                    let dst = p.value_mut().data_mut();
                    for (ri, in_range, in_param) in spans {
                        dst[in_param].copy_from_slice(&ranges[ri].data()[in_range]);
                    }
                }
            }
        });
        assert_eq!(pi + 1, self.offsets.len(), "model parameter set changed");
    }
}

/// The gradient reducer: the buckets of a `FlatLayout` over the flat
/// (`visit_params`-order) gradient, one error-feedback residual per bucket,
/// one compress-and-reduce and two drivers over it, blocking
/// ([`GradReducer::reduce`]) and overlapped with backward
/// ([`GradReducer::backward_overlapped`]). The sharded kinds return this
/// rank's mean-scaled shard of every bucket; [`Keep::Whole`] (bucketed data
/// parallelism) leaves the mean gradients in the model and returns nothing.
pub struct GradReducer {
    /// Contiguous buckets covering the flat gradient, plus — for sharded
    /// kinds — the padding that rounds it up to a multiple of p (bucket
    /// buffers start zeroed, so the padding reduces as zeros).
    pub(crate) layout: FlatLayout,
    keep: Keep,
    compress: Compression,
    /// Per-bucket error-feedback residuals: what the lossy channel has not
    /// sent yet. Empty until the first lossy reduction touches a bucket.
    residuals: Vec<Vec<f32>>,
}

impl GradReducer {
    /// A reducer over parameters of `param_sizes` elements (visit order)
    /// and the `buckets` a planner laid over them — whole parameters
    /// ([`BucketPlan::from_param_sizes`]) for [`Keep::Whole`]; p-aligned
    /// [`BucketPlan::element_ranges`] for the sharded kinds, so every bucket
    /// shards evenly. Gradients start exact.
    pub fn new(param_sizes: &[usize], buckets: Vec<(usize, usize)>, keep: Keep) -> Self {
        let residuals = vec![Vec::new(); buckets.len()];
        GradReducer {
            layout: FlatLayout::new(param_sizes, buckets),
            keep,
            compress: Compression::None,
            residuals,
        }
    }

    /// Bucketed data parallelism over `model`: a [`Keep::Whole`] reducer
    /// whose buckets hold whole parameters, at most `cap_bytes` each (see
    /// [`DEFAULT_BUCKET_BYTES`]). The model must have been built identically
    /// on every rank (same seed), as real DDP assumes rank-0 broadcast
    /// weights.
    pub fn data_parallel(model: &mut dyn Layer, cap_bytes: usize) -> Self {
        let plan = BucketPlan::for_model(model, cap_bytes);
        let buckets = plan.buckets.iter().map(|b| (b.offset, b.len)).collect();
        GradReducer::new(&plan.param_sizes, buckets, Keep::Whole)
    }

    /// Selects the lossy gradient channel. Residual state resets: switching
    /// channels mid-training would otherwise replay another channel's
    /// backlog. Panics on top-k for a sharded kind: there is no sparse
    /// reduce-scatter wire format, and running it as the exact channel
    /// would compress nothing without a word.
    pub fn set_compression(&mut self, comp: Compression) {
        assert!(
            self.keep == Keep::Whole || !matches!(comp, Compression::TopK(_)),
            "comm.compress {:?} does not combine with zero ({:?}): top-k is a \
             data-parallel-only channel (use int8 or fp16)",
            comp.name(),
            self.keep
        );
        self.compress = comp;
        self.residuals.iter_mut().for_each(Vec::clear);
    }

    /// Per-bucket error-feedback residuals (empty until a lossy reduction).
    pub fn residuals(&self) -> &[Vec<f32>] {
        &self.residuals
    }

    /// The `(offset, len)` buckets, in visit (forward) order.
    pub fn buckets(&self) -> &[(usize, usize)] {
        &self.layout.ranges
    }

    /// Sends bucket `bi` through the compression channel (updating its
    /// error-feedback residual) and the kind's collective at the channel's
    /// wire width on `stream`; returns what this rank keeps. A shard is this
    /// rank's alone and is scaled by 1/p here, in place; a whole bucket is
    /// the one all-reduce result every rank holds a handle to and stays the
    /// sum (the 1/p goes into [`GradReducer::finish`]'s write-back instead of
    /// a private copy per rank).
    fn reduce_bucket(
        &mut self,
        ctx: &DeviceCtx,
        group: &Group,
        bi: usize,
        mut flat: Vec<f32>,
        stream: Stream,
    ) -> Tensor {
        let comp = self.compress;
        if comp.is_lossy() {
            let residual = &mut self.residuals[bi];
            residual.resize(flat.len(), 0.0);
            let _ = compress::compress_with_feedback(comp, &mut flat, residual);
        }
        let desc = match self.keep {
            Keep::Whole | Keep::ShardOfAllReduce => comp.all_reduce(),
            Keep::ShardOfReduceScatter => {
                Collective::from(Op::ReduceScatter { dim: 0 }).wire(comp.wire())
            }
        };
        let p = group.size();
        let bucket = Tensor::from_vec([flat.len()], flat);
        let mut kept = group.collective(ctx, desc.on(stream), bucket);
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
    fn finish(&self, group: &Group, model: &mut dyn Layer, reduced: Vec<Tensor>) -> Vec<Tensor> {
        if self.keep != Keep::Whole {
            return reduced;
        }
        let mean = 1.0 / group.size() as f32;
        self.layout.scatter(model, Param::grad_mut, &reduced, mean);
        Vec::new()
    }

    /// Reduces the model's accumulated gradients, blocking on the main
    /// stream: one fused collective per bucket, front to back. Returns the
    /// shards, or under [`Keep::Whole`] nothing (see [`GradReducer`]).
    pub fn reduce(&mut self, ctx: &DeviceCtx, group: &Group, model: &mut dyn Layer) -> Vec<Tensor> {
        let bufs = self.layout.gather_all(model, Param::grad);
        let reduce = |(bi, flat)| self.reduce_bucket(ctx, group, bi, flat, Stream::Main);
        let reduced = bufs.into_iter().enumerate().map(reduce).collect();
        self.finish(group, model, reduced)
    }

    /// Runs the staged backward, launching each bucket's collective on the
    /// comm stream as soon as the produced gradient suffix covers its
    /// element range, then joins compute and comm clocks. Returns the input
    /// gradient and what [`GradReducer::reduce`] returns, bit-identical to a
    /// plain backward followed by it; each bucket's collective rides under
    /// the remaining backward compute.
    pub fn backward_overlapped(
        &mut self,
        ctx: &DeviceCtx,
        group: &Group,
        model: &mut dyn Layer,
        dy: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        let mut bufs = self.layout.buffers();
        let mut produced = self.layout.offsets.len() - 1; // start of the produced param suffix
        let mut next = self.layout.ranges.len(); // buckets fire back to front
        let mut reduced: Vec<Option<Tensor>> = vec![None; next];
        let dx = model.backward_staged(dy, &mut |stage| {
            assert!(stage.len() <= produced, "stage overruns parameter list");
            produced -= stage.len();
            for (i, g) in stage.iter().enumerate() {
                self.layout.gather(&mut bufs, produced + i, g.data());
            }
            // the padding past the last parameter counts as produced
            while next > 0 && self.layout.ranges[next - 1].0 >= self.layout.offsets[produced] {
                next -= 1;
                let flat = std::mem::take(&mut bufs[next]);
                reduced[next] = Some(self.reduce_bucket(ctx, group, next, flat, Stream::Comm));
            }
        });
        assert_eq!(produced, 0, "backward_staged must cover every parameter");
        assert_eq!(next, 0, "every bucket must have launched");
        // the reduced gradients must be final before anyone reads them
        ctx.comm_sync();
        let reduced = reduced.into_iter().map(|r| r.unwrap()).collect();
        (dx, self.finish(group, model, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_parallel::flatten_grads;
    use colossalai_autograd::{Gelu, Linear, Sequential};
    use colossalai_comm::{OpKind, Wire, World};
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

    #[test]
    fn scatter_inverts_gather_bit_for_bit_over_ragged_layouts() {
        use rand::Rng;
        // shapes a plan must survive; each must occur somewhere in the sweep
        let (mut empty_param, mut straddling_param, mut wide_range, mut padded_tail) =
            (false, false, false, false);
        for seed in 0..40u64 {
            let mut rng = init::rng(4100 + seed);
            let sizes: Vec<usize> = (0..rng.gen_range(1usize..9))
                .map(|_| [0, 1, 3, 7, 20, 33][rng.gen_range(0usize..6)])
                .collect();
            let total: usize = sizes.iter().sum();
            let p = rng.gen_range(1usize..5);
            let cap_bytes = 4 * rng.gen_range(2usize..24);
            let whole_params = BucketPlan::from_param_sizes(&sizes, cap_bytes);
            let whole_params = whole_params.buckets.iter().map(|b| (b.offset, b.len));
            let plans = [
                whole_params.collect::<Vec<_>>(),
                BucketPlan::element_ranges(total, p, cap_bytes),
            ];
            for ranges in plans {
                let layout = FlatLayout::new(&sizes, ranges.clone());
                let covered = ranges.iter().map(|r| r.1).sum::<usize>();
                empty_param |= sizes.contains(&0);
                padded_tail |= covered > total;
                for (pi, &n) in sizes.iter().enumerate() {
                    straddling_param |= layout.overlaps(pi, n).count() >= 2;
                }
                for &(o, len) in &ranges {
                    let inside = layout
                        .offsets
                        .windows(2)
                        .filter(|w| w[0] < w[1] && o <= w[0] && w[1] <= o + len);
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
                    let want: Vec<Vec<u32>> = model
                        .0
                        .iter()
                        .map(|q| pick(q).data().iter().map(|x| x.to_bits()).collect())
                        .collect();

                    // gather is the flat concatenation, zero-padded
                    let bufs = layout.gather_all(&mut model, pick);
                    let mut flat: Vec<u32> = want.concat();
                    flat.resize(covered, 0f32.to_bits());
                    let got: Vec<u32> = bufs.concat().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        got, flat,
                        "seed {seed}: gather of {sizes:?} over {ranges:?}"
                    );

                    // and scatter puts every element back where it came from
                    for q in &mut model.0 {
                        pick_mut(q).data_mut().fill(f32::NAN);
                    }
                    let flat = |buf: Vec<f32>| Tensor::from_vec([buf.len()], buf);
                    let bufs: Vec<Tensor> = bufs.into_iter().map(flat).collect();
                    layout.scatter(&mut model, pick_mut, &bufs, 1.0);
                    let back: Vec<Vec<u32>> = model
                        .0
                        .iter()
                        .map(|q| pick(q).data().iter().map(|x| x.to_bits()).collect())
                        .collect();
                    assert_eq!(
                        back, want,
                        "seed {seed}: scatter of {sizes:?} over {ranges:?}"
                    );
                }

                // values land as views: the same elements, and a parameter
                // inside one range reads that range's own storage
                let params = sizes.iter().map(|&n| Param::new("p", Tensor::zeros([n])));
                let mut model = Bag(params.collect());
                let flat = |&(_, len): &(usize, usize)| init::uniform([len], -1.0, 1.0, &mut rng);
                let bufs: Vec<Tensor> = ranges.iter().map(flat).collect();
                layout.scatter_values(&mut model, &bufs);
                let all: Vec<f32> = bufs.iter().flat_map(|b| b.data().to_vec()).collect();
                for (pi, q) in model.0.iter().enumerate() {
                    let (start, n) = (layout.offsets[pi], sizes[pi]);
                    assert_eq!(q.value().data(), &all[start..start + n], "seed {seed}");
                    let homes: Vec<usize> = layout.overlaps(pi, n).map(|o| o.0).collect();
                    let shared = bufs.iter().filter(|b| b.shares_storage(q.value()));
                    assert_eq!(
                        shared.count(),
                        usize::from(homes.len() == 1),
                        "seed {seed}: parameter {pi} of {sizes:?} over {ranges:?}"
                    );
                }
            }
        }
        assert!(empty_param, "no zero-length parameter was drawn");
        assert!(straddling_param, "no parameter straddled two ranges");
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
            assert!(reducer.reduce(ctx, &g, &mut model).is_empty());
            let fused = flatten_grads(&mut model);
            assert_eq!(fused.data(), &baseline[..], "fused == per-param bitwise");
            fused
        });
        assert_eq!(grads[0].data(), grads[1].data());
    }

    #[test]
    fn error_feedback_residual_accounts_exactly_through_bucket_sync() {
        // On a single-rank group the all-reduced value IS the sent value, so
        // sent + residual must reconstruct the exact pre-compression gradient
        // bitwise (the DESIGN.md §8.3 error-feedback invariant), per channel.
        for comp in [Compression::TopK(2), Compression::Int8, Compression::Fp16] {
            let world = World::new(system_i());
            world.run_on(1, |ctx| {
                let g = ctx.world_group(1);
                let mut model = make_model(831);
                let x = init::uniform([2, 4], -1.0, 1.0, &mut init::rng(950));
                let y = model.forward(&x);
                let _ = model.backward(&Tensor::ones(y.shape().clone()));
                let exact = flatten_grads(&mut model);
                let mut reducer = GradReducer::data_parallel(&mut model, 64);
                reducer.set_compression(comp);
                reducer.reduce(ctx, &g, &mut model);
                let sent = flatten_grads(&mut model);
                let residual: Vec<f32> = reducer.residuals().concat();
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
            let mut reducer = GradReducer::data_parallel(&mut model, 64);
            reducer.set_compression(Compression::TopK(k));
            reducer.reduce(ctx, &g, &mut model);
            let lens = reducer.buckets().iter().map(|&(_, len)| len);
            lens.collect::<Vec<_>>()
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
            let mut reducer = GradReducer::data_parallel(&mut model, 64);
            reducer.set_compression(Compression::Int8);
            reducer.reduce(ctx, &g, &mut model);
            let lens = reducer.buckets().iter().map(|&(_, len)| len);
            lens.collect::<Vec<_>>()
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
            let mut reducer = GradReducer::data_parallel(&mut model, 64);
            let dy = Tensor::ones(y.shape().clone());
            let (_, reduced) = reducer.backward_overlapped(ctx, &g, &mut model, &dy);
            assert!(reduced.is_empty(), "whole buckets land in the model");
            (ctx.clock(), ctx.comm_clock())
        });
        for (main, comm) in clocks {
            assert!(main > 0.0, "comm time was charged");
            assert_eq!(main, comm, "comm_sync joins both clocks");
        }
    }
}
