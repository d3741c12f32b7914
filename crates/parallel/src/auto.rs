//! Sharding-spec conversion search (Section 3.3).
//!
//! Alpa converts between sharding specs through a hardcoded table, which
//! limits how many dimensions can be sharded; Colossal-AI searches for
//! conversion paths. [`conversion_path`] runs a shortest-path search over a
//! tensor's specs whose steps are what a [`Group`] executes: a local slice,
//! or a collective — [`Op::AllGather`], [`Op::ReduceScatter`] or the sum
//! [`Op::AllReduce`]. Each collective is priced in seconds by [`Op::price`],
//! the `topology::cost` call the group's combine charges for it, so on a
//! world with no pinned all-reduce algorithm [`run_path`] moves every
//! member's clock by exactly the path's price. The price makes it a search
//! rather than a table: a small `Partial` tensor on one NVLink node goes
//! through an all-reduce and a slice (the selector's log-latency schedule),
//! a large one through a reduce-scatter.

use colossalai_comm::{DeviceCtx, Group, Op};
use colossalai_tensor::Tensor;
use colossalai_topology::{Cluster, DeviceId};
use std::collections::HashMap;

/// How a tensor is laid out across the `p` members of a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardSpec {
    /// Full copy on every member.
    Replicated,
    /// Split into `p` equal chunks along this dim; member `r` holds chunk
    /// `r`.
    Shard(usize),
    /// Each member holds a partial sum (the state after a local matmul
    /// against a row-sharded weight, before any reduction); the tensor is
    /// their rank-ordered sum.
    Partial,
}

impl ShardSpec {
    /// Every spec of a tensor with `rank` dims.
    pub fn all(rank: usize) -> Vec<ShardSpec> {
        let shards = (0..rank).map(ShardSpec::Shard);
        std::iter::once(ShardSpec::Replicated)
            .chain(shards)
            .chain([ShardSpec::Partial])
            .collect()
    }
}

/// One conversion step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `Replicated -> Shard(dim)`: keep this member's chunk; no
    /// communication.
    Slice { dim: usize },
    /// A collective of the group: an all-gather (`Shard -> Replicated`), a
    /// reduce-scatter (`Partial -> Shard`) or a sum all-reduce (`Partial ->
    /// Replicated`).
    Op(Op),
}

/// The steps out of `from` for a tensor of `dims` over `p` members, each
/// with the spec it lands in. A dim `p` does not divide is never sharded.
fn steps(from: ShardSpec, dims: &[usize], p: usize) -> Vec<(Step, ShardSpec)> {
    let shardable = (0..dims.len()).filter(|&d| dims[d].is_multiple_of(p));
    match from {
        ShardSpec::Replicated => shardable
            .map(|dim| (Step::Slice { dim }, ShardSpec::Shard(dim)))
            .collect(),
        ShardSpec::Shard(dim) => vec![(Step::Op(Op::AllGather { dim }), ShardSpec::Replicated)],
        ShardSpec::Partial => shardable
            .map(|dim| (Step::Op(Op::ReduceScatter { dim }), ShardSpec::Shard(dim)))
            .chain([(
                Step::Op(Op::AllReduce { max: false }),
                ShardSpec::Replicated,
            )])
            .collect(),
    }
}

/// Seconds `step` takes out of `from` for a tensor of `numel` elements over
/// `group`: a member's input is the whole tensor, or its chunk under
/// `Shard`.
fn step_price(
    step: Step,
    from: ShardSpec,
    numel: usize,
    group: &[DeviceId],
    cluster: &Cluster,
) -> f64 {
    let Step::Op(op) = step else { return 0.0 };
    let local = match from {
        ShardSpec::Shard(_) => numel / group.len(),
        _ => numel,
    };
    op.price(cluster, group, local as u64)
}

/// The cheapest conversion `from -> to` of a tensor of `dims` over the
/// members `group` of `cluster`: its steps, and its price in seconds (the
/// sum of its collectives' [`Op::price`]s, in order).
///
/// Panics before anything runs on a `Shard(d)` end whose extent `p =
/// group.len()` does not divide, and on a `Partial` target from any other
/// spec: kernels produce partial sums, no conversion does.
pub fn conversion_path(
    from: ShardSpec,
    to: ShardSpec,
    dims: &[usize],
    group: &[DeviceId],
    cluster: &Cluster,
) -> (Vec<Step>, f64) {
    let p = group.len();
    for spec in [from, to] {
        if let ShardSpec::Shard(d) = spec {
            assert!(
                d < dims.len(),
                "{spec:?}: the tensor has {} dims",
                dims.len()
            );
            assert!(
                dims[d].is_multiple_of(p),
                "{spec:?}: dim {d} extent {} does not split over p = {p}",
                dims[d]
            );
        }
    }
    assert!(
        to != ShardSpec::Partial || from == ShardSpec::Partial,
        "{from:?} -> {to:?}: no conversion reaches Partial; kernels produce partial sums"
    );
    let numel = dims.iter().product();
    // label-correcting search over the <= dims + 2 specs
    let mut best = HashMap::from([(from, (0.0, Vec::new()))]);
    let mut frontier = vec![from];
    while let Some(cur) = frontier.pop() {
        let (cur_cost, cur_path): (f64, Vec<Step>) = best[&cur].clone();
        for (step, next) in steps(cur, dims, p) {
            let cost = cur_cost + step_price(step, cur, numel, group, cluster);
            if best.get(&next).is_none_or(|&(c, _)| cost < c) {
                let mut path = cur_path.clone();
                path.push(step);
                best.insert(next, (cost, path));
                frontier.push(next);
            }
        }
    }
    let (cost, path) = best
        .remove(&to)
        .expect("every spec but Partial is reachable");
    (path, cost)
}

/// Runs `path` on this member's tensor `t`: a slice keeps the member's
/// chunk, and each collective goes through [`Group::collective`] on the
/// main stream.
pub fn run_path(path: &[Step], ctx: &DeviceCtx, group: &Group, t: Tensor) -> Tensor {
    path.iter().fold(t, |t, &step| match step {
        Step::Slice { dim } => {
            let each = t.dims()[dim] / group.size();
            t.narrow(dim, group.rank() * each, each)
        }
        Step::Op(op) => group.collective(ctx, op.into(), t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use colossalai_topology::{system_i, system_ii, system_iii};
    use ShardSpec::{Partial, Replicated, Shard};

    const DIMS: [usize; 2] = [8, 16];

    fn group(p: usize) -> Vec<DeviceId> {
        (0..p).collect()
    }

    #[test]
    fn identity_is_free_and_shard_to_shard_gathers_then_slices() {
        let (g, c) = (group(4), system_i());
        for s in ShardSpec::all(DIMS.len()) {
            assert_eq!(conversion_path(s, s, &DIMS, &g, &c), (Vec::new(), 0.0));
        }
        let (path, cost) = conversion_path(Replicated, Shard(1), &DIMS, &g, &c);
        assert_eq!((path, cost), (vec![Step::Slice { dim: 1 }], 0.0));
        let (path, cost) = conversion_path(Shard(0), Shard(1), &DIMS, &g, &c);
        assert_eq!(
            path,
            vec![Step::Op(Op::AllGather { dim: 0 }), Step::Slice { dim: 1 }]
        );
        assert_eq!(cost, Op::AllGather { dim: 0 }.price(&c, &g, 32));
    }

    #[test]
    fn partial_to_shard_is_priced_not_tabled() {
        // element-hops always pick the reduce-scatter ((p-1)n against
        // 2(p-1)n); seconds pick the all-reduce where its log-latency
        // schedule or the hierarchical one wins
        let ar_slice = vec![
            Step::Op(Op::AllReduce { max: false }),
            Step::Slice { dim: 0 },
        ];
        let rs = vec![Step::Op(Op::ReduceScatter { dim: 0 })];
        for (cluster, dims, want) in [
            (system_i(), [8, 8], &ar_slice),
            (system_i(), [1024, 1024], &rs),
            (system_iii(), [1024, 1024], &ar_slice),
        ] {
            let (path, _) = conversion_path(Partial, Shard(0), &dims, &group(8), &cluster);
            assert_eq!(&path, want, "{} at {dims:?}", cluster.name());
        }
    }

    #[test]
    fn search_matches_brute_force_on_all_pairs() {
        // every path of at most 3 steps, priced in seconds in path order
        fn brute(cur: ShardSpec, to: ShardSpec, cost: f64, depth: usize, c: &Cluster) -> f64 {
            if cur == to {
                return cost;
            }
            if depth == 0 {
                return f64::INFINITY;
            }
            let g = group(8);
            steps(cur, &[1024, 1024], 8)
                .into_iter()
                .map(|(step, next)| {
                    let cost = cost + step_price(step, cur, 1 << 20, &g, c);
                    brute(next, to, cost, depth - 1, c)
                })
                .fold(f64::INFINITY, f64::min)
        }
        for c in [system_i(), system_ii(), system_iii()] {
            for from in ShardSpec::all(2) {
                for to in ShardSpec::all(2) {
                    if to == Partial && from != Partial {
                        continue;
                    }
                    let (_, got) = conversion_path(from, to, &[1024, 1024], &group(8), &c);
                    assert_eq!(got, brute(from, to, 0.0, 3, &c), "{from:?} -> {to:?}");
                }
            }
        }
    }

    #[test]
    fn bad_ends_are_rejected_by_name() {
        let message = |from, to, dims: &[usize]| {
            let dims = dims.to_vec();
            let err = std::panic::catch_unwind(move || {
                conversion_path(from, to, &dims, &group(4), &system_i())
            })
            .unwrap_err();
            err.downcast::<String>().map(|s| *s).unwrap()
        };
        assert_eq!(
            message(Replicated, Shard(1), &[8, 6]),
            "Shard(1): dim 1 extent 6 does not split over p = 4"
        );
        assert_eq!(
            message(Shard(0), Partial, &[8, 8]),
            "Shard(0) -> Partial: no conversion reaches Partial; kernels produce partial sums"
        );
    }
}
