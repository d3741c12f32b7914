//! Experimental automatic parallelization (Section 3.3).
//!
//! Two pieces, mirroring the paper's description of what it improves over
//! Alpa:
//!
//! * **Sharding-spec conversion search** — Alpa hardcodes a conversion
//!   table, limiting the number of sharded dimensions; Colossal-AI searches
//!   conversion paths greedily. [`conversion_path`] runs a shortest-path
//!   search over the spec graph using the collectives' modeled costs, so
//!   any spec pair gets an optimal multi-step plan without a table. The
//!   steps are an element-hop model, not executed: `ConvOp::AllToAll` in
//!   particular has no `colossalai-comm` collective behind it.
//! * **Checkpoint-aware strategy search** — activation checkpointing is
//!   folded into the per-layer strategy choice ([`plan_strategies`]), so a
//!   model can be simultaneously sharded *and* checkpointed to fit a memory
//!   budget at minimal step time.

use std::collections::HashMap;

/// How a (logically 2-D) tensor is laid out across `p` devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardSpec {
    /// Full copy on every device.
    Replicated,
    /// Split along dimension `0` or `1`.
    Shard(usize),
    /// Each device holds a partial sum (the state after a local matmul
    /// against a row-sharded weight, before any reduction).
    Partial,
}

impl ShardSpec {
    /// All specs reachable in the search.
    pub fn all() -> [ShardSpec; 4] {
        [
            ShardSpec::Replicated,
            ShardSpec::Shard(0),
            ShardSpec::Shard(1),
            ShardSpec::Partial,
        ]
    }
}

/// One conversion step and its collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvOp {
    /// `Shard(d) -> Replicated`.
    AllGather(usize),
    /// `Replicated -> Shard(d)` (a local slice; free of communication).
    Slice(usize),
    /// `Shard(a) -> Shard(b)`.
    AllToAll(usize, usize),
    /// `Partial -> Replicated`.
    AllReduce,
    /// `Partial -> Shard(d)`.
    ReduceScatter(usize),
}

/// Element-hops a single conversion step moves, for a tensor of `elems`
/// elements over `p` devices (ring-algorithm accounting, matching
/// `colossalai-comm`'s meters).
fn step_cost(op: ConvOp, elems: u64, p: u64) -> u64 {
    match op {
        ConvOp::Slice(_) => 0,
        ConvOp::AllGather(_) => (p - 1) * elems,
        ConvOp::AllToAll(_, _) => (p - 1) * elems / p,
        ConvOp::AllReduce => 2 * (p - 1) * elems,
        ConvOp::ReduceScatter(_) => (p - 1) * elems,
    }
}

/// Single-step transitions available from `from`.
fn neighbors(from: ShardSpec) -> Vec<(ConvOp, ShardSpec)> {
    match from {
        ShardSpec::Replicated => vec![
            (ConvOp::Slice(0), ShardSpec::Shard(0)),
            (ConvOp::Slice(1), ShardSpec::Shard(1)),
        ],
        ShardSpec::Shard(d) => {
            let other = 1 - d;
            vec![
                (ConvOp::AllGather(d), ShardSpec::Replicated),
                (ConvOp::AllToAll(d, other), ShardSpec::Shard(other)),
            ]
        }
        ShardSpec::Partial => vec![
            (ConvOp::AllReduce, ShardSpec::Replicated),
            (ConvOp::ReduceScatter(0), ShardSpec::Shard(0)),
            (ConvOp::ReduceScatter(1), ShardSpec::Shard(1)),
        ],
    }
}

/// Minimal-cost conversion path `from -> to` for an `elems`-element tensor
/// over `p` devices. Returns `(ops, total element-hops)`.
///
/// The graph is tiny (4 specs), so exhaustive Dijkstra *is* the greedy
/// search — no hardcoded table and no dimension limit.
pub fn conversion_path(from: ShardSpec, to: ShardSpec, elems: u64, p: u64) -> (Vec<ConvOp>, u64) {
    assert!(p >= 2, "conversion over fewer than 2 devices is trivial");
    if from == to {
        return (Vec::new(), 0);
    }
    // Dijkstra over <= 4 nodes
    let mut best: HashMap<ShardSpec, (u64, Vec<ConvOp>)> = HashMap::new();
    best.insert(from, (0, Vec::new()));
    let mut frontier = vec![from];
    while let Some(cur) = frontier.pop() {
        let (cur_cost, cur_path) = best[&cur].clone();
        for (op, next) in neighbors(cur) {
            let cost = cur_cost + step_cost(op, elems, p);
            let better = best.get(&next).is_none_or(|(c, _)| cost < *c);
            if better {
                let mut path = cur_path.clone();
                path.push(op);
                best.insert(next, (cost, path));
                frontier.push(next);
            }
        }
    }
    let (cost, path) = best
        .get(&to)
        .unwrap_or_else(|| panic!("no conversion path {from:?} -> {to:?}"))
        .clone();
    (path, cost)
}

// ---------------------------------------------------------------------------

/// Per-layer description fed to the strategy search.
#[derive(Clone, Copy, Debug)]
pub struct LayerProfile {
    /// Forward FLOPs of the layer.
    pub flops: u64,
    /// Activation bytes the layer caches for backward (unsharded).
    pub act_bytes: u64,
    /// Weight bytes (unsharded).
    pub weight_bytes: u64,
    /// The spec the layer's kernel wants its input in.
    pub input_spec: ShardSpec,
    /// The spec the layer's kernel produces.
    pub output_spec: ShardSpec,
}

/// A chosen per-layer strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerChoice {
    /// Whether the layer's activations are checkpointed (dropped and
    /// recomputed in backward).
    pub checkpoint: bool,
    /// Conversion cost (element-hops) paid on this layer's input boundary.
    pub conversion_cost: u64,
}

/// Search result.
#[derive(Clone, Debug)]
pub struct AutoPlan {
    pub choices: Vec<LayerChoice>,
    /// Total modeled step time units (compute FLOPs + lambda * comm hops).
    pub total_cost: u64,
    /// Peak activation + weight bytes per device under the plan.
    pub memory_bytes: u64,
}

/// Relative weight of one communicated element vs one FLOP in the
/// objective (a bandwidth-to-compute ratio; 16 matches an A100-class ratio
/// of ~125 TFLOP/s to ~200 GB/s at 4-byte elements).
pub const COMM_WEIGHT: u64 = 16;

/// Chooses, per layer, whether to checkpoint, and pays the sharding
/// conversion each layer boundary needs — minimizing compute + weighted
/// communication subject to a per-device memory budget over `p` devices.
///
/// Greedy-with-repair: start from the fastest plan (no checkpointing);
/// while over budget, checkpoint the layer with the largest
/// activation-bytes-per-extra-FLOP ratio. Returns `None` when even full
/// checkpointing cannot fit.
pub fn plan_strategies(layers: &[LayerProfile], p: u64, budget_bytes: u64) -> Option<AutoPlan> {
    assert!(!layers.is_empty(), "empty model");
    // boundary conversions are forced by adjacent specs (elems from bytes/4)
    let mut choices: Vec<LayerChoice> = Vec::with_capacity(layers.len());
    let mut comm = 0u64;
    for i in 0..layers.len() {
        let conv = if i == 0 {
            0
        } else {
            let elems = layers[i - 1].act_bytes / 4;
            let (_, cost) =
                conversion_path(layers[i - 1].output_spec, layers[i].input_spec, elems, p);
            cost
        };
        comm += conv;
        choices.push(LayerChoice {
            checkpoint: false,
            conversion_cost: conv,
        });
    }

    let weights: u64 = layers.iter().map(|l| l.weight_bytes / p).sum();
    let act_of = |l: &LayerProfile, ck: bool| -> u64 {
        // sharded activations: 1/p resident; checkpointing keeps only the
        // boundary input (modeled as 1/8 of the layer's activations)
        let full = l.act_bytes / p;
        if ck {
            full / 8
        } else {
            full
        }
    };
    let mem = |choices: &[LayerChoice]| -> u64 {
        weights
            + layers
                .iter()
                .zip(choices)
                .map(|(l, c)| act_of(l, c.checkpoint))
                .sum::<u64>()
    };
    let compute = |choices: &[LayerChoice]| -> u64 {
        layers
            .iter()
            .zip(choices)
            .map(|(l, c)| l.flops / p + if c.checkpoint { l.flops / p } else { 0 })
            .sum()
    };

    // repair loop: checkpoint the best-ratio layer until we fit
    while mem(&choices) > budget_bytes {
        let candidate = layers
            .iter()
            .enumerate()
            .filter(|(i, _)| !choices[*i].checkpoint)
            .max_by_key(|(_, l)| {
                // bytes saved per extra FLOP (scaled to avoid division)
                let saved = l.act_bytes / p - l.act_bytes / p / 8;
                (saved as u128 * 1_000_000 / (l.flops / p).max(1) as u128) as u64
            });
        match candidate {
            Some((i, _)) => choices[i].checkpoint = true,
            None => return None, // everything checkpointed and still OOM
        }
    }

    let total_cost = compute(&choices) + COMM_WEIGHT * comm;
    let memory_bytes = mem(&choices);
    Some(AutoPlan {
        choices,
        total_cost,
        memory_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = 4;
    const N: u64 = 1 << 20; // elements

    #[test]
    fn identity_conversion_is_free() {
        for s in ShardSpec::all() {
            let (ops, cost) = conversion_path(s, s, N, P);
            assert!(ops.is_empty());
            assert_eq!(cost, 0);
        }
    }

    #[test]
    fn replicated_to_shard_is_free_slice() {
        let (ops, cost) = conversion_path(ShardSpec::Replicated, ShardSpec::Shard(1), N, P);
        assert_eq!(ops, vec![ConvOp::Slice(1)]);
        assert_eq!(cost, 0);
    }

    #[test]
    fn shard_to_shard_is_one_alltoall_not_gather_slice() {
        // all-to-all moves (p-1)/p * N; gather+slice would move (p-1) * N
        let (ops, cost) = conversion_path(ShardSpec::Shard(0), ShardSpec::Shard(1), N, P);
        assert_eq!(ops, vec![ConvOp::AllToAll(0, 1)]);
        assert_eq!(cost, (P - 1) * N / P);
        assert!(cost < (P - 1) * N, "must beat the via-replicated path");
    }

    #[test]
    fn partial_to_shard_uses_reduce_scatter() {
        let (ops, cost) = conversion_path(ShardSpec::Partial, ShardSpec::Shard(0), N, P);
        assert_eq!(ops, vec![ConvOp::ReduceScatter(0)]);
        // cheaper than all-reduce then slice
        assert!(cost < step_cost(ConvOp::AllReduce, N, P));
    }

    #[test]
    fn search_matches_brute_force_on_all_pairs() {
        // brute force over paths of length <= 3
        fn brute(from: ShardSpec, to: ShardSpec) -> u64 {
            let mut best = u64::MAX;
            fn rec(cur: ShardSpec, to: ShardSpec, cost: u64, depth: usize, best: &mut u64) {
                if cur == to {
                    *best = (*best).min(cost);
                    return;
                }
                if depth == 0 {
                    return;
                }
                for (op, next) in neighbors(cur) {
                    rec(next, to, cost + step_cost(op, N, P), depth - 1, best);
                }
            }
            rec(from, to, 0, 3, &mut best);
            best
        }
        for from in ShardSpec::all() {
            for to in ShardSpec::all() {
                if to == ShardSpec::Partial && from != ShardSpec::Partial {
                    continue; // partial states are produced by kernels, not conversions
                }
                let (_, got) = conversion_path(from, to, N, P);
                assert_eq!(got, brute(from, to), "{from:?} -> {to:?}");
            }
        }
    }

    fn layer(flops: u64, act: u64, out: ShardSpec, inp: ShardSpec) -> LayerProfile {
        LayerProfile {
            flops,
            act_bytes: act,
            weight_bytes: 1 << 20,
            input_spec: inp,
            output_spec: out,
        }
    }

    #[test]
    fn loose_budget_checkpoints_nothing() {
        let layers = vec![
            layer(1 << 30, 1 << 24, ShardSpec::Shard(0), ShardSpec::Shard(0)),
            layer(1 << 30, 1 << 24, ShardSpec::Shard(0), ShardSpec::Shard(0)),
        ];
        let plan = plan_strategies(&layers, P, u64::MAX).unwrap();
        assert!(plan.choices.iter().all(|c| !c.checkpoint));
        // matched specs: no conversion traffic
        assert!(plan.choices.iter().all(|c| c.conversion_cost == 0));
    }

    #[test]
    fn tight_budget_checkpoints_cheap_layers_first() {
        // layer 1 has huge activations but tiny flops -> best ratio
        let layers = vec![
            layer(1 << 30, 1 << 20, ShardSpec::Shard(0), ShardSpec::Shard(0)),
            layer(1 << 10, 1 << 28, ShardSpec::Shard(0), ShardSpec::Shard(0)),
            layer(1 << 30, 1 << 20, ShardSpec::Shard(0), ShardSpec::Shard(0)),
        ];
        let no_fit_without = (1u64 << 20) / P + (1 << 28) / P + (1 << 20) / P + 3 * ((1 << 20) / P);
        let plan = plan_strategies(&layers, P, no_fit_without - 1).unwrap();
        assert!(plan.choices[1].checkpoint, "the fat cheap layer goes first");
        assert!(!plan.choices[0].checkpoint);
        assert!(!plan.choices[2].checkpoint);
        assert!(plan.memory_bytes < no_fit_without);
    }

    #[test]
    fn impossible_budget_returns_none() {
        let layers = vec![layer(1, 1 << 30, ShardSpec::Shard(0), ShardSpec::Shard(0))];
        assert!(plan_strategies(&layers, P, 16).is_none());
    }

    #[test]
    fn mismatched_specs_pay_conversion() {
        let layers = vec![
            layer(1 << 20, 1 << 22, ShardSpec::Partial, ShardSpec::Replicated),
            layer(1 << 20, 1 << 22, ShardSpec::Shard(0), ShardSpec::Shard(1)),
        ];
        let plan = plan_strategies(&layers, P, u64::MAX).unwrap();
        // boundary: Partial -> Shard(1): a reduce-scatter
        let elems = layers[0].act_bytes / 4;
        assert_eq!(plan.choices[1].conversion_cost, (P - 1) * elems);
        assert!(plan.total_cost > layers.iter().map(|l| l.flops / P).sum::<u64>());
    }

    #[test]
    fn checkpointing_doubles_layer_compute() {
        let l = vec![layer(
            1 << 20,
            1 << 30,
            ShardSpec::Shard(0),
            ShardSpec::Shard(0),
        )];
        let loose = plan_strategies(&l, P, u64::MAX).unwrap();
        // force checkpointing with a budget below the plain activation size
        let tight_budget = (1u64 << 20) / P + (1 << 30) / P / 4;
        let tight = plan_strategies(&l, P, tight_budget).unwrap();
        assert!(tight.choices[0].checkpoint);
        assert_eq!(tight.total_cost, loose.total_cost + (1 << 20) / P);
    }
}
