//! The sharding-conversion search of Section 3.3, executed: every
//! conversion between two specs of a 2-D tensor over devices `0..p` (p =
//! 2, 4, 8) of Systems I, II and III is searched, priced in seconds by the
//! comm layer's own cost mapping, and run on each rank's real tensor in a
//! `World`. For each path it asserts that every rank's output is the direct
//! layout of the global tensor, bit for bit, that every rank's clock reads
//! the path's price, and that the world counted one op of the step's kind
//! per collective; then it prints the steps, the metered bytes and the
//! virtual seconds.
//!
//! Run with: `cargo run --release --example auto_parallel_plan`

use colossalai::comm::{Collective, Op, OpKind, World};
use colossalai::parallel::auto::{conversion_path, run_path, ShardSpec, Step};
use colossalai::tensor::Tensor;
use colossalai::topology::{system_i, system_ii, system_iii};

/// Rank `r`'s partial sum: fractions whose rank-ordered f32 sum rounds.
fn partial(r: usize, dims: [usize; 2]) -> Tensor {
    let data = (0..dims[0] * dims[1]).map(|i| ((i * 37 + r * 101) % 97) as f32 / 7.0 - 6.0);
    Tensor::from_vec(dims, data.collect())
}

fn main() {
    for dims in [[8, 8], [1024, 1024]] {
        println!("== {dims:?} f32 ==");
        println!(
            "{:<10} {:>2} {:<24} {:<34} {:>9} {:>9}",
            "system", "p", "conversion", "steps", "bytes", "seconds"
        );
        for (cluster, p) in [system_i(), system_ii(), system_iii()]
            .into_iter()
            .flat_map(|c| [2, 4, 8].map(|p| (c.clone(), p)))
        {
            let partials: Vec<Tensor> = (0..p).map(|r| partial(r, dims)).collect();
            let global = partials[1..]
                .iter()
                .fold(partials[0].clone(), |acc, x| acc.zip(x, |a, b| a + b));
            // rank r's tensor under `spec`
            let layout = |spec: ShardSpec, r: usize| match spec {
                ShardSpec::Replicated => global.clone(),
                ShardSpec::Shard(d) => global.chunk(d, p).swap_remove(r),
                ShardSpec::Partial => partials[r].clone(),
            };
            let group: Vec<usize> = (0..p).collect();
            for from in ShardSpec::all(2) {
                for to in ShardSpec::all(2) {
                    // kernels, not conversions, produce partial sums
                    if to == ShardSpec::Partial && from != to {
                        continue;
                    }
                    let (path, price) = conversion_path(from, to, &dims, &group, &cluster);
                    let world = World::new(cluster.clone());
                    let out = world.run_on(p, |ctx| {
                        let g = ctx.world_group(p);
                        let t = run_path(&path, ctx, &g, layout(from, ctx.rank()));
                        (t, ctx.clock())
                    });
                    let case = format!("{} p = {p}: {from:?} -> {to:?}", cluster.name());
                    for (r, (t, clock)) in out.iter().enumerate() {
                        let want = layout(to, r);
                        let bits =
                            |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(t.dims(), want.dims(), "{case}");
                        assert!(bits(t) == bits(&want), "{case}: rank {r} is not the layout");
                        assert_eq!(*clock, price, "{case}: rank {r}'s clock");
                    }
                    let kinds: Vec<OpKind> = path
                        .iter()
                        .filter_map(|step| match step {
                            Step::Op(Op::AllGather { .. }) => Some(OpKind::AllGather),
                            Step::Op(Op::ReduceScatter { .. }) => Some(OpKind::ReduceScatter),
                            Step::Op(_) => Some(OpKind::AllReduce),
                            Step::Slice { .. } => None,
                        })
                        .collect();
                    let stats = world.stats();
                    assert_eq!(stats.ops, kinds.len() as u64, "{case}");
                    for kind in [OpKind::AllGather, OpKind::ReduceScatter, OpKind::AllReduce] {
                        let n = kinds.iter().filter(|&&k| k == kind).count() as u64;
                        assert_eq!(stats.ops_of(kind), n, "{case}: {kind:?}");
                    }

                    let steps: Vec<String> = path
                        .iter()
                        .map(|step| match *step {
                            Step::Slice { dim } => format!("slice(dim {dim})"),
                            Step::Op(op) => Collective::from(op).to_string(),
                        })
                        .collect();
                    println!(
                        "{:<10} {p:>2} {:<24} {:<34} {:>9} {:>9.3e}",
                        cluster.name(),
                        format!("{from:?} -> {to:?}"),
                        if steps.is_empty() {
                            "-".into()
                        } else {
                            steps.join(" + ")
                        },
                        stats.bytes,
                        price
                    );
                }
            }
        }
        println!();
    }
    println!(
        "every path ran bit-exact at its price; Partial -> Shard(0) takes the \
         all-reduce where its selected schedule beats the reduce-scatter"
    );
}
