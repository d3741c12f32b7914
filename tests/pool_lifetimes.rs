//! The storage pool across model lifetimes: building a model, training it
//! and dropping it must leave the pool exactly as full as the previous
//! lifetime left it.
//!
//! `Storage::drop` parks every tensor buffer, wherever it was born, so a
//! tensor-sized `Vec` that came from the allocator instead of
//! `pool::take_buffer` is a recycle without a matching take: the pool ends
//! each lifetime one buffer richer and the process's resident set climbs
//! with the number of models it has ever built (DESIGN.md §9.1).
//!
//! A file of its own, and its tests take turns under [`POOL`]: the pool is
//! process-global, so its gauges can only be compared where no other test
//! is using it.

use colossalai::autograd::{AdamW, Gelu, Layer, Linear, Sequential};
use colossalai::comm::{World, WorldBackend};
use colossalai::core::{build_gpt, initialize, Config, OptimizerSpec};
use colossalai::models::{Gpt, TransformerConfig};
use colossalai::parallel::data_parallel::{flatten_grads, flatten_params};
use colossalai::parallel::zero::{ZeroOptimizer, ZeroStage};
use colossalai::parallel::GradReducer;
use colossalai::tensor::ops::cross_entropy;
use colossalai::tensor::{init, pool, Tensor};
use colossalai::topology::systems::system_i;
use std::sync::Mutex;

static POOL: Mutex<()> = Mutex::new(());

const LIFETIMES: usize = 6;
const STEPS: usize = 2;
const SEQS: usize = 2;

/// Small, but every weight, activation and gradient is past the pool's
/// 64-element floor.
fn gpt_config() -> TransformerConfig {
    TransformerConfig {
        layers: 1,
        hidden: 32,
        heads: 2,
        mlp_ratio: 2,
        vocab: 64,
        max_seq: 8,
    }
}

/// `[SEQS, max_seq]` token ids and one target per position. Built once, by
/// the caller: a tensor wrapped around a caller's own `Vec` is the one
/// buffer the pool cannot have handed out.
fn batch(cfg: &TransformerConfig) -> (Tensor, Vec<usize>) {
    let n = SEQS * cfg.max_seq;
    let ids: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % cfg.vocab).collect();
    let targets = ids.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    let tokens = Tensor::from_vec([SEQS, cfg.max_seq], ids.iter().map(|&t| t as f32).collect());
    (tokens, targets)
}

fn lm_loss(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let dims = logits.dims().to_vec();
    let (loss, d) = cross_entropy(&logits.reshape([dims[0] * dims[1], dims[2]]), targets);
    (loss, d.reshaped(dims))
}

/// Runs `lifetime` [`LIFETIMES`] times and returns the pool's parked bytes
/// after each.
fn parked_after_each(mut lifetime: impl FnMut()) -> Vec<usize> {
    (0..LIFETIMES)
        .map(|_| {
            lifetime();
            pool::stats().pooled_bytes
        })
        .collect()
}

/// The first lifetime fills the pool and the second may still settle which
/// buffer serves which request; from there on nothing may be added.
fn assert_steady(what: &str, parked: &[usize]) {
    assert!(parked[0] > 0, "{what}: the model's buffers are pooled");
    for k in 2..parked.len() {
        assert_eq!(
            parked[k],
            parked[k - 1],
            "{what}: lifetime {} left the pool fuller than lifetime {k} did: {parked:?}",
            k + 1
        );
    }
}

#[test]
fn rebuilding_a_model_leaves_the_pool_no_fuller() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = gpt_config();
    let (tokens, targets) = batch(&cfg);

    let serial = parked_after_each(|| {
        let mut gpt = Gpt::new(&cfg, &mut init::rng(11));
        let mut opt = AdamW::new(1e-3, 0.01);
        for _ in 0..STEPS {
            gpt.zero_grad();
            let logits = gpt.forward(&tokens);
            let (_, d) = lm_loss(&logits, &targets);
            let _ = gpt.backward(&d);
            opt.step_layer(&mut gpt);
        }
    });
    assert_steady("serial GPT", &serial);

    // the Listing-1 path on two data-parallel ranks. One executor slot: the
    // ranks take turns, so how many buffers are in flight at once is the
    // same in every lifetime
    const RANKS: usize = 2;
    let config = Config::from_json(r#"{ "parallel": { "data": 2 } }"#).unwrap();
    let data_parallel = parked_after_each(|| {
        let world = World::new(system_i());
        world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
        world.run_on(RANKS, |ctx| {
            let model = build_gpt(ctx, &config, RANKS, &cfg, 11);
            let spec = OptimizerSpec::AdamW {
                lr: 1e-3,
                weight_decay: 0.01,
            };
            let mut engine = initialize(ctx, &config, RANKS, model, spec);
            for _ in 0..STEPS {
                engine.zero_grad();
                let logits = engine.forward(&tokens);
                let (_, d) = lm_loss(&logits, &targets);
                let _ = engine.backward(&d);
                engine.step();
            }
        });
    });
    assert_steady("2-rank data-parallel GPT", &data_parallel);
}

#[test]
fn zero3_steady_state_stages_nothing_the_size_of_the_model() {
    // ZeRO-3's parameter gather is bucket by bucket, straight into the
    // parameters: with buckets far below the model's size, a
    // `materialize_params` + `step` pair may not touch the pool's size class
    // of the whole (padded) model — a flat staging copy of it would
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    const RANKS: usize = 2;
    const BUCKET_BYTES: usize = 1 << 10;
    let cfg = gpt_config();
    let (tokens, targets) = batch(&cfg);

    let mut sizes = Vec::new();
    Gpt::new(&cfg, &mut init::rng(11)).visit_params(&mut |p| sizes.push(p.numel()));
    let padded = sizes.iter().sum::<usize>().div_ceil(RANKS) * RANKS;
    let class = class_of(padded);
    // nothing else a step allocates is in that class: not a parameter, not
    // a bucket or a gathered bucket, not the logits
    let below = pool::class_elems(class) / 2;
    let logits = SEQS * cfg.max_seq * cfg.vocab;
    for n in [
        *sizes.iter().max().unwrap(),
        BUCKET_BYTES / 4 + RANKS,
        logits,
    ] {
        assert!(n <= below, "{n} elements share the model's size class");
    }

    let world = World::new(system_i());
    world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
    world.run_on(RANKS, |ctx| {
        let g = ctx.world_group(RANKS);
        let mut gpt = Gpt::new(&cfg, &mut init::rng(11));
        let mut opt = ZeroOptimizer::with_bucket_bytes(
            ctx,
            &g,
            &mut gpt,
            ZeroStage::Three,
            1e-3,
            0.01,
            BUCKET_BYTES,
        );
        let mut train_step = |gpt: &mut Gpt| {
            opt.materialize_params(gpt);
            let logits = gpt.forward(&tokens);
            let (_, d) = lm_loss(&logits, &targets);
            let _ = gpt.backward(&d);
            opt.step(gpt);
        };
        for _ in 0..STEPS {
            train_step(&mut gpt);
        }
        // every rank is past its warm-up before rank 0 empties the pool and
        // restarts its high-water marks, and no rank goes on until it has
        let barrier = || g.all_reduce(ctx, Tensor::scalar(0.0));
        barrier();
        if ctx.rank() == 0 {
            pool::clear();
            pool::reset_stats();
        }
        barrier();
        train_step(&mut gpt);
    });
    assert_eq!(
        pool::stats().class_high_water[class],
        0,
        "a buffer of {}..={} elements went through the pool",
        below + 1,
        2 * below
    );
}

/// 808 parameters: 512 + 32 + 256 + 8.
fn mlp() -> Sequential {
    let mut rng = init::rng(50);
    Sequential::new(vec![
        Box::new(Linear::from_rng("l1", 16, 32, true, &mut rng)),
        Box::new(Gelu::new()),
        Box::new(Linear::from_rng("l2", 32, 8, true, &mut rng)),
    ])
}

/// Bytes parked in the pool's size `class` right now (restarts the
/// high-water marks to read it).
fn parked_in(class: usize) -> usize {
    pool::reset_stats();
    pool::stats().class_high_water[class]
}

fn class_of(elems: usize) -> usize {
    (0..pool::N_CLASSES)
        .find(|&i| pool::class_elems(i) >= elems)
        .expect("within pooling range")
}

#[test]
fn storage_returns_to_the_pool_only_when_its_last_view_drops() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let class = class_of(3000);
    let parent = Tensor::zeros([3000]);
    let out = parked_in(class);
    let mut a = parent.view(0, [10]);
    let b = parent.view(100, [5, 5]);
    drop(parent);
    assert_eq!(parked_in(class), out, "two views still read the storage");
    a.data_mut()[0] = 1.0; // copies its ten elements and lets go of the rest
    assert!(!a.shares_storage(&b));
    assert_eq!(parked_in(class), out, "one view still reads the storage");
    drop(b);
    assert!(
        parked_in(class) >= out + 3000 * 4,
        "nothing reads it any more"
    );
}

#[test]
fn zero3_parameters_are_views_of_the_gathered_bucket_until_every_rank_releases() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    const RANKS: usize = 2;
    // one default-sized bucket holds the whole model, in a size class no
    // parameter (and nothing `release_params` allocates) shares
    let class = class_of(808);
    assert!(class_of(512) < class);
    let world = World::new(system_i());
    world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
    let out = world.run_on(RANKS, |ctx| {
        let g = ctx.world_group(RANKS);
        let mut model = mlp();
        let opt = ZeroOptimizer::new(ctx, &g, &mut model, ZeroStage::Three, 1e-3, 0.01);
        assert_eq!(opt.bucket_ranges(), &[(0, 808)]);
        // rank 0 reads the gauge while every rank stands still
        let parked = || {
            g.all_reduce(ctx, Tensor::scalar(0.0));
            let now = parked_in(class);
            g.all_reduce(ctx, Tensor::scalar(0.0));
            now
        };
        // a first round trip parks the buffer every later gather takes
        opt.materialize_params(&mut model);
        opt.release_params(&mut model);
        let before = parked();
        opt.materialize_params(&mut model);
        let held = parked();
        if ctx.rank() == 0 {
            opt.release_params(&mut model);
        }
        let one_released = parked();
        opt.release_params(&mut model);
        let all_released = parked();

        opt.materialize_params(&mut model);
        let mut values = Vec::new();
        model.visit_params(&mut |p| values.push(p.value().clone()));
        ((before, held, one_released, all_released), values)
    });
    let (before, held, one_released, all_released) = out[0].0;
    assert!(
        held < before,
        "the gathered bucket is out of the pool while parameters read it"
    );
    assert_eq!(
        one_released, held,
        "the other rank's parameters still read it"
    );
    assert_eq!(all_released, before, "the last release parks it again");
    // one buffer per group, not one per rank: every parameter of every rank
    // reads the storage of rank 0's first
    let bucket = &out[0].1[0];
    for (rank, (_, values)) in out.iter().enumerate() {
        for (pi, value) in values.iter().enumerate() {
            assert!(value.shares_storage(bucket), "rank {rank}, parameter {pi}");
        }
    }
}

#[test]
fn zero3_with_parameters_straddling_buckets_still_matches_ddp_bitwise() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    const RANKS: usize = 4;
    const STEPS: u64 = 3;
    let train = |zero3: bool| {
        let world = World::new(system_i());
        world.run_on(RANKS, |ctx| {
            let g = ctx.world_group(RANKS);
            let mut model = mlp();
            let batch = |s: u64| {
                let seed = 60 + s * RANKS as u64 + g.rank() as u64;
                let x = init::uniform([2, 16], -1.0, 1.0, &mut init::rng(seed));
                (x, [(s as usize + g.rank()) % 8, 3])
            };
            if zero3 {
                // 16-element buckets: every parameter but the last bias
                // straddles several and keeps storage of its own
                let mut opt = ZeroOptimizer::with_bucket_bytes(
                    ctx,
                    &g,
                    &mut model,
                    ZeroStage::Three,
                    0.01,
                    0.05,
                    64,
                );
                for s in 0..STEPS {
                    opt.materialize_params(&mut model);
                    let (x, t) = batch(s);
                    let (_, d) = cross_entropy(&model.forward(&x), &t);
                    let _ = model.backward(&d);
                    opt.step(&mut model);
                    opt.release_params(&mut model);
                }
                opt.materialize_params(&mut model);
                let mut values = Vec::new();
                model.visit_params(&mut |p| values.push(p.value().clone()));
                assert!(!values[0].shares_storage(&values[1]));
                flatten_params(&mut model).into_vec()
            } else {
                let mut reducer = GradReducer::data_parallel(&mut model, 64);
                let mut opt = AdamW::new(0.01, 0.05);
                for s in 0..STEPS {
                    model.zero_grad();
                    let (x, t) = batch(s);
                    let (_, d) = cross_entropy(&model.forward(&x), &t);
                    let _ = model.backward(&d);
                    reducer.reduce(ctx, &g, &mut model);
                    opt.step_layer(&mut model);
                }
                flatten_params(&mut model).into_vec()
            }
        })
    };
    let bits = |runs: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        let to_bits = |r: Vec<f32>| r.iter().map(|x| x.to_bits()).collect();
        runs.into_iter().map(to_bits).collect()
    };
    assert_eq!(bits(train(true)), bits(train(false)));
}

/// One bucketed gradient sync on 4 data-parallel ranks, 64-byte buckets,
/// either launched from inside the backward or after it; each rank's
/// flattened synced gradients.
fn bucket_sync_grads(overlapped: bool) -> Vec<Vec<f32>> {
    const RANKS: usize = 4;
    let world = World::new(system_i());
    world.run_on(RANKS, |ctx| {
        let g = ctx.world_group(RANKS);
        let mut model = mlp();
        let x = init::uniform([2, 16], -1.0, 1.0, &mut init::rng(60 + g.rank() as u64));
        let y = model.forward(&x);
        let dy = Tensor::ones(y.shape().clone());
        let mut reducer = GradReducer::data_parallel(&mut model, 64);
        if overlapped {
            let _ = reducer.backward_overlapped(ctx, &g, &mut model, &dy);
        } else {
            let _ = model.backward(&dy);
            reducer.reduce(ctx, &g, &mut model);
        }
        flatten_grads(&mut model).data().to_vec()
    })
}

#[test]
fn a_warm_bucketed_sync_is_served_from_the_pool_and_overlap_moves_no_bit() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let blocking = bucket_sync_grads(false);
    assert_eq!(
        blocking,
        bucket_sync_grads(true),
        "backward_overlapped == backward + reduce, bitwise"
    );
    // the two runs above parked the working set: from here on more than
    // 90 % of in-range requests must be served from parked buffers
    pool::reset_stats();
    for _ in 0..2 {
        assert_eq!(blocking, bucket_sync_grads(false));
        assert_eq!(blocking, bucket_sync_grads(true));
    }
    let stats = pool::stats();
    assert!(stats.hit_rate() > 0.9, "steady-state pool: {stats:?}");
}
