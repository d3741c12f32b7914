//! Property-based integration tests (seeded random cases) for the DESIGN.md invariants
//! that span crates: distributed-vs-serial equivalence for arbitrary
//! admissible shapes, collective algebra.

use colossalai::comm::World;
use colossalai::parallel::tp25d::{tile_x_25d, Grid25d, Linear25d};
use colossalai::parallel::tp2d::{assemble_tiles, tile_of, Grid2d, Linear2d};
use colossalai::parallel::tp3d::{tile_x_3d, tile_y_3d, Grid3d, Linear3d};
use colossalai::tensor::{init, Tensor};
use colossalai::topology::systems::system_i;
use colossalai_autograd::{Layer, Linear};
use rand::Rng;

#[test]
fn all_reduce_is_sum_any_shape() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let rows = draw.gen_range(1usize..5);
        let cols = draw.gen_range(1usize..5);
        let seed = draw.gen_range(0u64..1000);
        let world = World::new(system_i());
        let out = world.run_on(4, |ctx| {
            let g = ctx.world_group(4);
            let mut rng = init::rng(seed.wrapping_add(ctx.rank() as u64 * 101));
            let t = init::uniform([rows, cols], -1.0, 1.0, &mut rng);
            (t.clone(), g.all_reduce(ctx, t))
        });
        let mut want = Tensor::zeros([rows, cols]);
        for (input, _) in &out {
            want.axpy(1.0, input);
        }
        for (_, reduced) in &out {
            assert!(reduced.allclose(&want, 1e-5));
        }
    }
}

#[test]
fn reduce_scatter_then_gather_equals_all_reduce() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let chunks = draw.gen_range(1usize..4);
        let seed = draw.gen_range(0u64..1000);
        let p = 4;
        let n = chunks * p; // divisible length
        let world = World::new(system_i());
        let out = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut rng = init::rng(seed.wrapping_add(ctx.rank() as u64 * 37));
            let t = init::uniform([n], -1.0, 1.0, &mut rng);
            let ar = g.all_reduce(ctx, t.clone());
            let shard = g.reduce_scatter(ctx, t, 0);
            let rebuilt = g.all_gather_cat(ctx, shard, 0);
            (ar, rebuilt)
        });
        for (ar, rebuilt) in &out {
            assert_eq!(ar.data(), rebuilt.data());
        }
    }
}

#[test]
fn linear2d_equals_serial_random_shapes() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let mb = draw.gen_range(1usize..4);
        let kb = draw.gen_range(1usize..4);
        let nb = draw.gen_range(1usize..4);
        let seed = draw.gen_range(0u64..10_000);
        let j = 2;
        let (m, k, n) = (mb * j * 2, kb * j, nb * j);
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let dy = init::uniform([m, n], -1.0, 1.0, &mut rng);
        let mut serial = Linear::from_parts("s", w.clone(), None);
        let y_want = serial.forward(&x);
        let dx_want = serial.backward(&dy);

        let world = World::new(system_i());
        let results = world.run_on(j * j, |ctx| {
            let members: Vec<usize> = (0..j * j).collect();
            let grid = Grid2d::new(ctx, &members);
            let mut l = Linear2d::from_global(ctx, &grid, "l", &w, None);
            let y = l.forward(&tile_of(&x, j, grid.row, grid.col));
            let dx = l.backward(&tile_of(&dy, j, grid.row, grid.col));
            (y, dx)
        });
        let y_tiles: Vec<Tensor> = results.iter().map(|(y, _)| y.clone()).collect();
        let dx_tiles: Vec<Tensor> = results.iter().map(|(_, d)| d.clone()).collect();
        assert!(assemble_tiles(&y_tiles, j).allclose(&y_want, 1e-3));
        assert!(assemble_tiles(&dx_tiles, j).allclose(&dx_want, 1e-3));
    }
}

#[test]
fn linear25d_equals_serial_random_shapes() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let mb = draw.gen_range(1usize..3);
        let kb = draw.gen_range(1usize..3);
        let seed = draw.gen_range(0u64..10_000);
        let (j, d) = (2, 2);
        let p = j * j * d;
        let (m, k, n) = (mb * j * d * 2, kb * j, 4);
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let mut serial = Linear::from_parts("s", w.clone(), None);
        let y_want = serial.forward(&x);

        let world = World::new(system_i());
        let results = world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid25d::new(ctx, &members, d);
            let mut l = Linear25d::from_global(ctx, &grid, "l", &w, None);
            l.forward(&tile_x_25d(&x, &grid))
        });
        // reassemble depth-major
        let jj = j * j;
        let slices: Vec<Tensor> = (0..d)
            .map(|dep| assemble_tiles(&results[dep * jj..(dep + 1) * jj], j))
            .collect();
        assert!(Tensor::cat(&slices, 0).allclose(&y_want, 1e-3));
    }
}

#[test]
fn linear3d_equals_serial_random_shapes() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let mb = draw.gen_range(1usize..3);
        let kb = draw.gen_range(1usize..3);
        let nb = draw.gen_range(1usize..3);
        let seed = draw.gen_range(0u64..10_000);
        let l = 2;
        let p = l * l * l;
        let (m, k, n) = (mb * l * l, kb * l * l, nb * l);
        let mut rng = init::rng(seed);
        let w = init::lecun_normal(k, n, &mut rng);
        let x = init::uniform([m, k], -1.0, 1.0, &mut rng);
        let mut serial = Linear::from_parts("s", w.clone(), None);
        let y_want = serial.forward(&x);

        let world = World::new(system_i());
        world.run_on(p, |ctx| {
            let members: Vec<usize> = (0..p).collect();
            let grid = Grid3d::new(ctx, &members);
            let mut layer = Linear3d::from_global(ctx, &grid, "l", &w, None);
            let y = layer.forward(&tile_x_3d(&x, &grid));
            assert!(
                y.allclose(&tile_y_3d(&y_want, &grid), 1e-3),
                "3D tile mismatch"
            );
        });
    }
}

#[test]
fn pipeline_gradients_match_serial_for_random_configs() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let stages = draw.gen_range(2usize..5);
        let micros = draw.gen_range(1usize..6);
        let seed = draw.gen_range(0u64..1000);
        use colossalai::parallel::pipeline::{partition_layers, PipelineStage, Schedule};
        use colossalai_autograd::Sequential;

        let n_layers = 5; // >= max stages
        let build_all = |seed: u64| -> Vec<Box<dyn Layer>> {
            let mut rng = init::rng(seed);
            (0..n_layers)
                .map(|i| {
                    Box::new(Linear::from_rng(&format!("l{i}"), 4, 4, true, &mut rng))
                        as Box<dyn Layer>
                })
                .collect()
        };
        let micros_data: Vec<Tensor> = {
            let mut rng = init::rng(seed ^ 0xabc);
            (0..micros)
                .map(|_| init::uniform([2, 4], -1.0, 1.0, &mut rng))
                .collect()
        };

        // serial reference: accumulate grads over all micro-batches with a
        // quadratic objective (dL/dy = y)
        let mut serial = Sequential::new(build_all(seed));
        for x in &micros_data {
            let y = serial.forward(x);
            let _ = serial.backward(&y);
        }
        let mut want = Vec::new();
        serial.visit_params(&mut |p| want.push(p.grad().clone()));

        let world = World::new(system_i());
        let micros_data2 = micros_data.clone();
        let results = world.run_on(stages, |ctx| {
            let devices: Vec<usize> = (0..stages).collect();
            let mut all = build_all(seed);
            let parts = partition_layers(all.len(), stages);
            let (start, end) = parts[ctx.rank()];
            let mut tail = all.split_off(start);
            let _ = tail.split_off(end - start);
            let mut stage = PipelineStage::new(ctx, &devices, Sequential::new(tail));
            let mut lf = |_: u64, out: &Tensor| (0.0f32, out.clone());
            let _ = stage.run_step(
                if seed % 2 == 0 {
                    Schedule::GPipe
                } else {
                    Schedule::OneFOneB
                },
                stage.is_first().then_some(&micros_data2[..]),
                stage
                    .is_last()
                    .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
                micros,
            );
            let mut grads = Vec::new();
            stage.visit_params(&mut |p| grads.push(p.grad().clone()));
            grads
        });
        let got: Vec<Tensor> = results.into_iter().flatten().collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(g.allclose(w, 1e-4), "grad diff {}", g.max_abs_diff(w));
        }
    }
}

#[test]
fn zero_stages_bitwise_equal_ddp_for_random_models() {
    for case in 0..12 {
        let mut draw = init::rng(case);
        let d_in = draw.gen_range(2usize..6);
        let d_mid = draw.gen_range(2usize..8);
        let steps = draw.gen_range(1usize..4);
        let seed = draw.gen_range(0u64..1000);
        let stage_sel = draw.gen_range(0u32..3) as u8;
        use colossalai::parallel::data_parallel::{flatten_params, split_batch};
        use colossalai::parallel::zero::{ZeroOptimizer, ZeroStage};
        use colossalai::parallel::{GradReducer, DEFAULT_BUCKET_BYTES};
        use colossalai_autograd::{AdamW, Sequential};

        let p = 2;
        let make_model = |seed: u64| -> Sequential {
            let mut rng = init::rng(seed);
            Sequential::new(vec![
                Box::new(Linear::from_rng("a", d_in, d_mid, true, &mut rng)),
                Box::new(Linear::from_rng("b", d_mid, 3, true, &mut rng)),
            ])
        };
        let batches: Vec<Tensor> = {
            let mut rng = init::rng(seed ^ 0x77);
            (0..steps)
                .map(|_| init::uniform([2 * p, d_in], -1.0, 1.0, &mut rng))
                .collect()
        };

        // DDP baseline
        let world = World::new(system_i());
        let batches2 = batches.clone();
        let mut ddp = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(seed);
            let mut reducer = GradReducer::data_parallel(&mut model, DEFAULT_BUCKET_BYTES);
            let mut opt = AdamW::new(0.01, 0.01);
            for x in &batches2 {
                model.zero_grad();
                let x_local = split_batch(x, p, g.rank());
                let y = model.forward(&x_local);
                // quadratic objective; the reducer leaves the mean gradient
                // in the model (ZeRO's mean semantics), so step directly
                let _ = model.backward(&y);
                reducer.reduce(ctx, Some(&g), &mut model);
                opt.step_layer(&mut model);
            }
            flatten_params(&mut model)
        });
        let want = ddp.swap_remove(0);

        let stage = match stage_sel {
            0 => ZeroStage::One,
            1 => ZeroStage::Two,
            _ => ZeroStage::Three,
        };
        let world = World::new(system_i());
        let batches3 = batches.clone();
        let mut zero = world.run_on(p, |ctx| {
            let g = ctx.world_group(p);
            let mut model = make_model(seed);
            let mut opt = ZeroOptimizer::new(ctx, &g, &mut model, stage, 0.01, 0.01);
            for x in &batches3 {
                if stage == ZeroStage::Three {
                    opt.materialize_params(&mut model);
                }
                let x_local = split_batch(x, p, g.rank());
                let y = model.forward(&x_local);
                let _ = model.backward(&y);
                opt.step(&mut model);
            }
            if stage == ZeroStage::Three {
                opt.materialize_params(&mut model);
            }
            flatten_params(&mut model)
        });
        let got = zero.swap_remove(0);
        assert_eq!(got.data(), want.data());
    }
}
