//! Scaling benchmark of the rank executor: one hybrid DP x TP x PP
//! training step at 64 -> 16384 simulated ranks, every rank a resumable
//! [`HybridTask`] state machine multiplexed onto a fixed worker pool (one
//! running slot per host core).
//!
//! The point being measured is the *executor*, not the arithmetic: as
//! `run_on` closures a 16384-rank world needs 16384 OS threads (stacks +
//! futexes the kernel pays for even while parked — EXPERIMENTS.md measured
//! them as the residual scaling term at 4096 ranks). Heap tasks keep rank
//! state on the heap: peak live OS threads equal the pool size at *any*
//! world size.
//!
//! Three derived columns make the scaling claim checkable:
//!
//! * **per-rank-step time** (`wall / (ranks * steps)`) must stay roughly
//!   flat from 64 to 16384 ranks (CI gates the ratio at <= 1.5x).
//! * **wakes/msg** (`World::wake_stats`) must stay ~1 at every size: one
//!   delivery wakes one parked task. O(world) here means the thundering
//!   herd is back.
//! * **peak thr** (`World::thread_stats`) must equal the pool, not the
//!   world size, gated at `pool + 4` in CI.
//!
//! At 64 ranks (a size where spawning one OS thread per rank is still
//! cheap) the same workload is re-run as `run_on` closures, and the
//! per-rank losses, traffic stats and trace span sequences are compared
//! bitwise with the task run: the parity contract of
//! `tests/world_backend_parity.rs`, here checked inside the shipped
//! artifact. The largest scale also prints the compacted min/med/max trace
//! rollup (per-rank rows elide at >= 64 ranks).
//!
//! `--json` prints one machine-readable object (used by the CI smoke):
//! `{"completed": .., "ranks_max": .., "backend_match_64": ..,
//!   "wall_ms_max": .., "pool": .., "peak_threads": ..,
//!   "wakeups_per_msg": .., "per_rank_step_ms_64": ..,
//!   "per_rank_step_ms_max": .., "per_rank_step_ratio": ..}`.

use colossalai_bench::print_table;
use colossalai_comm::workload::{run_hybrid, HybridSpec, HybridTask};
use colossalai_comm::{World, WorldBackend};
use colossalai_topology::systems::{
    fat_tree_1024, fat_tree_16384, fat_tree_4096, fat_tree_512, fat_tree_8192,
};
use colossalai_topology::Cluster;
use std::time::Instant;

const ELEMS: usize = 256;
const STEPS: usize = 2;
/// Passes over the whole scale sweep; each row's wall is the *median*
/// across passes. Interleaving the passes (rather than repeating each row
/// back-to-back) matters on shared hosts: slow drift in machine speed then
/// hits the 64-rank baseline and the 16384-rank row alike instead of
/// biasing their ratio. The baseline finishes in ~1 ms, so its single
/// samples are scheduler-noise; the median is robust to one slow outlier
/// pass *and* to one lucky pass — a per-row min pairs the luckiest 64-rank
/// sample with the luckiest 16k sample, which are rarely the same pass and
/// made the CI'd ratio gate itself noisy.
const REPS: usize = 5;

/// (dp, tp, pp) shapes per scale; tp stays within the 8-GPU NVLink node.
const SCALES: &[(usize, usize, usize)] = &[
    (2, 8, 4),
    (4, 8, 4),
    (4, 8, 8),
    (8, 8, 8),
    (16, 8, 8),
    (16, 8, 16),
    (32, 8, 16),
    (32, 8, 32),
    (32, 8, 64),
];

fn spec_for(dp: usize, tp: usize, pp: usize) -> HybridSpec {
    HybridSpec {
        dp,
        tp,
        pp,
        elems: ELEMS,
        steps: STEPS,
    }
}

fn cluster_for(ranks: usize) -> Cluster {
    if ranks <= 512 {
        fat_tree_512()
    } else if ranks <= 1024 {
        fat_tree_1024()
    } else if ranks <= 4096 {
        fat_tree_4096()
    } else if ranks <= 8192 {
        fat_tree_8192()
    } else {
        fat_tree_16384()
    }
}

/// One measured run: per-rank per-step losses, the world (for its stats
/// gauges), and wall seconds.
type Sample = (Vec<Vec<f32>>, World, f64);

/// Runs `spec` as heap tasks (`run_tasks`: no per-rank stack at all) or as
/// closures (`run_on`) and returns (losses, world, wall seconds).
fn run_once(spec: &HybridSpec, tasks: bool, traced: bool) -> Sample {
    let world = World::new(cluster_for(spec.ranks()));
    world.set_tracing(traced);
    let spec = *spec;
    let t0 = Instant::now();
    let losses = if tasks {
        world.run_tasks(spec.ranks(), move |_rank| HybridTask::new(spec))
    } else {
        world.run_on(spec.ranks(), |ctx| run_hybrid(ctx, &spec))
    };
    let dt = t0.elapsed().as_secs_f64();
    (losses, world, dt)
}

/// Median of the pass walls (sorts in place; odd `REPS` hits the true
/// middle element, even lengths average the two central ones).
fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(|a, b| a.total_cmp(b));
    let mid = walls.len() / 2;
    if walls.len() % 2 == 1 {
        walls[mid]
    } else {
        0.5 * (walls[mid - 1] + walls[mid])
    }
}

fn main() {
    let WorldBackend::Stackless { pool } = World::new(fat_tree_512()).backend();

    // warm up allocators/pools so the 64-rank reference row is not billed
    // for one-time process setup
    let _ = run_once(&spec_for(2, 8, 4), true, false);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut ranks_max = 0usize;
    let mut wall_ms_max = 0.0f64;
    let mut per_rank_step_ms_64 = 0.0f64;
    let mut per_rank_step_ms_max = 0.0f64;
    let mut wakeups_per_msg_worst = 0.0f64;
    let mut peak_threads_worst = 0u64;
    let mut completed = true;
    // Interleaved passes: every pass visits every scale once. Keep the
    // (deterministic) losses/world of the first pass per row and all walls;
    // the row's reported wall is the median wall across passes.
    let mut measured: Vec<Option<Sample>> = SCALES.iter().map(|_| None).collect();
    let mut walls: Vec<Vec<f64>> = SCALES.iter().map(|_| Vec::with_capacity(REPS)).collect();
    for _ in 0..REPS {
        for (i, &(dp, tp, pp)) in SCALES.iter().enumerate() {
            let spec = spec_for(dp, tp, pp);
            let (l, w, t) = run_once(&spec, true, false);
            walls[i].push(t);
            match &mut measured[i] {
                None => measured[i] = Some((l, w, t)),
                Some(b) => completed &= l == b.0,
            }
        }
    }
    for (i, &(dp, tp, pp)) in SCALES.iter().enumerate() {
        let spec = spec_for(dp, tp, pp);
        let ranks = spec.ranks();
        let (losses, world, _) = measured[i].take().expect("every scale ran");
        let dt = median(&mut walls[i]);
        let finite = losses.iter().flatten().all(|l| l.is_finite());
        completed &= finite && losses.len() == ranks;
        let checksum: f64 = losses.iter().flatten().map(|&l| l as f64).sum();
        let stats = world.stats();
        let wakes = world.wake_stats();
        let threads = world.thread_stats();
        let per_rank_step_ms = dt * 1e3 / (ranks * STEPS) as f64;
        if ranks_max == 0 {
            per_rank_step_ms_64 = per_rank_step_ms;
        }
        ranks_max = ranks_max.max(ranks);
        wall_ms_max = dt * 1e3;
        per_rank_step_ms_max = per_rank_step_ms;
        wakeups_per_msg_worst = wakeups_per_msg_worst.max(wakes.wakeups_per_msg());
        peak_threads_worst = peak_threads_worst.max(threads.peak_live);
        rows.push(vec![
            format!("{ranks}"),
            format!("{dp}x{tp}x{pp}"),
            world.cluster().name().to_string(),
            format!("{:.0}", dt * 1e3),
            format!("{:.3}", per_rank_step_ms),
            format!("{:.2}", wakes.wakeups_per_msg()),
            format!("{}", threads.peak_live),
            format!("{}", stats.ops),
            format!("{checksum:.6}"),
        ]);
    }

    // Closure-vs-task parity at 64 ranks, a size where one OS thread per
    // rank is still cheap: losses, stats and trace spans must match bit for
    // bit between the two rank forms.
    let spec64 = spec_for(2, 8, 4);
    let (l_tasks, w_tasks, _) = run_once(&spec64, true, true);
    let (l_closures, w_closures, _) = run_once(&spec64, false, true);
    let backend_match = l_tasks == l_closures
        && w_tasks.stats() == w_closures.stats()
        && w_tasks.trace() == w_closures.trace();

    let per_rank_step_ratio = if per_rank_step_ms_64 > 0.0 {
        per_rank_step_ms_max / per_rank_step_ms_64
    } else {
        f64::INFINITY
    };

    if std::env::args().any(|a| a == "--json") {
        println!(
            "{{\"completed\": {completed}, \"ranks_max\": {ranks_max}, \
             \"backend_match_64\": {backend_match}, \
             \"wall_ms_max\": {wall_ms_max:.1}, \"pool\": {pool}, \
             \"peak_threads\": {peak_threads_worst}, \
             \"wakeups_per_msg\": {wakeups_per_msg_worst:.3}, \
             \"per_rank_step_ms_64\": {per_rank_step_ms_64:.4}, \
             \"per_rank_step_ms_max\": {per_rank_step_ms_max:.4}, \
             \"per_rank_step_ratio\": {per_rank_step_ratio:.3}}}"
        );
        return;
    }

    print_table(
        &format!(
            "Rank executor scaling: hybrid DPxTPxPP step as heap tasks, {STEPS} steps x \
             {ELEMS} elems, worker pool = {pool} slots"
        ),
        &[
            "ranks",
            "dp x tp x pp",
            "cluster",
            "wall ms",
            "ms/rank-step",
            "wakes/msg",
            "peak thr",
            "coll ops",
            "loss checksum",
        ],
        &rows,
    );
    println!(
        "\nrank-form parity @ 64 ranks (run_on closures vs run_tasks): {}",
        if backend_match {
            "bitwise identical (losses, stats, trace)"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "per-rank-step growth 64 -> {ranks_max} ranks: {per_rank_step_ms_64:.3} ms -> \
         {per_rank_step_ms_max:.3} ms ({per_rank_step_ratio:.2}x), \
         peak OS threads {peak_threads_worst} (pool = {pool})"
    );

    // The compacted rollup of the largest run: at >= 64 ranks per-rank rows
    // elide into min/med/max (`World::trace_rollup` keeps every rank).
    let spec_max = {
        let &(dp, tp, pp) = SCALES.last().unwrap();
        spec_for(dp, tp, pp)
    };
    let (_, w_max, _) = run_once(&spec_max, true, true);
    println!("\n{}", w_max.rollup_table());
    println!(
        "Every rank above ran as a resumable heap task on {pool} worker \
         slots; peak OS threads stay O(pool) at any world size and results \
         are invariant to the pool size (World::set_backend) and to the \
         rank form (run_on closures vs run_tasks)."
    );
}
