//! Layer probes: each replays one layer's public functions at the shapes,
//! group size and backend of the workload being measured, from outside the
//! library, and reports a rate that can be placed against this host's
//! measured copy bandwidth and multiply-add peak. Probes run after the
//! measured and traced segments, in the same process.

use crate::measure::{median, time_per_call, SplitMix};
use crate::workloads::{ProbeShape, Workload};
use colossalai_autograd::optim::adamw_update;
use colossalai_comm::{
    CollectiveOp, DeviceCtx, Group, Poll, RankTask, RecvOp, World, WorldBackend,
};
use colossalai_tensor::matmul::{matmul, matmul_flops};
use colossalai_tensor::{ops, pool, Tensor};
use colossalai_topology::cost::{allreduce_time_with, select_allreduce_algo};
use colossalai_topology::Cluster;
use std::hint::black_box;
use std::time::Instant;

/// Seconds each probe may measure for.
const BUDGET_S: f64 = 0.08;

fn random_tensor(gen: &mut SplitMix, dims: &[usize]) -> Tensor {
    Tensor::from_vec(dims.to_vec(), gen.units(dims.iter().product()))
}

/// Bytes per second of a large `copy_from_slice`, in GB/s: the bound the
/// element-wise kernels and the collective data plane are placed against.
fn memcpy_gbs() -> f64 {
    const ELEMS: usize = 4 << 20;
    let src = vec![1.0f32; ELEMS];
    let mut dst = vec![0.0f32; ELEMS];
    let t = time_per_call(BUDGET_S, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (ELEMS * 4) as f64 / t / 1e9
}

const LANES: usize = 8;
const CHAINS: usize = 10;
const PEAK_ITERS: usize = 1 << 16;

/// `CHAINS` independent multiply-then-add chains over `LANES`-wide vectors:
/// the fallback peak for a CPU without FMA.
fn multiply_add_chains() -> f32 {
    let mut acc = [[1.0f32; LANES]; CHAINS];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..PEAK_ITERS {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * a + b;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// The same chains as 256-bit fused multiply-adds: ten independent
/// accumulators cover the latency of two FMA pipes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fused_multiply_add_chains() -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..PEAK_ITERS {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut lanes = [0.0f32; LANES];
    let mut total = 0.0;
    for x in acc {
        // SAFETY: `lanes` is eight f32 wide, the width of one 256-bit store,
        // and the unaligned store has no alignment requirement.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), x) };
        total += lanes.iter().sum::<f32>();
    }
    total
}

/// One core's measured multiply-add rate in GFLOP/s (2 FLOPs per lane per
/// link of a chain), with hardware FMA when the CPU has it.
fn fma_peak_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    let fma = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let fma = false;
    let t = time_per_call(BUDGET_S, || {
        #[cfg(target_arch = "x86_64")]
        if fma {
            // SAFETY: `fma` is true only when the running CPU reports both
            // AVX2 and FMA, the features the callee is compiled for.
            black_box(unsafe { fused_multiply_add_chains() });
            return;
        }
        black_box(multiply_add_chains());
    });
    (2 * LANES * CHAINS * PEAK_ITERS) as f64 / t / 1e9
}

fn gemm_gflops(gen: &mut SplitMix, (m, k, n): (usize, usize, usize)) -> f64 {
    let a = random_tensor(gen, &[m, k]);
    let b = random_tensor(gen, &[k, n]);
    let t = time_per_call(BUDGET_S, || {
        black_box(matmul(black_box(&a), black_box(&b)));
    });
    matmul_flops(m, k, n) as f64 / t / 1e9
}

/// GB/s over the bytes an op must read and write at least once.
fn gbs(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

fn fused_ops(gen: &mut SplitMix, shape: &ProbeShape, out: &mut Vec<(&'static str, f64)>) {
    let (rows, width) = (shape.rows, shape.width);
    let wide = random_tensor(gen, &[rows, 4 * width]);
    let bias = random_tensor(gen, &[4 * width]);
    let t = time_per_call(BUDGET_S, || {
        black_box(ops::add_bias_gelu(wide.clone(), &bias));
    });
    // reads x, writes h and y
    out.push(("tensor.ops.bias_gelu_gbs", gbs(3 * wide.numel() * 4, t)));

    let x = random_tensor(gen, &[rows, width]);
    let gamma = Tensor::ones([width]);
    let beta = Tensor::zeros([width]);
    let t = time_per_call(BUDGET_S, || {
        black_box(ops::layernorm(&x, &gamma, &beta, 1e-5));
    });
    out.push(("tensor.ops.layernorm_gbs", gbs(2 * x.numel() * 4, t)));

    let t = time_per_call(BUDGET_S, || {
        black_box(ops::softmax(&x));
    });
    out.push(("tensor.ops.softmax_gbs", gbs(2 * x.numel() * 4, t)));

    let logits = random_tensor(gen, &[rows, shape.vocab]);
    let targets: Vec<usize> = (0..rows).map(|_| gen.below(shape.vocab)).collect();
    let t = time_per_call(BUDGET_S, || {
        black_box(ops::cross_entropy(&logits, &targets));
    });
    out.push((
        "tensor.ops.cross_entropy_gbs",
        gbs(2 * logits.numel() * 4, t),
    ));
}

fn adamw_gbs(gen: &mut SplitMix, n: usize) -> f64 {
    let mut param = gen.units(n);
    let grad = gen.units(n);
    let (mut m, mut v) = (vec![0.0f32; n], vec![0.0f32; n]);
    let mut step = 0u64;
    let t = time_per_call(BUDGET_S, || {
        step += 1;
        adamw_update(
            &mut param, &grad, &mut m, &mut v, step, 1e-3, 0.9, 0.999, 1e-8, 0.01,
        );
    });
    // reads param, grad, m, v and writes param, m, v
    gbs(7 * n * 4, t)
}

fn pool_take_recycle_ns(elems: usize) -> f64 {
    time_per_call(BUDGET_S, || {
        let mut buf = pool::take_buffer(elems);
        buf.push(1.0);
        pool::recycle(black_box(buf));
    }) * 1e9
}

/// Which collective a group probe repeats.
#[derive(Clone, Copy)]
enum Collective {
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
}

impl Collective {
    /// Elements of this rank's input so every collective moves a message of
    /// `message` elements per rank through the data plane.
    fn input_elems(self, message: usize, group: usize) -> usize {
        match self {
            // the gathered result is the message
            Collective::AllGather => message.div_ceil(group),
            // the input splits into one shard per rank
            Collective::ReduceScatter => message.next_multiple_of(group),
            Collective::AllReduce | Collective::Broadcast => message,
        }
    }

    fn blocking(self, g: &Group, ctx: &DeviceCtx, t: Tensor) -> Tensor {
        match self {
            Collective::AllReduce => g.all_reduce(ctx, t),
            Collective::AllGather => g.all_gather_cat(ctx, t, 0),
            Collective::ReduceScatter => g.reduce_scatter(ctx, t, 0),
            Collective::Broadcast => g.broadcast(ctx, t, 0),
        }
    }

    /// Whether the library offers a resumable form a stackless task can poll.
    fn resumable(self) -> bool {
        matches!(self, Collective::AllReduce | Collective::AllGather)
    }

    fn start(self, g: &Group, t: Tensor) -> CollectiveOp {
        match self {
            Collective::AllReduce => g.start_all_reduce(t),
            Collective::AllGather => g.start_all_gather_cat(t, 0),
            Collective::ReduceScatter | Collective::Broadcast => {
                unreachable!("guarded by `resumable`")
            }
        }
    }
}

/// `iters` back-to-back collectives as a stackless rank task; the output is
/// this rank's wall seconds from first poll to completion.
struct CollectiveLoop {
    kind: Collective,
    payload: Tensor,
    ranks: usize,
    left: usize,
    group: Option<Group>,
    op: Option<CollectiveOp>,
    started: Option<Instant>,
}

impl RankTask for CollectiveLoop {
    type Output = f64;

    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<f64> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let group = self
            .group
            .get_or_insert_with(|| ctx.world_group(self.ranks));
        while self.left > 0 {
            let op = self
                .op
                .get_or_insert_with(|| self.kind.start(group, self.payload.clone()));
            match group.poll_collective(ctx, op) {
                Poll::Pending(key) => return Poll::Pending(key),
                Poll::Ready(out) => {
                    black_box(out);
                    self.op = None;
                    self.left -= 1;
                }
            }
        }
        Poll::Ready(started.elapsed().as_secs_f64())
    }
}

/// Rank 0's wall seconds for `iters` collectives of `kind` in a fresh world.
fn collective_wall(
    cluster: &Cluster,
    shape: &ProbeShape,
    kind: Collective,
    elems: usize,
    iters: usize,
) -> f64 {
    let world = World::new(cluster.clone());
    let ranks = shape.group;
    let payload = Tensor::full([elems], 1.0);
    let walls = if shape.stackless {
        world.set_backend(Some(WorldBackend::Stackless { pool: 0 }));
        world.run_tasks(ranks, |_| CollectiveLoop {
            kind,
            payload: payload.clone(),
            ranks,
            left: iters,
            group: None,
            op: None,
            started: None,
        })
    } else {
        world.run_on(ranks, |ctx| {
            let g = ctx.world_group(ranks);
            let t = Instant::now();
            for _ in 0..iters {
                black_box(kind.blocking(&g, ctx, payload.clone()));
            }
            t.elapsed().as_secs_f64()
        })
    };
    walls[0]
}

/// Seconds per collective: a short pilot sizes the measured loop so it lasts
/// about the probe budget, whatever the message size.
fn collective_seconds(
    cluster: &Cluster,
    shape: &ProbeShape,
    kind: Collective,
    message: usize,
) -> Option<f64> {
    if shape.stackless && !kind.resumable() {
        return None;
    }
    let elems = kind.input_elems(message, shape.group);
    let pilot = collective_wall(cluster, shape, kind, elems, 4) / 4.0;
    let iters = ((BUDGET_S / pilot.max(1e-9)) as usize).clamp(8, 20_000);
    Some(collective_wall(cluster, shape, kind, elems, iters) / iters as f64)
}

/// Ping-pong between ranks 0 and 1 as closures on the default backend:
/// seconds per round trip.
fn p2p_roundtrip_seconds(cluster: &Cluster) -> f64 {
    const ROUNDS: u64 = 2000;
    let world = World::new(cluster.clone());
    let walls = world.run_on(2, |ctx| {
        let peer = 1 - ctx.rank();
        let ball = Tensor::scalar(1.0);
        let t = Instant::now();
        for round in 0..ROUNDS {
            if ctx.rank() == 0 {
                ctx.send(peer, round, ball.clone());
                black_box(ctx.recv(peer, round));
            } else {
                black_box(ctx.recv(peer, round));
                ctx.send(peer, round, ball.clone());
            }
        }
        t.elapsed().as_secs_f64()
    });
    walls[0] / ROUNDS as f64
}

/// The same ping-pong as a stackless task: what one message costs the
/// executor (send, park, wake, poll).
struct PingPong {
    rounds: u64,
    round: u64,
    waiting: Option<RecvOp>,
    started: Option<Instant>,
}

impl RankTask for PingPong {
    type Output = f64;

    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<f64> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let peer = 1 - ctx.rank();
        while self.round < self.rounds {
            if self.waiting.is_none() {
                if ctx.rank() == 0 {
                    ctx.send(peer, self.round, Tensor::scalar(1.0));
                }
                self.waiting = Some(ctx.start_recv(peer, self.round));
            }
            match self.waiting.as_mut().expect("set above").poll(ctx) {
                Poll::Pending(key) => return Poll::Pending(key),
                Poll::Ready(ball) => {
                    if ctx.rank() == 1 {
                        ctx.send(peer, self.round, ball);
                    }
                    self.waiting = None;
                    self.round += 1;
                }
            }
        }
        Poll::Ready(started.elapsed().as_secs_f64())
    }
}

fn task_message_seconds(cluster: &Cluster) -> f64 {
    const ROUNDS: u64 = 5000;
    let world = World::new(cluster.clone());
    world.set_backend(Some(WorldBackend::Stackless { pool: 0 }));
    let walls = world.run_tasks(2, |_| PingPong {
        rounds: ROUNDS,
        round: 0,
        waiting: None,
        started: None,
    });
    walls[0] / (2 * ROUNDS) as f64
}

/// A rank that does nothing: what is left is what the world charges to
/// start and collect `ranks` of them.
struct Idle;

impl RankTask for Idle {
    type Output = ();

    fn poll(&mut self, _ctx: &DeviceCtx) -> Poll<()> {
        Poll::Ready(())
    }
}

fn world_new_and_spawn_ms(w: &dyn Workload, stackless: bool) -> (f64, f64) {
    let (mut news, mut spawns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let world = World::new(w.cluster());
        news.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        if stackless {
            world.set_backend(Some(WorldBackend::Stackless { pool: 0 }));
            world.run_tasks(w.ranks(), |_| Idle);
        } else {
            world.run_on(w.ranks(), |_| ());
        }
        spawns.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&news), median(&spawns))
}

/// Every probe metric for `w`, by name.
pub fn run(w: &dyn Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let shape = w.probe_shape();
    let cluster = w.cluster();
    let mut gen = SplitMix::new(seed ^ 0x51_7cc1);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let memcpy = memcpy_gbs();
    let peak = fma_peak_gflops();
    out.push(("host.memcpy_gbs", memcpy));
    out.push(("host.fma_peak_gflops", peak));

    let gemm = shape.gemm.map_or(0.0, |dims| gemm_gflops(&mut gen, dims));
    out.push(("tensor.kernel.gemm_gflops", gemm));
    out.push(("tensor.kernel.gemm_peak_frac", gemm / peak));
    out.push((
        "tensor.kernel.gemm_small_gflops",
        gemm_gflops(&mut gen, (64, 64, 64)),
    ));
    out.push(("tensor.kernel.flops_per_step", shape.flops_per_step as f64));
    fused_ops(&mut gen, &shape, &mut out);
    out.push((
        "autograd.optim.adamw_gbs",
        adamw_gbs(&mut gen, shape.optim_params),
    ));
    out.push((
        "tensor.pool.take_recycle_ns",
        pool_take_recycle_ns(shape.message_elems),
    ));

    let members: Vec<usize> = (0..shape.group).collect();
    let bytes = (shape.message_elems * 4) as u64;
    let select = time_per_call(BUDGET_S, || {
        black_box(select_allreduce_algo(&cluster, black_box(&members), bytes));
    });
    out.push(("topology.cost.select_ns", select * 1e9));
    let algo = select_allreduce_algo(&cluster, &members, bytes);
    out.push((
        "topology.cost.allreduce_model_us",
        allreduce_time_with(algo, &cluster, &members, bytes) * 1e6,
    ));

    for (name, kind) in [
        ("comm.group.allreduce_host_gbs", Collective::AllReduce),
        ("comm.group.allgather_host_gbs", Collective::AllGather),
        (
            "comm.group.reduce_scatter_host_gbs",
            Collective::ReduceScatter,
        ),
        ("comm.group.broadcast_host_gbs", Collective::Broadcast),
    ] {
        // payload bytes x ranks / wall: what the data plane moved for the
        // group per second of host time
        let rate = collective_seconds(&cluster, &shape, kind, shape.message_elems)
            .map_or(0.0, |t| gbs(shape.message_elems * 4 * shape.group, t));
        out.push((name, rate));
    }
    let scalar = collective_seconds(&cluster, &shape, Collective::AllReduce, 1)
        .expect("all-reduce has a resumable form");
    out.push(("comm.group.small_allreduce_us", scalar * 1e6));

    out.push((
        "comm.world.p2p_roundtrip_us",
        p2p_roundtrip_seconds(&cluster) * 1e6,
    ));
    out.push((
        "comm.world.task_poll_ns",
        task_message_seconds(&cluster) * 1e9,
    ));
    let (new_ms, spawn_ms) = world_new_and_spawn_ms(w, shape.stackless);
    out.push(("comm.world.new_ms", new_ms));
    out.push(("comm.world.spawn_ms", spawn_ms));
    out
}
