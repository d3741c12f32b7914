//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root says
//! the same thing to the driver; `tests/smoke.rs` checks the two agree.
//!
//! Units: `ms`/`us`/`ns`/`s` are host wall or CPU time; `sim_ms`/`sim_us` are
//! virtual time of the modeled cluster, which repeats bit for bit and is
//! never a measurement of this host.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "dp_gemm",
        why: "Listing-1 engine path, 4-rank data parallel GPT: GEMM, fused ops and AdamW dominate host time; comm and executor do little",
    },
    WorkloadDef {
        name: "zero3_comm",
        why: "same GPT under ZeRO-3 on 8 ranks, 8 tokens per rank: all-gather/reduce-scatter data plane, pool and sharded AdamW dominate; GEMM is small",
    },
    WorkloadDef {
        name: "tp_modes",
        why: "1D/2D/2.5D/3D linear on 8 parked rank threads: many small sub-group collectives; rendezvous latency is a third of the step, tile GEMMs the rest",
    },
    WorkloadDef {
        name: "hybrid_4096",
        why: "4096 stackless ranks (DP32xTP8xPP16), 256-element tensors, no GEMM: the rank executor, mailboxes and storage pool do all the work",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_step",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit on one commit: `compare` holds it to equality.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 71] = [
    // the run itself
    host("driver.samples", "count", Higher),
    host("driver.step_ms_p50", "ms", Lower),
    host("driver.step_ms_p90", "ms", Lower),
    host("driver.iqr_frac", "ratio", Lower),
    host("driver.calib_ms", "ms", Lower),
    host("driver.calib_drift_pct", "%", Lower),
    host("driver.trace_overhead_pct", "%", Lower),
    // this host's bounds
    host("host.memcpy_gbs", "GB/s", Higher),
    host("host.fma_peak_gflops", "GFLOP/s", Higher),
    // the modeled cluster's step (virtual clock)
    exact("virtual.step_ms", "sim_ms", Lower),
    exact("virtual.compute_ms", "sim_ms", Lower),
    exact("virtual.comm_ms", "sim_ms", Lower),
    exact("virtual.overlap_ms", "sim_ms", Higher),
    exact("virtual.mem_ms", "sim_ms", Lower),
    exact("virtual.idle_ms", "sim_ms", Lower),
    // core::engine (dp_gemm)
    host("core.engine.forward_ms", "ms", Lower),
    host("core.engine.backward_ms", "ms", Lower),
    host("core.engine.step_ms", "ms", Lower),
    // tensor::kernel
    host("tensor.kernel.gemm_gflops", "GFLOP/s", Higher),
    host("tensor.kernel.gemm_peak_frac", "ratio", Higher),
    host("tensor.kernel.gemm_small_gflops", "GFLOP/s", Higher),
    exact("tensor.kernel.flops_per_step", "count", Lower),
    // tensor::ops
    host("tensor.ops.bias_gelu_gbs", "GB/s", Higher),
    host("tensor.ops.layernorm_gbs", "GB/s", Higher),
    host("tensor.ops.softmax_gbs", "GB/s", Higher),
    host("tensor.ops.cross_entropy_gbs", "GB/s", Higher),
    // autograd::optim
    host("autograd.optim.adamw_gbs", "GB/s", Higher),
    // tensor::pool
    host("tensor.pool.hit_rate", "ratio", Higher),
    host("tensor.pool.misses_per_step", "count", Lower),
    host("tensor.pool.recycled_mb_per_step", "MB", Lower),
    host("tensor.pool.pooled_hw_mb", "MB", Lower),
    host("tensor.pool.take_recycle_ns", "ns", Lower),
    // tensor::par
    host("tensor.par.jobs_per_step", "count", Higher),
    host("tensor.par.util", "ratio", Higher),
    host("tensor.par.contended_per_step", "count", Lower),
    // topology::cost
    host("topology.cost.select_ns", "ns", Lower),
    exact("topology.cost.allreduce_model_us", "sim_us", Lower),
    // comm::group
    exact("comm.group.ops_per_step", "count", Lower),
    exact("comm.group.mb_per_step", "MB", Lower),
    host("comm.group.allreduce_host_gbs", "GB/s", Higher),
    host("comm.group.allgather_host_gbs", "GB/s", Higher),
    host("comm.group.reduce_scatter_host_gbs", "GB/s", Higher),
    host("comm.group.broadcast_host_gbs", "GB/s", Higher),
    host("comm.group.small_allreduce_us", "us", Lower),
    // comm::world
    host("comm.world.rank_step_us", "us", Lower),
    host("comm.world.wakeups_per_msg", "ratio", Lower),
    host("comm.world.peak_threads", "count", Lower),
    host("comm.world.p2p_roundtrip_us", "us", Lower),
    host("comm.world.task_poll_ns", "ns", Lower),
    host("comm.world.new_ms", "ms", Lower),
    host("comm.world.spawn_ms", "ms", Lower),
    // comm::trace
    exact("comm.trace.spans_per_step", "count", Lower),
    // parallel::zero and parallel::bucket
    host("parallel.zero.materialize_ms", "ms", Lower),
    host("parallel.zero.step_ms", "ms", Lower),
    exact("parallel.bucket.buckets_per_step", "count", Lower),
    // parallel::tp* (tp_modes)
    host("parallel.tp1d.host_ms", "ms", Lower),
    host("parallel.tp2d.host_ms", "ms", Lower),
    host("parallel.tp25d.host_ms", "ms", Lower),
    host("parallel.tp3d.host_ms", "ms", Lower),
    exact("parallel.tp1d.virtual_ms", "sim_ms", Lower),
    exact("parallel.tp2d.virtual_ms", "sim_ms", Lower),
    exact("parallel.tp25d.virtual_ms", "sim_ms", Lower),
    exact("parallel.tp3d.virtual_ms", "sim_ms", Lower),
    // parallel::throughput closed forms against the paper
    exact(
        "parallel.throughput.fig11_sysII_2d_over_1d",
        "ratio",
        Higher,
    ),
    exact("parallel.throughput.table3_best_over_1d", "ratio", Higher),
    exact("parallel.throughput.fig13_sp_over_tp", "ratio", Higher),
    exact(
        "parallel.throughput.fig14_adaptive_over_static",
        "ratio",
        Higher,
    ),
    exact("parallel.throughput.paper_ratio_err", "ratio", Lower),
    // correctness of the virtual clock across segments and tracing
    exact("virtual.traced_equals_untraced", "count", Higher),
    host("driver.segments", "count", Higher),
    host("driver.disturbed_segments", "count", Lower),
];
