//! Heterogeneous-training placement policies (Section 3.2 / Fig 14).
//!
//! Models where ZeRO-3 model data lives during mixed-precision training:
//!
//! * **StaticCpu** — DeepSpeed's zero-offload policy: all model data (fp16
//!   parameters, fp16 gradients, fp32 master weights and Adam moments) is
//!   kept in CPU memory regardless of GPU headroom, and the optimizer runs
//!   entirely on the CPU.
//! * **Adaptive** — Colossal-AI's policy: model data stays GPU-resident as
//!   long as there is headroom after the working set (activations + compute
//!   scratch); only the overflow is offloaded, and parameters are updated on
//!   both CPU and GPU ("hybrid Adam").
//!
//! The planner returns per-step transfer volumes; combined with the PCIe
//! link model this yields the throughput gap of Fig 14.

use colossalai_comm::{DeviceCtx, SpanKind};
use colossalai_topology::{HostSpec, Link};

/// FLOPs an Adam update spends per parameter (two moments + update math).
pub const ADAM_FLOPS_PER_PARAM: u64 = 16;

/// Offload placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// DeepSpeed zero-offload: everything on the CPU, always.
    StaticCpu,
    /// Colossal-AI: fill available GPU memory first.
    Adaptive,
}

/// Byte layout of ZeRO-3 model data on one device for `n_params` total
/// parameters sharded over `dp_degree` data-parallel ranks.
#[derive(Clone, Copy, Debug)]
pub struct ModelData {
    pub n_params: u64,
    pub dp_degree: u64,
}

impl ModelData {
    /// FP16 parameter shard (gradient storage is the same allocation thanks
    /// to Fig 6 reuse).
    pub fn fp16_shard_bytes(&self) -> u64 {
        2 * self.n_params / self.dp_degree
    }

    /// FP32 master weights + Adam m + Adam v shard.
    pub fn optimizer_shard_bytes(&self) -> u64 {
        12 * self.n_params / self.dp_degree
    }

    /// Parameters owned (updated) by one rank.
    pub fn params_per_rank(&self) -> u64 {
        self.n_params / self.dp_degree
    }
}

/// The planner's decision for one training step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffloadPlan {
    /// Fraction of the fp16 parameter shard resident on the GPU.
    pub param_gpu_fraction: f64,
    /// Fraction of the optimizer-state shard resident on the GPU.
    pub opt_gpu_fraction: f64,
    /// Model-data bytes resident on the GPU.
    pub gpu_model_bytes: u64,
    /// Model-data bytes resident in CPU DRAM.
    pub cpu_model_bytes: u64,
    /// Host-to-device bytes transferred per training step.
    pub h2d_per_step: u64,
    /// Device-to-host bytes transferred per training step.
    pub d2h_per_step: u64,
    /// Parameters updated by the CPU Adam per step.
    pub cpu_adam_params: u64,
    /// Parameters updated by the GPU Adam per step.
    pub gpu_adam_params: u64,
}

/// Plans placement for one device.
///
/// `gpu_capacity` is the device memory; `working_bytes` is the activation +
/// scratch footprint of one step at the chosen batch size, which model data
/// must not displace.
pub fn plan(
    policy: PlacementPolicy,
    model: ModelData,
    gpu_capacity: u64,
    working_bytes: u64,
) -> OffloadPlan {
    let fp16 = model.fp16_shard_bytes();
    let opt = model.optimizer_shard_bytes();
    let headroom = match policy {
        PlacementPolicy::StaticCpu => 0,
        PlacementPolicy::Adaptive => gpu_capacity.saturating_sub(working_bytes),
    };
    // Priority 1: fp16 params (touched twice per step by fwd+bwd).
    let param_resident = headroom.min(fp16);
    let f = if fp16 == 0 {
        1.0
    } else {
        param_resident as f64 / fp16 as f64
    };
    // Priority 2: optimizer states with what remains.
    let opt_resident = (headroom - param_resident).min(opt);
    let g = if opt == 0 {
        1.0
    } else {
        opt_resident as f64 / opt as f64
    };

    // Non-resident params are streamed in for forward and again for
    // backward; resident-but-CPU-updated params must be refreshed from the
    // CPU master copy after the step.
    let fetch = (2.0 * (1.0 - f) * fp16 as f64) as u64;
    let refresh = ((f - g).max(0.0) * fp16 as f64) as u64;
    // Gradients owned by the CPU optimizer portion leave the device.
    let grads_out = ((1.0 - g) * fp16 as f64) as u64;

    let params = model.params_per_rank();
    let cpu_params = ((1.0 - g) * params as f64) as u64;
    OffloadPlan {
        param_gpu_fraction: f,
        opt_gpu_fraction: g,
        gpu_model_bytes: param_resident + opt_resident,
        cpu_model_bytes: (fp16 - param_resident) + (opt - opt_resident),
        h2d_per_step: fetch + refresh,
        d2h_per_step: grads_out,
        cpu_adam_params: cpu_params,
        gpu_adam_params: params - cpu_params,
    }
}

impl OffloadPlan {
    /// The timed legs of one step's offload overhead, in the order they are
    /// charged: the two PCIe directions as memory movement, then the CPU
    /// share of the Adam update as compute. A leg that moves nothing is
    /// absent.
    fn legs(&self, pcie: Link, host: &HostSpec) -> impl Iterator<Item = (f64, SpanKind)> {
        let pcie_leg = |bytes: u64, from: &'static str, to: &'static str| {
            let span = SpanKind::MemMove { bytes, from, to };
            (bytes > 0).then(|| (pcie.transfer_time(bytes), span))
        };
        let cpu_adam = (self.cpu_adam_params > 0).then(|| {
            let label = "cpu_adam".to_string();
            let flops = (self.cpu_adam_params * ADAM_FLOPS_PER_PARAM) as f64;
            (flops / host.cpu_flops, SpanKind::Compute { label })
        });
        let h2d = pcie_leg(self.h2d_per_step, "cpu", "gpu");
        let d2h = pcie_leg(self.d2h_per_step, "gpu", "cpu");
        [h2d, d2h, cpu_adam].into_iter().flatten()
    }

    /// Per-step overhead seconds attributable to offloading: PCIe traffic
    /// plus the CPU share of the Adam update. (GPU Adam time is charged by
    /// the training engine as ordinary device compute.)
    pub fn overhead_seconds(&self, pcie: Link, host: &HostSpec) -> f64 {
        self.legs(pcie, host).fold(0.0, |t, (dt, _)| t + dt)
    }

    /// Charges one step's offload overhead to `ctx`'s virtual clock leg by
    /// leg, recording a memory-movement span per PCIe leg and a compute
    /// span for the CPU share of the Adam update (when tracing is on).
    /// Returns the seconds charged, equal to
    /// [`OffloadPlan::overhead_seconds`].
    pub fn charge_step(&self, ctx: &DeviceCtx, pcie: Link, host: &HostSpec) -> f64 {
        self.legs(pcie, host).fold(0.0, |t, (dt, span)| {
            let start = ctx.clock();
            ctx.advance(dt);
            if ctx.tracing() {
                ctx.trace_span(span, start);
            }
            t + dt
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn gpt2_10b_on(dp: u64) -> ModelData {
        ModelData {
            n_params: 10_000_000_000,
            dp_degree: dp,
        }
    }

    #[test]
    fn shard_sizes_scale_with_dp() {
        let m1 = gpt2_10b_on(1);
        let m8 = gpt2_10b_on(8);
        assert_eq!(m1.fp16_shard_bytes(), 20_000_000_000);
        assert_eq!(m8.fp16_shard_bytes(), 2_500_000_000);
        assert_eq!(m1.optimizer_shard_bytes(), 120_000_000_000);
    }

    #[test]
    fn static_policy_keeps_nothing_on_gpu() {
        let p = plan(
            PlacementPolicy::StaticCpu,
            gpt2_10b_on(8),
            80 * GIB,
            10 * GIB,
        );
        assert_eq!(p.gpu_model_bytes, 0);
        assert_eq!(p.param_gpu_fraction, 0.0);
        // every param streamed twice, every grad offloaded
        assert_eq!(p.h2d_per_step, 2 * gpt2_10b_on(8).fp16_shard_bytes());
        assert_eq!(p.d2h_per_step, gpt2_10b_on(8).fp16_shard_bytes());
        assert_eq!(p.cpu_adam_params, gpt2_10b_on(8).params_per_rank());
        assert_eq!(p.gpu_adam_params, 0);
    }

    #[test]
    fn adaptive_with_ample_headroom_keeps_params_resident() {
        // 8-way DP of 10B params: fp16 shard 2.5 GB, opt shard 15 GB;
        // 80 GB GPU with a small batch leaves plenty of room for both.
        let p = plan(
            PlacementPolicy::Adaptive,
            gpt2_10b_on(8),
            80 * GIB,
            10 * GIB,
        );
        assert_eq!(p.param_gpu_fraction, 1.0);
        assert_eq!(p.opt_gpu_fraction, 1.0);
        assert_eq!(p.h2d_per_step, 0);
        assert_eq!(p.d2h_per_step, 0);
        assert_eq!(p.cpu_adam_params, 0);
    }

    #[test]
    fn adaptive_with_tight_memory_offloads_partially() {
        // single GPU, 10B params: fp16 20 GB fits in an 80 GB GPU minus a
        // 10 GB working set, but the 120 GB optimizer shard only partially.
        let p = plan(
            PlacementPolicy::Adaptive,
            gpt2_10b_on(1),
            80 * GIB,
            10 * GIB,
        );
        assert_eq!(p.param_gpu_fraction, 1.0);
        assert!(
            p.opt_gpu_fraction > 0.3 && p.opt_gpu_fraction < 0.7,
            "g = {}",
            p.opt_gpu_fraction
        );
        assert!(
            p.cpu_adam_params > 0 && p.gpu_adam_params > 0,
            "hybrid update"
        );
        assert!(p.h2d_per_step > 0, "cpu-updated params need refresh");
    }

    #[test]
    fn adaptive_strictly_cheaper_than_static() {
        for dp in [1u64, 2, 4, 8] {
            let model = gpt2_10b_on(dp);
            let s = plan(PlacementPolicy::StaticCpu, model, 80 * GIB, 10 * GIB);
            let a = plan(PlacementPolicy::Adaptive, model, 80 * GIB, 10 * GIB);
            let host = HostSpec::dgx();
            let ts = s.overhead_seconds(Link::pcie(), &host);
            let ta = a.overhead_seconds(Link::pcie(), &host);
            assert!(ta < ts, "dp={dp}: adaptive {ta} !< static {ts}");
        }
    }

    #[test]
    fn adaptive_converges_to_static_when_no_headroom() {
        let model = gpt2_10b_on(8);
        let s = plan(PlacementPolicy::StaticCpu, model, 80 * GIB, 10 * GIB);
        let a = plan(PlacementPolicy::Adaptive, model, 80 * GIB, 80 * GIB);
        assert_eq!(a.h2d_per_step, s.h2d_per_step);
        assert_eq!(a.d2h_per_step, s.d2h_per_step);
        assert_eq!(a.cpu_adam_params, s.cpu_adam_params);
    }

    #[test]
    fn charge_step_advances_clock_by_overhead() {
        use colossalai_comm::{SpanKind, World};
        use colossalai_topology::systems::system_i;
        let model = gpt2_10b_on(1);
        let host = HostSpec::dgx();
        let p = plan(PlacementPolicy::Adaptive, model, 80 * GIB, 10 * GIB);
        let want = p.overhead_seconds(Link::pcie(), &host);
        assert!(want > 0.0);
        let world = World::new(system_i());
        world.set_tracing(true);
        let clocks = world.run_on(1, |ctx| {
            let charged = p.charge_step(ctx, Link::pcie(), &host);
            (charged, ctx.clock())
        });
        let (charged, clock) = clocks[0];
        assert!((charged - want).abs() < 1e-12);
        assert!((clock - want).abs() < 1e-12);
        let spans = world.trace();
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.kind, SpanKind::MemMove { .. })),
            "PCIe legs must trace as memory movement"
        );
        assert!(
            spans
                .iter()
                .any(|s| matches!(&s.kind, SpanKind::Compute { label } if label == "cpu_adam")),
            "the CPU Adam share must trace as compute"
        );
    }

    #[test]
    fn residency_bytes_are_conserved() {
        let model = gpt2_10b_on(2);
        for (cap, work) in [
            (80 * GIB, 10 * GIB),
            (40 * GIB, 30 * GIB),
            (16 * GIB, 15 * GIB),
        ] {
            let p = plan(PlacementPolicy::Adaptive, model, cap, work);
            assert_eq!(
                p.gpu_model_bytes + p.cpu_model_bytes,
                model.fp16_shard_bytes() + model.optimizer_shard_bytes()
            );
            assert!(p.gpu_model_bytes <= cap.saturating_sub(work));
        }
    }
}
