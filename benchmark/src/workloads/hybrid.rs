//! `hybrid_4096`: `World::run_tasks` with the library's `HybridTask` at
//! DP 32 x TP 8 x PP 16 on the 4096-GPU fat tree, every iteration a fresh
//! world on the stackless backend. Tensors hold 256 elements and there is no
//! GEMM, so the rank executor (wake path, mailboxes, group rendezvous) and
//! the storage pool do all the host work. It uses `comm::world` the opposite
//! way from `tp_modes`: thousands of heap tasks on a pool of host-core
//! workers instead of a handful of parked threads.
//!
//! `HybridTask` synthesizes its own activations from rank, step and index,
//! so `--seed` has nothing to vary here; the check is that every iteration
//! repeats iteration 0's losses and collective count bit for bit.

use super::{bits_hash, ProbeShape, RankTiming, Segment, Window, Workload};
use crate::measure::{spanned, Spans};
use colossalai_comm::{DeviceCtx, HybridSpec, HybridTask, Poll, RankTask, World, WorldBackend};
use colossalai_topology::systems::{fat_tree_4096, fat_tree_512};
use std::sync::Mutex;
use std::time::Instant;

/// `HybridTask` that also reports the rank's virtual clock when it finishes.
struct Clocked(HybridTask);

impl RankTask for Clocked {
    type Output = (Vec<f32>, f64);

    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Self::Output> {
        match self.0.poll(ctx) {
            Poll::Ready(losses) => Poll::Ready((losses, ctx.clock())),
            Poll::Pending(key) => Poll::Pending(key),
        }
    }
}

/// What one run must reproduce: a hash of every rank's losses, and the
/// number of collectives the world counted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fingerprint {
    losses: u64,
    collectives: u64,
}

pub struct Hybrid {
    spec: HybridSpec,
    smoke: bool,
    /// Iteration 0's fingerprint, set by the first segment.
    first: Mutex<Option<Fingerprint>>,
}

impl Hybrid {
    pub fn new(smoke: bool) -> Self {
        let spec = if smoke {
            HybridSpec {
                dp: 2,
                tp: 8,
                pp: 4,
                elems: 256,
                steps: 2,
            }
        } else {
            HybridSpec {
                dp: 32,
                tp: 8,
                pp: 16,
                elems: 256,
                steps: 4,
            }
        };
        Hybrid {
            spec,
            smoke,
            first: Mutex::new(None),
        }
    }

    fn run(&self, world: &World, spec: HybridSpec) -> (Fingerprint, bool, f64) {
        let out = world.run_tasks(spec.ranks(), move |_rank| Clocked(HybridTask::new(spec)));
        let finite = out.iter().all(|(l, _)| l.iter().all(|x| x.is_finite()));
        let losses = out
            .iter()
            .fold(0u64, |h, (l, _)| h.rotate_left(5) ^ bits_hash(l));
        let clock = out.iter().map(|r| r.1).fold(0.0, f64::max);
        let print = Fingerprint {
            losses,
            collectives: world.stats().ops,
        };
        (print, finite, clock)
    }
}

impl Workload for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid_4096"
    }

    fn ranks(&self) -> usize {
        self.spec.ranks()
    }

    fn segment_steps(&self) -> usize {
        self.spec.steps + 1
    }

    fn cluster(&self) -> colossalai_topology::Cluster {
        if self.smoke {
            fat_tree_512()
        } else {
            fat_tree_4096()
        }
    }

    fn segment(&self, spans: Option<&Spans>) -> Segment {
        let start = Instant::now();
        let world = World::new(self.cluster());
        world.set_backend(Some(WorldBackend::Stackless { pool: 0 }));
        // warm-up: one step on this world, so groups exist and the pool
        // holds this size class before the measured steps
        let warm = HybridSpec {
            steps: 1,
            ..self.spec
        };
        let (_, warm_finite, _) = self.run(&world, warm);
        let setup_s = start.elapsed().as_secs_f64();

        world.reset_stats();
        world.reset_wake_stats();
        world.reset_thread_stats();
        world.set_tracing(spans.is_some());
        let window = Window::open();
        let t = Instant::now();
        let (print, finite, clock) = spanned(spans, "comm.world.run_tasks", 1, || {
            self.run(&world, self.spec)
        });
        let wall = t.elapsed().as_secs_f64();
        let window = window.close();

        let first = *self
            .first
            .lock()
            .expect("fingerprint lock")
            .get_or_insert(print);
        let steps = self.spec.steps;
        let failed = if print == first && finite && warm_finite {
            0
        } else {
            steps as u64
        };
        Segment {
            timing: RankTiming {
                setup_s,
                // one sample per run: the steps of a run are not separable
                // from outside a stackless world
                step_walls: vec![wall / steps as f64],
                window,
            },
            measured_steps: steps,
            attempted: steps as u64 + 1,
            failed,
            virtual_step_s: clock / steps as f64,
            world,
            counted_steps: steps,
            exact: Vec::new(),
        }
    }

    fn probe_shape(&self) -> ProbeShape {
        ProbeShape {
            gemm: None,
            rows: 1,
            width: self.spec.elems,
            vocab: self.spec.elems,
            optim_params: self.spec.elems,
            group: self.spec.tp,
            message_elems: self.spec.elems,
            stackless: true,
            flops_per_step: 0,
        }
    }
}
