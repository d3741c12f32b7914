//! # colossalai-comm
//!
//! Collective communication for the simulated cluster.
//!
//! Every simulated GPU is a task holding a [`world::DeviceCtx`].
//! Collectives ([`group::Group`]) move real tensors between tasks — so all
//! distributed arithmetic in the workspace is numerically real — while
//! charging *virtual* time from the alpha-beta ring model of
//! `colossalai-topology` and recording element-hop traffic that matches the
//! closed-form communication volumes of Table 1 in the paper.
//!
//! A collective is one value, [`Collective`]` { op, stream }` — overlap
//! ([`Stream`]) is a parameter of the operation, not a separate operation
//! — with one blocking entry ([`Group::collective`]) and one resumable one
//! ([`Group::start`]). Every payload, collective or point to point
//! ([`DeviceCtx::send`]), is f32 and bills 4 bytes per element.
//!
//! Ranks run on one executor (`sched`): `pool` running slots handed out
//! in virtual-time order. A rank body is either a resumable
//! [`task::RankTask`] state machine ([`world::World::run_tasks`] — heap
//! state only, so a 16k-rank world needs O(pool) OS threads) or a plain
//! closure ([`world::World::run_on`]), the special case whose resumable
//! state is its own OS thread. Both wait the same way — register in the
//! resource's parked list, get woken through the executor — and produce
//! bitwise-identical results.

pub mod group;
pub(crate) mod sched;
pub mod stats;
pub mod task;
pub mod trace;
pub mod workload;
pub mod world;

pub use colossalai_topology::AllReduceAlgo;
pub use group::{Collective, CollectiveOp, Group, Op, Pieces, Stream};
pub use stats::{CommStats, OpKind};
pub use task::{Poll, RankTask, WakeKey};
pub use trace::{RankRollup, Span, SpanKind, Track};
pub use workload::{HybridSpec, HybridTask};
pub use world::{DeviceCtx, RecvOp, ThreadStats, WakeStats, World, WorldBackend};
