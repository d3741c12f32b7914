//! Resumable rank bodies: the poll-driven execution contract of the rank
//! executor (`crate::sched`).
//!
//! A [`RankTask`] keeps a rank's resumable state in a small heap struct
//! instead of an OS thread stack: `poll` either completes with
//! [`Poll::Ready`] or parks the rank by returning [`Poll::Pending`] with the
//! [`WakeKey`] naming the resource that will wake it — a keyed mailbox
//! slot or a group-rendezvous publish/drain edge. One stack + futex per
//! rank is exactly the kernel cost that caps world size (EXPERIMENTS.md
//! measures idle parked threads, not our locks, as the residual scaling
//! term at 4096 ranks), so [`crate::World::run_tasks`] runs any number of
//! such tasks on `pool` worker threads.
//!
//! The resumable ops ([`crate::RecvOp`], [`crate::CollectiveOp`]) are the
//! only implementation of the communication protocol. A `run_on` closure
//! is the special case of a rank whose resumable state *is* its thread:
//! [`crate::DeviceCtx::recv`], the `Group` collectives and
//! [`crate::DeviceCtx::block_on`] poll the identical op structs and, on
//! `Pending`, put the thread to sleep until the executor dispatches the
//! rank again. That is what keeps closure ranks and task ranks bitwise
//! identical in losses, stats and traces.

use crate::group::GroupShared;
use crate::world::DeviceCtx;
use colossalai_topology::DeviceId;
use std::sync::Arc;

/// Result of polling a rank task or a resumable op.
pub enum Poll<T> {
    /// The task/op completed with this value.
    Ready(T),
    /// The rank must park; the key names the resource whose next state
    /// change wakes it. The op registered the rank under the resource's
    /// lock *before* returning this, so a wake between the return and the
    /// park is latched, never lost.
    Pending(WakeKey),
}

/// Names the resource a [`Poll::Pending`] op is parked on. Opaque: callers
/// only return it from their own `poll`; its `Debug` text (`recv(src=2,
/// tag=7)`, `publish(group [0,1])`) is what a deadlock report prints.
pub struct WakeKey(WakeSource);

/// The concrete wake sources: the parked rank's mailbox slot for
/// `(from, tag)`, or one of the two rendezvous edges of a group slot.
enum WakeSource {
    /// A message from `from` under `tag` wakes the receiver.
    Mail { from: DeviceId, tag: u64 },
    /// The last arrival publishing the group's outputs wakes Collect-phase
    /// waiters.
    Publish(Arc<GroupShared>),
    /// The last picker resetting the slot wakes next-op entrants waiting
    /// out a still-Distribute slot.
    Drain(Arc<GroupShared>),
}

impl WakeKey {
    pub(crate) fn mail(from: DeviceId, tag: u64) -> WakeKey {
        WakeKey(WakeSource::Mail { from, tag })
    }

    pub(crate) fn publish(shared: &Arc<GroupShared>) -> WakeKey {
        WakeKey(WakeSource::Publish(Arc::clone(shared)))
    }

    pub(crate) fn drain(shared: &Arc<GroupShared>) -> WakeKey {
        WakeKey(WakeSource::Drain(Arc::clone(shared)))
    }
}

impl std::fmt::Debug for WakeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            WakeSource::Mail { from, tag } => write!(f, "recv(src={from}, tag={tag})"),
            WakeSource::Publish(g) => write!(f, "publish(group {})", g.members_text()),
            WakeSource::Drain(g) => write!(f, "drain(group {})", g.members_text()),
        }
    }
}

/// A rank's whole program as a resumable state machine, run to completion
/// by [`crate::World::run_tasks`].
///
/// Contract:
/// * `poll` is only ever called by one worker at a time (the executor
///   guarantees exclusivity), but successive calls may come from
///   different OS threads — hence `Send`.
/// * `poll` must not block its worker: wait by returning
///   [`Poll::Pending`] from a resumable op, never through `recv` or a
///   blocking collective (those panic inside a task).
/// * After returning [`Poll::Pending`], the task is re-polled when (or
///   spuriously before) the keyed resource changes; `poll` must re-check
///   its condition, exactly like a condvar waiter re-checks its predicate.
/// * After [`Poll::Ready`], the task is never polled again.
/// * Panicking inside `poll` aborts the whole run with this rank's
///   message, exactly as a panicking `run_on` closure does.
pub trait RankTask: Send {
    /// The task's completion value (the analog of a `run_on` closure's
    /// return).
    type Output: Send;

    /// Advances the task as far as it can go without blocking.
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<Self::Output>;
}
