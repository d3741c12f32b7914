//! Wakeup-discipline contract of the point-to-point mailbox and the abort
//! path.
//!
//! The mailbox wake targets are keyed per `(from, to, tag)`: delivering one
//! message wakes at most the one receiver parked on that exact key. The
//! regression these tests guard against is the O(world) herd — a single
//! world-wide wait queue whose every send woke *every* parked receiver,
//! costing a full requeue/dispatch cycle per rank per message and making
//! 1024-rank worlds superlinearly slower than 64-rank ones.
//!
//! The counters come from [`World::wake_stats`], which counts wakeups on
//! the waiter side (each re-poll after a `Pending`) — deliberately outside
//! the bitwise [`CommStats`] parity surface, since wake counts are
//! host-timing-dependent.

use colossalai_comm::{
    CollectiveOp, DeviceCtx, Group, Poll, RankTask, RecvOp, World, WorldBackend,
};
use colossalai_tensor::Tensor;
use colossalai_topology::systems::fat_tree_512;

const N: usize = 64;

/// One delivery wakes (at most) one receiver: across an all-pairs storm of
/// `N*(N-1)` messages, total mailbox wakeups stay within one spurious wake
/// per rank of the message count. Under the old broadcast herd this count
/// was O(N) per message (~hundreds of thousands here).
fn assert_one_wake_per_message(world: &World) {
    let w = world.wake_stats();
    let msgs = (N * (N - 1)) as u64;
    assert_eq!(w.p2p_msgs, msgs);
    assert!(
        w.p2p_wakes <= msgs + N as u64,
        "one delivery must wake at most one parked receiver: {} wakes for {} msgs",
        w.p2p_wakes,
        msgs
    );
    assert!(
        w.wakeups_per_msg() <= 2.0,
        "wakeups_per_msg {} — the O(world) herd is back",
        w.wakeups_per_msg()
    );
}

/// All-pairs p2p storm on closure ranks: every rank sends one message to
/// every peer (tag = sender), then drains its inbox in rotated order so
/// most receives park before their message arrives.
#[test]
fn storm_wakes_one_receiver_per_message_closures() {
    let world = World::new(fat_tree_512());
    world.set_backend(Some(WorldBackend::Stackless { pool: 4 }));
    world.run_on(N, |ctx| {
        let me = ctx.rank();
        for d in 1..N {
            let to = (me + d) % N;
            ctx.send(to, me as u64, Tensor::scalar(me as f32));
        }
        // rotated drain: receiver `me` asks for peer (me+1) first, which
        // forces parking whenever that peer has not reached `me` yet
        for d in 1..N {
            let from = (me + d) % N;
            let got = ctx.recv(from, from as u64);
            assert_eq!(got.item(), from as f32);
        }
    });
    assert_one_wake_per_message(&world);
}

/// The same all-pairs storm as a resumable task: sends are non-blocking,
/// each receive parks by returning `Pending` with its mailbox wake key.
struct StormTask {
    sent: bool,
    d: usize,
    op: Option<RecvOp>,
}

impl RankTask for StormTask {
    type Output = ();
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
        let me = ctx.rank();
        if !self.sent {
            self.sent = true;
            for d in 1..N {
                let to = (me + d) % N;
                ctx.send(to, me as u64, Tensor::scalar(me as f32));
            }
        }
        while self.d < N {
            let from = (me + self.d) % N;
            let op = self
                .op
                .get_or_insert_with(|| ctx.start_recv(from, from as u64));
            match op.poll(ctx) {
                Poll::Ready(got) => {
                    assert_eq!(got.item(), from as f32);
                    self.op = None;
                    self.d += 1;
                }
                Poll::Pending(key) => return Poll::Pending(key),
            }
        }
        Poll::Ready(())
    }
}

/// The same bound holds for heap tasks — and the whole 64-rank storm runs
/// on two OS threads.
#[test]
fn storm_wakes_one_receiver_per_message_tasks() {
    let world = World::new(fat_tree_512());
    world.set_backend(Some(WorldBackend::Stackless { pool: 2 }));
    world.run_tasks(N, |_rank| StormTask {
        sent: false,
        d: 1,
        op: None,
    });
    assert_one_wake_per_message(&world);
    assert!(
        world.thread_stats().peak_live <= 2,
        "64 storm ranks must multiplex onto the 2-slot pool, got peak {}",
        world.thread_stats().peak_live
    );
}

/// A panicking rank must reach peers parked on *keyed* mailbox slots: with
/// per-key wakeup targets there is no stray wake-everyone to bail them out,
/// so the abort sweeps every blocked rank. Peers park in a `recv` whose
/// message never arrives; the run must still unwind them and report the
/// original panic.
#[test]
fn abort_reaches_closures_parked_in_recv() {
    let world = World::new(fat_tree_512());
    world.set_backend(Some(WorldBackend::Stackless { pool: 2 }));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run_on(8, |ctx| {
            if ctx.rank() == 0 {
                // collect one message per peer so every peer has entered
                // the protocol, then die before answering
                for from in 1..8 {
                    let _ = ctx.recv(from, 7);
                }
                panic!("rank zero gave up");
            }
            ctx.send(0, 7, Tensor::scalar(ctx.rank() as f32));
            // parks forever on key (0, rank, 99): only the abort wake can
            // release it
            let _ = ctx.recv(0, 99);
        });
    }))
    .expect_err("run must propagate the panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());
    assert!(msg.contains("device thread panicked"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("rank zero gave up"), "{msg}");
}

/// State machine for the wake-key abort test: rank 0 collects one message
/// per peer (so every peer has entered the protocol) and then panics; odd
/// peers are parked `Pending` on a mailbox wake key whose message never
/// comes, even peers on a rendezvous wake key whose last member (rank 0)
/// never joins. The abort must requeue and unwind tasks parked on BOTH
/// kinds of wake key.
enum Probe {
    Start,
    Collect { from: usize, op: RecvOp },
    ParkMail(RecvOp),
    ParkRendezvous(Group, CollectiveOp),
}

struct AbortProbe {
    state: Probe,
}

impl RankTask for AbortProbe {
    type Output = ();
    fn poll(&mut self, ctx: &DeviceCtx) -> Poll<()> {
        loop {
            match std::mem::replace(&mut self.state, Probe::Start) {
                Probe::Start => {
                    let rank = ctx.rank();
                    if rank == 0 {
                        self.state = Probe::Collect {
                            from: 1,
                            op: ctx.start_recv(1, 7),
                        };
                    } else {
                        ctx.send(0, 7, Tensor::scalar(rank as f32));
                        if rank % 2 == 1 {
                            // mailbox key (0, rank, 99): nothing is ever
                            // sent under tag 99
                            self.state = Probe::ParkMail(ctx.start_recv(0, 99));
                        } else {
                            // rendezvous {0, 2, 4, 6}: rank 0 dies before
                            // joining, so the publish edge never fires
                            let g = ctx.group(&[0, 2, 4, 6]);
                            let op = g.start_all_reduce(Tensor::scalar(1.0));
                            self.state = Probe::ParkRendezvous(g, op);
                        }
                    }
                }
                Probe::Collect { from, mut op } => match op.poll(ctx) {
                    Poll::Ready(_) => {
                        if from + 1 < 8 {
                            self.state = Probe::Collect {
                                from: from + 1,
                                op: ctx.start_recv(from + 1, 7),
                            };
                        } else {
                            panic!("rank zero gave up");
                        }
                    }
                    Poll::Pending(key) => {
                        self.state = Probe::Collect { from, op };
                        return Poll::Pending(key);
                    }
                },
                Probe::ParkMail(mut op) => match op.poll(ctx) {
                    Poll::Ready(_) => unreachable!("no message is ever sent under tag 99"),
                    Poll::Pending(key) => {
                        self.state = Probe::ParkMail(op);
                        return Poll::Pending(key);
                    }
                },
                Probe::ParkRendezvous(g, mut op) => match g.poll_collective(ctx, &mut op) {
                    Poll::Ready(_) => unreachable!("rank 0 never joins the rendezvous"),
                    Poll::Pending(key) => {
                        self.state = Probe::ParkRendezvous(g, op);
                        return Poll::Pending(key);
                    }
                },
            }
        }
    }
}

/// A panic must reach ranks parked `Pending` on mailbox AND rendezvous wake
/// keys — as heap tasks and as closures driving the same machine, at pool
/// sizes where the panicking rank shares a slot with its victims and where
/// it does not.
#[test]
fn abort_reaches_ranks_parked_on_both_kinds_of_wake_key() {
    for (pool, tasks) in [(1, true), (2, true), (1, false), (2, false)] {
        let world = World::new(fat_tree_512());
        world.set_backend(Some(WorldBackend::Stackless { pool }));
        let probe = || AbortProbe {
            state: Probe::Start,
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tasks {
                world.run_tasks(8, |_rank| probe());
            } else {
                world.run_on(8, |ctx| ctx.block_on(probe()));
            }
        }))
        .expect_err("run must propagate the panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        let case = format!("pool={pool}, tasks={tasks}: {msg}");
        assert!(msg.contains("device thread panicked"), "{case}");
        assert!(msg.contains("rank 0"), "{case}");
        assert!(msg.contains("rank zero gave up"), "{case}");
    }
}
