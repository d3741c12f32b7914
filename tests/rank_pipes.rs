//! The wake-up pipes of `World::run_on`'s closure ranks (one per rank,
//! `comm::sched`'s batons) are the run's own: a run closes every one it
//! opened, also when a rank's panic aborts it, and a run that cannot open
//! them fails before it starts a thread, naming the rank count and the OS
//! error.
#![cfg(target_os = "linux")]

use colossalai_comm::World;
use colossalai_tensor::Tensor;
use colossalai_topology::systems::fat_tree_512;
use std::process::Command;
use std::sync::Mutex;

/// Each test below counts or limits this process's descriptors: they run
/// one at a time.
static DESCRIPTORS: Mutex<()> = Mutex::new(());

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn a_run_closes_every_pipe_it_opens() {
    let _one = DESCRIPTORS.lock().unwrap_or_else(|e| e.into_inner());
    let world = World::new(fat_tree_512());
    let before = open_fds();
    let out = world.run_on(64, |ctx| {
        // every rank blocks in the collective, so every pipe carries bytes
        let g = ctx.world_group(64);
        g.all_reduce(ctx, Tensor::ones(vec![4])).data()[0]
    });
    assert_eq!(out, vec![64.0; 64]);
    assert_eq!(open_fds(), before, "a finished run left descriptors open");

    let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run_on(64, |ctx| {
            assert_ne!(ctx.rank(), 37, "rank 37 fails");
            // the peers sit blocked in the collective when the abort comes
            let g = ctx.world_group(64);
            g.all_reduce(ctx, Tensor::ones(vec![4]));
        })
    }));
    let msg = *aborted.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("rank 37: assertion"), "{msg}");
    assert_eq!(open_fds(), before, "an aborted run left descriptors open");
}

/// Run in a child process whose descriptor limit is too low for 64 ranks'
/// pipes (see the test below); under any normal limit it has nothing to
/// show and returns.
#[test]
#[ignore = "run by `run_on_without_descriptors_fails_before_any_thread`"]
fn out_of_descriptors_child() {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let soft: usize = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap();
    if soft >= 128 {
        return;
    }
    let world = World::new(fat_tree_512());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| world.run_on(64, |_| ())))
        .unwrap_err();
    let msg = *err.downcast::<String>().unwrap();
    assert!(msg.contains("run_on(64)"), "{msg}");
    assert!(msg.contains("os error 24"), "not EMFILE: {msg}");
    assert_eq!(world.thread_stats().spawned, 0, "a thread started: {msg}");
    // the pipes opened before the failure were closed: a small run fits
    assert_eq!(world.run_on(2, |ctx| ctx.rank()), [0, 1]);
    println!("out-of-descriptors contract held");
}

#[test]
fn run_on_without_descriptors_fails_before_any_thread() {
    let _one = DESCRIPTORS.lock().unwrap_or_else(|e| e.into_inner());
    let exe = std::env::current_exe().unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 32 && exec "$0" --ignored --exact out_of_descriptors_child --nocapture"#)
        .arg(&exe)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("out-of-descriptors contract held"),
        "{}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
