//! Visualizes the pipeline schedules as ASCII Gantt charts over virtual
//! time: GPipe's all-forward/all-backward waves vs 1F1B's interleaving,
//! with the measured bubble fraction against the analytic `(p-1)/(m+p-1)`.
//!
//! Each stage is a stack of `WIDTH x WIDTH` linears between two narrow
//! `EDGE`-wide ends, so the activation a stage hands on is small while its
//! metered GEMMs cost ~0.2 ms of A100 time per micro-batch forward — enough
//! that the ~5 µs NVLink hop between stages barely shows in the bubble.
//!
//! The chart is rendered from the world's shared tracer; pass
//! `--trace <out.json>` to also export the Chrome-trace JSON of the last
//! schedule (load it at chrome://tracing or ui.perfetto.dev).

use colossalai_autograd::{Layer, Linear, Sequential};
use colossalai_bench::{trace_arg, write_trace};
use colossalai_comm::{World, WorldBackend};
use colossalai_parallel::pipeline::{
    bubble_fraction, stage_events, PipelineStage, Schedule, StageEvent,
};
use colossalai_tensor::init;
use colossalai_tensor::ops::cross_entropy;
use colossalai_tensor::Tensor;
use colossalai_topology::systems::system_i;

const P: usize = 4;
const M: usize = 6;
/// Tokens per micro-batch.
const ROWS: usize = 1024;
/// Width of the activation passed between stages.
const EDGE: usize = 16;
/// Width of a stage's inner linears, and how many of them it has.
const WIDTH: usize = 256;
const INNER: usize = 13;

fn run(schedule: Schedule) -> (World, f64) {
    let world = World::new(system_i());
    // one rank at a time: the process-wide storage pool then sees the same
    // take / recycle order every run, so the rollup's pool lines are
    // deterministic too
    world.set_backend(Some(WorldBackend::Stackless { pool: 1 }));
    world.set_tracing(true);
    let mut rng = init::rng(42);
    let micros: Vec<Tensor> = (0..M)
        .map(|_| init::uniform([ROWS, EDGE], -1.0, 1.0, &mut rng))
        .collect();
    let targets: Vec<usize> = (0..ROWS).map(|i| i % EDGE).collect();
    let out = world.run_on(P, |ctx| {
        let devices: Vec<usize> = (0..P).collect();
        let mut srng = init::rng(7 + ctx.rank() as u64);
        let mut linear = |d_in, d_out| -> Box<dyn Layer> {
            Box::new(Linear::from_rng("l", d_in, d_out, true, &mut srng))
        };
        let mut layers = vec![linear(EDGE, WIDTH)];
        layers.extend((0..INNER).map(|_| linear(WIDTH, WIDTH)));
        layers.push(linear(WIDTH, EDGE));
        let mut stage = PipelineStage::new(ctx, &devices, Sequential::new(layers));
        let mut lf = |_: u64, o: &Tensor| cross_entropy(o, &targets);
        let _ = stage.run_step(
            schedule,
            stage.is_first().then_some(&micros[..]),
            stage
                .is_last()
                .then_some(&mut lf as &mut dyn FnMut(u64, &Tensor) -> (f32, Tensor)),
            M,
        );
        ctx.clock()
    });
    let makespan = out.iter().copied().fold(0.0, f64::max);
    (world, makespan)
}

fn render(traces: &[Vec<StageEvent>], makespan: f64) {
    const WIDTH: usize = 96;
    let scale = WIDTH as f64 / makespan;
    for (stage, trace) in traces.iter().enumerate() {
        let mut line = vec!['.'; WIDTH];
        for ev in trace {
            let a = (ev.start * scale) as usize;
            let b = ((ev.end * scale) as usize).min(WIDTH).max(a + 1);
            let ch = if ev.forward {
                char::from_digit(ev.micro as u32 % 10, 10).unwrap()
            } else {
                // backward segments render as letters a.. for micro 0..
                (b'a' + (ev.micro % 26) as u8) as char
            };
            for slot in line.iter_mut().take(b).skip(a) {
                *slot = ch;
            }
        }
        println!("stage {stage} |{}|", line.iter().collect::<String>());
    }
    // measured bubble: idle fraction of the busiest-possible schedule
    let busy: f64 = traces
        .iter()
        .flat_map(|t| t.iter().map(|e| e.end - e.start))
        .sum();
    let bubble = 1.0 - busy / (makespan * traces.len() as f64);
    println!(
        "makespan {:.1} ms | measured idle fraction {:.3} | analytic bubble {:.3}",
        makespan * 1e3,
        bubble,
        bubble_fraction(P, M)
    );
}

fn main() {
    let trace_path = trace_arg();
    println!(
        "Pipeline schedules on {P} stages x {M} micro-batches (digits = \
         forward micro id, letters = backward; '.' = idle):\n"
    );
    let mut last_world = None;
    for (name, schedule) in [("GPipe", Schedule::GPipe), ("1F1B", Schedule::OneFOneB)] {
        println!("== {name} ==");
        let (world, makespan) = run(schedule);
        let spans = world.trace();
        let traces: Vec<Vec<StageEvent>> = (0..P).map(|r| stage_events(&spans, r)).collect();
        render(&traces, makespan);
        println!();
        last_world = Some(world);
    }
    let last = last_world.expect("at least one schedule ran");
    println!("Per-rank time rollup of the 1F1B step:");
    print!("{}", last.rollup_table());
    println!(
        "\nBoth schedules share the same bubble; 1F1B's advantage is peak \
         activation memory (it holds at most {P} micro-batches in flight \
         where GPipe holds all {M})."
    );
    if let Some(path) = trace_path {
        write_trace(&last, &path);
    }
}
