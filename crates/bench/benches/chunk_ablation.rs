//! Bench + ablation: chunked (PatrickStar) vs per-tensor memory
//! management. The wall-clock bench measures manager overhead; the printed
//! ablation compares *modeled PCIe seconds* per training pass, which is the
//! quantity the chunk strategy actually optimizes (Section 3.2).

use colossalai_bench::bench_fn;
use colossalai_memory::ChunkManager;
use colossalai_topology::Link;

/// One "training pass": read every registered tensor once, in order.
fn pass(mgr: &mut ChunkManager, refs: &[colossalai_memory::TensorRef]) {
    for &r in refs {
        std::hint::black_box(mgr.read(r));
    }
}

fn setup(
    chunk_elems: usize,
    n_tensors: usize,
    tensor_elems: usize,
    budget_frac: f64,
) -> (ChunkManager, Vec<colossalai_memory::TensorRef>) {
    let total_bytes = (n_tensors * tensor_elems * 4) as u64;
    let budget = (total_bytes as f64 * budget_frac) as u64;
    let mut mgr = ChunkManager::new(chunk_elems, budget, Link::pcie());
    let payload = vec![1.0f32; tensor_elems];
    let refs = (0..n_tensors).map(|_| mgr.register(&payload)).collect();
    (mgr, refs)
}

fn main() {
    let n_tensors = 64;
    let tensor_elems = 256;

    // small chunks = per-tensor management; large chunks = PatrickStar
    for (label, chunk_elems) in [("per_tensor_256", 256usize), ("chunked_4096", 4096)] {
        // registration is part of the timed body: the manager is consumed
        bench_fn(&format!("chunk_ablation/{label}"), || {
            let (mut mgr, refs) = setup(chunk_elems, n_tensors, tensor_elems, 0.5);
            pass(&mut mgr, &refs);
            pass(&mut mgr, &refs);
            std::hint::black_box(mgr.cost().seconds);
        });
    }

    // the modeled-cost ablation the bench name promises
    println!("\n== chunk ablation: modeled PCIe seconds for 2 passes over 64 x 1KiB tensors at 50% GPU budget ==");
    for (label, chunk_elems) in [
        ("per-tensor (256 el)", 256usize),
        ("chunked (4096 el)", 4096),
    ] {
        let (mut mgr, refs) = setup(chunk_elems, n_tensors, tensor_elems, 0.5);
        pass(&mut mgr, &refs);
        pass(&mut mgr, &refs);
        let cost = mgr.cost();
        println!(
            "{label:>20}: {} migrations, {:.3} ms modeled, {:.1} MiB moved",
            cost.moves,
            cost.seconds * 1e3,
            (cost.h2d_bytes + cost.d2h_bytes) as f64 / (1 << 20) as f64
        );
    }
}
