//! Cyclo-Static Dataflow: buffer sizing for a bursty video line processor.
//!
//! A line-based image scaler emits pixels cyclo-statically: during the
//! first phase of each line it outputs a burst of blocks, then it is
//! silent while it reads ahead. Plain SDF cannot express the within-line
//! variation; CSDF can — and buffer sizing must account for the burst.
//! This example explores the buffer/throughput trade-off of such a
//! pipeline: `buffy-csdf` models it, and the same throughput analysis
//! and exploration driver that chart SDF graphs chart it.
//!
//! Run with: `cargo run -p buffy-examples --bin csdf_bursty`

use buffy_analysis::throughput;
use buffy_core::{explore_design_space, ExploreOptions};
use buffy_csdf::CsdfGraph;
use buffy_graph::StorageDistribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scaler: 3 phases per line — burst 4 blocks, burst 2, then silence
    // while reading ahead (phase times 1, 1, 2).
    // Filter: consumes 2 blocks per firing, 1 time unit each.
    let mut b = CsdfGraph::builder("line-scaler");
    let scaler = b.actor("scaler", vec![1, 1, 2]);
    let filter = b.actor("filter", vec![1]);
    let sink = b.actor("sink", vec![1]);
    b.channel("blocks", scaler, vec![4, 2, 0], filter, vec![2], 0)?;
    b.channel("pixels", filter, vec![1], sink, vec![1], 0)?;
    let graph = b.build()?;

    // A couple of hand-picked distributions first.
    println!(
        "{:>14} {:>14} {:>12}",
        "blocks buffer", "pixels buffer", "thr(sink)"
    );
    for caps in [[4u64, 1], [4, 2], [6, 1], [6, 2], [8, 2]] {
        let dist = StorageDistribution::from_capacities(caps.to_vec());
        let r = throughput(&graph, &dist, sink)?;
        println!(
            "{:>14} {:>14} {:>12}",
            caps[0],
            caps[1],
            if r.deadlocked {
                "deadlock".into()
            } else {
                r.throughput.to_string()
            }
        );
    }

    // The full Pareto front.
    let result = explore_design_space(&graph, &ExploreOptions::default())?;
    println!(
        "\nPareto front (unified-kernel exploration, {} analyses, {} cache hits):",
        result.stats.evaluations, result.stats.cache_hits
    );
    for p in result.pareto.points() {
        println!("  {p}");
    }
    println!(
        "\nmaximal throughput of the sink: {}",
        result.max_throughput
    );

    // Contrast with the SDF approximation, which must assume the worst
    // burst in *every* firing: rates (6 per cycle → 2 per firing average
    // cannot be expressed; the conservative SDF model uses the peak).
    println!(
        "\nnote: an SDF abstraction of the scaler would need the peak rate (4) every\n\
         firing and therefore over-sizes the buffer; CSDF captures the real bursts."
    );
    Ok(())
}
