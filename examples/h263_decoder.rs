//! Buffer sizing for an H.263 video decoder under a frame-rate constraint.
//!
//! The decoder (paper Fig. 12) processes QCIF frames of 594 blocks through
//! VLD → IQ → IDCT → MC. A playback deadline fixes the minimum frame rate;
//! this example computes the smallest channel buffers that still meet it —
//! the paper's headline use case — and contrasts it with the buffers
//! needed for maximal throughput.
//!
//! Run with: `cargo run --release -p buffy-examples --bin h263_decoder`

use buffy_analysis::maximal_throughput;
use buffy_core::{min_storage_for_throughput, ExploreOptions};
use buffy_gen::gallery;
use buffy_graph::Rational;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = gallery::h263_decoder();
    let mc = graph.actor_by_name("mc").unwrap();

    // One firing of MC = one decoded frame. The maximal achievable frame
    // rate is fixed by the graph structure and execution times.
    let max_rate = maximal_throughput(&graph, mc)?;
    println!(
        "maximal frame rate: {} frames per time unit (1 frame per {} units)",
        max_rate,
        max_rate.recip()
    );

    // Sweep a few frame-rate requirements: full speed, 90%, 75%, 50%.
    let opts = ExploreOptions::default();
    println!(
        "\n{:>10}  {:>12}  {:>28}",
        "demand", "min storage", "distribution"
    );
    for (label, fraction) in [
        ("100%", Rational::ONE),
        ("90%", Rational::new(9, 10)),
        ("75%", Rational::new(3, 4)),
        ("50%", Rational::new(1, 2)),
    ] {
        let constraint = max_rate * fraction;
        let point = min_storage_for_throughput(&graph, constraint, &opts)?.point;
        println!(
            "{label:>10}  {:>12}  {:>28}",
            point.size,
            point.distribution.to_string()
        );
    }

    // An infeasible demand is rejected with a typed error.
    let too_fast = max_rate * Rational::new(11, 10);
    match min_storage_for_throughput(&graph, too_fast, &opts) {
        Err(e) => println!("\n110% of the maximal rate: {e}"),
        Ok(_) => unreachable!("constraint above the maximum must be rejected"),
    }
    Ok(())
}
