//! Pareto space of the modem application (paper Fig. 13).
//!
//! Charts the storage/throughput trade-offs of the 16-actor modem graph
//! with both exploration algorithms and verifies they agree, then prints
//! the schedule of the cheapest configuration meeting 80% of the maximal
//! throughput.
//!
//! Run with: `cargo run --release -p buffy-examples --bin modem_pareto`

use buffy_analysis::{ExplorationLimits, Schedule};
use buffy_core::{
    explore_dependency_guided, explore_design_space, min_storage_for_throughput, ExploreOptions,
};
use buffy_gen::gallery;
use buffy_graph::Rational;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = gallery::modem();
    let opts = ExploreOptions::default();

    let guided = explore_dependency_guided(&graph, &opts)?;
    println!(
        "dependency-guided exploration: {} Pareto points, {} analyses",
        guided.pareto.len(),
        guided.stats.evaluations
    );
    let exhaustive = explore_design_space(&graph, &opts)?;
    println!(
        "exhaustive exploration:        {} Pareto points, {} analyses",
        exhaustive.pareto.len(),
        exhaustive.stats.evaluations
    );
    assert_eq!(
        guided
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect::<Vec<_>>(),
        exhaustive
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect::<Vec<_>>(),
        "the two algorithms must chart the same front"
    );

    println!("\nPareto space of the modem (Fig. 13):");
    for p in guided.pareto.points() {
        let bar = "#".repeat((p.throughput.to_f64() * 80.0) as usize);
        println!(
            "  size {:>3}  thr {:>6}  {bar}",
            p.size,
            p.throughput.to_string()
        );
    }

    // Pick the cheapest configuration for a 80%-of-max constraint and show
    // its periodic schedule.
    let constraint = guided.max_throughput * Rational::new(4, 5);
    let point = min_storage_for_throughput(&graph, constraint, &opts)?.point;
    println!(
        "\nminimal storage for ≥ {} (80% of max): size {} with γ = {}",
        constraint, point.size, point.distribution
    );
    let schedule = Schedule::extract(&graph, &point.distribution, ExplorationLimits::default())?;
    println!(
        "schedule: period {} time steps entered at t = {}",
        schedule.period().expect("live"),
        schedule.period_entry().expect("live"),
    );
    Ok(())
}
