//! Energy-annotated Pareto exploration of the power-annotated modem.
//!
//! Explores the modem graph's storage/throughput front and annotates each
//! point with its energy per graph iteration, the way the CLI does for
//! `--objectives storage,throughput,energy`. It shows that
//!
//! 1. the closed-form energy model, built once from the actor power
//!    annotations, gives every front point an exact rational energy,
//! 2. those figures agree with an independent oracle that walks the
//!    periodic phase of each point's actual schedule, and
//! 3. energy falls along the front: faster schedules waste less idle
//!    energy per iteration.
//!
//! Run with: `cargo run --release -p buffy-examples --bin energy_pareto`

use buffy_analysis::{schedule_energy_per_iteration, EnergyModel, ExplorationLimits, Schedule};
use buffy_core::{explore_dependency_guided, ExploreOptions};
use buffy_gen::gallery;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = gallery::modem_power();
    let observed = graph.default_observed_actor();

    let result = explore_dependency_guided(&graph, &ExploreOptions::default())?;
    let model = EnergyModel::from_semantics(&graph, observed)?;
    let energies: Vec<_> = result
        .pareto
        .points()
        .iter()
        .map(|p| model.energy_per_iteration(p.throughput))
        .collect();

    println!(
        "energy-annotated Pareto space of the modem ({} analyses):",
        result.stats.evaluations
    );
    for (p, energy) in result.pareto.points().iter().zip(&energies) {
        println!(
            "  size {:>3}  throughput {:>6}  energy/iteration {:>10}",
            p.size,
            p.throughput.to_string(),
            energy.to_string()
        );
    }

    // Cross-check each point against the schedule-walking oracle: the
    // closed-form energy must match the energy summed over the periodic
    // phase of the point's actual self-timed schedule.
    for (p, &energy) in result.pareto.points().iter().zip(&energies) {
        let schedule = Schedule::extract(&graph, &p.distribution, ExplorationLimits::default())?;
        let oracle = schedule_energy_per_iteration(&graph, &schedule, observed)
            .expect("Pareto points never deadlock");
        assert_eq!(
            energy, oracle,
            "closed-form energy must match the schedule walk for γ = {}",
            p.distribution
        );
    }
    println!(
        "schedule-walk oracle agrees on all {} points",
        result.pareto.len()
    );

    // Energy falls as the buffers grow: more storage lets the graph run
    // faster, and idle energy per iteration shrinks with the period.
    for pair in energies.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "energy must be non-increasing along the front"
        );
    }
    println!("energy decreases monotonically along the front");
    Ok(())
}
