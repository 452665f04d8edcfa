//! Properties of the objective space and of the energy annotation.
//!
//! Searches rank points on storage and throughput alone, whatever axes an
//! [`ObjectiveSpace`] declares: fronts and statistics stay byte-identical
//! at any thread count, fresh or warm started from a checkpoint of the
//! run, for SDF and CSDF models alike. Energy annotates the final front
//! through the closed-form [`EnergyModel`]; its figures are pinned against
//! a hand-computed value and an independent schedule-walking oracle. The
//! `--objectives` declaration itself must parse and print round trip.

use buffy_analysis::DataflowSemantics;
use buffy_analysis::{
    schedule_energy_per_iteration, throughput, EnergyModel, ExplorationLimits, Schedule,
};
use buffy_core::{
    explore_dependency_guided, explore_design_space, Event, ExploreObserver, ExploreOptions,
    ObjectiveKind, ObjectiveSpace, ParetoPoint, WarmStart,
};
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::test_threads;
use std::sync::{Arc, Mutex};

/// The front rendered to bytes, so two runs compare byte-for-byte.
fn front_bytes(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

/// The example graph of the paper with every actor annotated
/// `active = 10, idle = 2`.
fn powered_example() -> SdfGraph {
    let mut b = SdfGraph::builder("example-power");
    let a = b.actor_with_power("a", 1, 10, 2).unwrap();
    let bb = b.actor_with_power("b", 2, 10, 2).unwrap();
    let c = b.actor_with_power("c", 2, 10, 2).unwrap();
    b.channel("alpha", a, 2, bb, 3).unwrap();
    b.channel("beta", bb, 1, c, 2).unwrap();
    b.build().unwrap()
}

/// Records every evaluation of a run as the checkpoint entries a
/// `--resume` would warm-start from.
#[derive(Default)]
struct Checkpointing {
    entries: Mutex<WarmStart>,
}

impl ExploreObserver for Checkpointing {
    fn event(&self, event: &Event<'_>) {
        if let Event::Evaluated {
            dist,
            throughput,
            states,
            ..
        } = *event
        {
            let mut entries = self.entries.lock().unwrap();
            entries.insert(dist.clone(), (throughput, states));
        }
    }
}

/// Explores `graph` in the default space at one thread, then at each test
/// thread count both fresh and warm-started from the first run's
/// checkpoint entries: every front and every statistic must match.
fn assert_default_space_is_byte_identical<M: DataflowSemantics + Sync>(graph: &M, name: &str) {
    let checkpoint = Arc::new(Checkpointing::default());
    let reference = explore_design_space(
        graph,
        &ExploreOptions {
            observer: Some(checkpoint.clone()),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    let warm = Arc::new(std::mem::take(&mut *checkpoint.entries.lock().unwrap()));
    for threads in [1, test_threads()] {
        for warm_start in [None, Some(warm.clone())] {
            let resumed = warm_start.is_some();
            let run = explore_design_space(
                graph,
                &ExploreOptions {
                    threads,
                    warm_start,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                front_bytes(reference.pareto.points()),
                front_bytes(run.pareto.points()),
                "{name}: default-space front must be byte-identical (threads {threads}, resumed {resumed})"
            );
            assert_eq!(
                reference.stats, run.stats,
                "{name}: statistics must be identical too (threads {threads}, resumed {resumed})"
            );
        }
    }
}

#[test]
fn default_space_is_byte_identical_across_threads_and_warm_start() {
    for graph in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        assert_default_space_is_byte_identical(&graph, graph.name());
    }
}

#[test]
fn csdf_default_space_is_byte_identical_across_threads_and_warm_start() {
    for graph in [
        buffy_csdf::gallery::updown(),
        buffy_csdf::gallery::line_scaler(),
    ] {
        assert_default_space_is_byte_identical(&graph, graph.name());
    }
}

#[test]
fn energy_matches_the_hand_computed_value_on_the_example() {
    // Repetition vector (3, 2, 1), execution times (1, 2, 2): busy time
    // per iteration is 3·1 + 2·2 + 1·2 = 9 actor-time-units. With every
    // actor at active 10 / idle 2:
    //   work            W  = 10 · 9              = 90
    //   idle-while-busy Iᵦ =  2 · 9              = 18
    //   idle rate       I  =  2 + 2 + 2          =  6   (per time step)
    // so E(t) = (W − Iᵦ) + I · q_obs / t. γ = ⟨4, 2⟩ runs at t = 1/7
    // observed on c (q_c = 1): E = 72 + 6 · 7 = 114.
    let graph = powered_example();
    let obs = graph.default_observed_actor();
    let dist = StorageDistribution::from_capacities(vec![4, 2]);
    let t = throughput(&graph, &dist, obs).unwrap().throughput;
    assert_eq!(t, Rational::new(1, 7));

    let result = explore_design_space(&graph, &ExploreOptions::default()).unwrap();
    let point = result
        .pareto
        .points()
        .iter()
        .find(|p| p.distribution == dist)
        .expect("⟨4, 2⟩ is the minimal live distribution and on the front");
    let model = EnergyModel::from_semantics(&graph, obs).unwrap();
    assert_eq!(
        model.energy_per_iteration(point.throughput),
        Rational::new(114, 1)
    );
}

#[test]
fn energy_matches_the_schedule_walking_oracle_on_the_modem() {
    let graph = gallery::modem_power();
    let obs = graph.default_observed_actor();
    let result = explore_dependency_guided(&graph, &ExploreOptions::default()).unwrap();
    assert!(!result.pareto.is_empty());
    let model = EnergyModel::from_semantics(&graph, obs).unwrap();
    for p in result.pareto.points() {
        let schedule =
            Schedule::extract(&graph, &p.distribution, ExplorationLimits::default()).unwrap();
        let oracle = schedule_energy_per_iteration(&graph, &schedule, obs)
            .expect("Pareto points never deadlock");
        assert_eq!(
            model.energy_per_iteration(p.throughput),
            oracle,
            "closed-form energy must match the schedule walk for γ = {}",
            p.distribution
        );
    }
}

#[test]
fn objective_space_parsing_round_trips() {
    for text in ["storage,throughput", "storage,throughput,energy"] {
        let space: ObjectiveSpace = text.parse().unwrap();
        assert_eq!(space.to_string(), text);
    }
    // Canonical order is restored on parse, duplicates and truncated
    // spaces are refused.
    let space: ObjectiveSpace = "throughput,energy,storage".parse().unwrap();
    assert_eq!(space.to_string(), "storage,throughput,energy");
    assert!(space.has(ObjectiveKind::Energy));
    assert!("storage".parse::<ObjectiveSpace>().is_err());
    assert!("storage,throughput,storage"
        .parse::<ObjectiveSpace>()
        .is_err());
    assert!("storage,throughput,joules"
        .parse::<ObjectiveSpace>()
        .is_err());
}
