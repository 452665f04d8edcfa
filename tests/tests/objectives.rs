//! Properties of the n-dimensional objective space.
//!
//! The refactor from the hardcoded storage/throughput pair to declared
//! [`ObjectiveSpace`]s must be invisible in the default space: fronts and
//! statistics stay byte-identical at any thread count, fresh or warm
//! started from a checkpoint of the run, for SDF and CSDF models alike. Declaring the energy axis
//! attaches an exact rational energy per iteration to every point without
//! moving the front (energy is a monotone function of throughput, so 3D
//! dominance coincides with 2D dominance on evaluated points — the same
//! argument that keeps the searches' throughput-only pruning sound). These
//! tests pin each of those claims, including the energy figures against
//! a hand-computed value and an independent schedule-walking oracle.

use buffy_analysis::DataflowSemantics;
use buffy_analysis::{schedule_energy_per_iteration, throughput, ExplorationLimits, Schedule};
use buffy_core::{
    explore_dependency_guided, explore_design_space, Event, ExplorationResult, ExploreObserver,
    ExploreOptions, ObjectiveKind, ObjectiveSpace, ParetoPoint, WarmStart,
};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::test_threads;
use std::sync::{Arc, Mutex};

/// The front rendered to bytes, including any energy values, so two runs
/// compare byte-for-byte.
fn front_bytes(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{};{};{:?};{}\n",
                p.size,
                p.throughput,
                p.energy(),
                p.distribution
            )
        })
        .collect()
}

fn explore_sdf(graph: &SdfGraph, opts: ExploreOptions) -> ExplorationResult {
    explore_design_space(graph, &opts).unwrap()
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

/// A small power-annotated CSDF graph: a bursty two-phase producer
/// feeding a unit-rate consumer.
fn powered_updown() -> CsdfGraph {
    let mut b = CsdfGraph::builder("updown-power");
    let p = b.actor_with_power("p", vec![1, 1], 8, 3).unwrap();
    let c = b.actor_with_power("c", vec![1], 5, 1).unwrap();
    b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
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
    assert!(reference
        .pareto
        .points()
        .iter()
        .all(|p| p.energy().is_none()));
    let warm = Arc::new(std::mem::take(&mut *checkpoint.entries.lock().unwrap()));
    for threads in [1, test_threads()] {
        for warm_start in [None, Some(warm.clone())] {
            let resumed = warm_start.is_some();
            let run = explore_design_space(
                graph,
                &ExploreOptions {
                    threads,
                    warm_start,
                    objectives: ObjectiveSpace::default_2d(),
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

    let result = explore_sdf(
        &graph,
        ExploreOptions {
            objectives: ObjectiveSpace::with_energy(),
            ..ExploreOptions::default()
        },
    );
    let point = result
        .pareto
        .points()
        .iter()
        .find(|p| p.distribution == dist)
        .expect("⟨4, 2⟩ is the minimal live distribution and on the front");
    assert_eq!(point.energy(), Some(Rational::new(114, 1)));
}

#[test]
fn energy_matches_the_schedule_walking_oracle_on_the_modem() {
    let graph = gallery::modem_power();
    let obs = graph.default_observed_actor();
    let result = explore_dependency_guided(
        &graph,
        &ExploreOptions {
            objectives: ObjectiveSpace::with_energy(),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert!(!result.pareto.is_empty());
    for p in result.pareto.points() {
        let schedule =
            Schedule::extract(&graph, &p.distribution, ExplorationLimits::default()).unwrap();
        let oracle = schedule_energy_per_iteration(&graph, &schedule, obs)
            .expect("Pareto points never deadlock");
        assert_eq!(
            p.energy(),
            Some(oracle),
            "closed-form energy must match the schedule walk for γ = {}",
            p.distribution
        );
    }
}

#[test]
fn three_d_front_projects_onto_the_default_front() {
    // Energy is monotone non-increasing in throughput, so declaring the
    // axis must neither add nor remove points: the (size, throughput, γ)
    // projection of the 3D front equals the 2D front exactly. Checked on
    // SDF and CSDF models, across thread counts.
    let graph = gallery::modem_power();
    let plain = explore_sdf(&graph, ExploreOptions::default());
    for threads in [1, test_threads()] {
        let energetic = explore_sdf(
            &graph,
            ExploreOptions {
                threads,
                objectives: ObjectiveSpace::with_energy(),
                ..ExploreOptions::default()
            },
        );
        assert_eq!(
            plain
                .pareto
                .points()
                .iter()
                .map(|p| (p.size, p.throughput, p.distribution.clone()))
                .collect::<Vec<_>>(),
            energetic
                .pareto
                .points()
                .iter()
                .map(|p| (p.size, p.throughput, p.distribution.clone()))
                .collect::<Vec<_>>(),
            "the 3D front must project onto the default front"
        );
        // Same evaluations either way: the energy axis is derived from
        // recorded throughputs, never simulated separately.
        assert_eq!(plain.stats, energetic.stats);
        for p in energetic.pareto.points() {
            assert!(p.energy().is_some());
        }
    }

    let csdf = powered_updown();
    let plain = explore_design_space(&csdf, &ExploreOptions::default()).unwrap();
    let energetic = explore_design_space(
        &csdf,
        &ExploreOptions {
            objectives: ObjectiveSpace::with_energy(),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        plain
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput, p.distribution.clone()))
            .collect::<Vec<_>>(),
        energetic
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput, p.distribution.clone()))
            .collect::<Vec<_>>()
    );
    assert!(energetic
        .pareto
        .points()
        .iter()
        .all(|p| p.energy().is_some()));
}

#[test]
fn throughput_only_pruning_stays_sound_under_the_energy_axis() {
    // The guided search decides what to skip from throughputs and
    // storage dependencies only. Because E(t) = W + I·f/t with
    // W, I, f ≥ 0 is non-increasing in t, a skipped distribution can
    // never have offered strictly lower energy at comparable throughput —
    // so the guided and exhaustive energy-aware runs chart the same 3D
    // front.
    let graph = gallery::modem_power();
    let options = ExploreOptions {
        objectives: ObjectiveSpace::with_energy(),
        ..ExploreOptions::default()
    };
    let exhaustive = explore_sdf(&graph, options.clone());
    let guided = explore_dependency_guided(&graph, &options).unwrap();
    let objectives = |r: &ExplorationResult| {
        r.pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput, p.energy()))
            .collect::<Vec<_>>()
    };
    assert_eq!(objectives(&exhaustive), objectives(&guided));
    // Energy falls (weakly) along the front as throughput rises.
    for pair in exhaustive.pareto.points().windows(2) {
        assert!(pair[1].energy() <= pair[0].energy());
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
