//! Neighbour warm starts never change results — only allocations.
//!
//! The evaluation pipeline seeds each cold analysis's allocations from a
//! neighbouring distribution's recorded state count. That hint is an
//! allocation-layer effect only: self-timed execution is a deterministic
//! function of the model and the capacities, so hash-table pre-sizing
//! cannot alter any computed value. These properties pin the guarantee
//! down: with warm starts on or off, at one worker or many, on SDF and
//! CSDF models, under both drivers, the fronts are byte-identical and the
//! statistics equal (the warm-start tallies themselves are excluded from
//! `ExplorationStats` equality by design, like wall time) — and a
//! checkpoint-resumed run still reproduces the uninterrupted one exactly.

use std::sync::{Arc, Mutex};

use buffy_core::{
    explore_dependency_guided, explore_design_space, CancelToken, ExplorationResult,
    ExploreObserver, ExploreOptions, ParetoPoint, WarmStart,
};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::test_threads;

fn front_bytes(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

fn explore_with(graph: &SdfGraph, threads: usize, warm: bool) -> ExplorationResult {
    explore_design_space(
        graph,
        &ExploreOptions {
            threads,
            warm_start_neighbours: warm,
            ..ExploreOptions::default()
        },
    )
    .unwrap()
}

/// Exhaustive driver, SDF: warm starts change the warm-start tallies and
/// nothing else, at one worker and at the test thread count.
#[test]
fn sdf_fronts_identical_with_and_without_warm_starts() {
    for graph in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        let cold = explore_with(&graph, 1, false);
        assert_eq!(cold.stats.warm_starts, 0, "{}", graph.name());
        assert_eq!(cold.stats.warm_start_states, 0, "{}", graph.name());
        for threads in [1, test_threads()] {
            let warm = explore_with(&graph, threads, true);
            assert_eq!(
                front_bytes(cold.pareto.points()),
                front_bytes(warm.pareto.points()),
                "{}, threads {threads}: fronts must be byte-identical",
                graph.name()
            );
            assert_eq!(
                cold.stats,
                warm.stats,
                "{}, threads {threads}: statistics must not depend on warm starts",
                graph.name()
            );
            assert_eq!(cold.max_throughput, warm.max_throughput);
            if threads == 1 {
                // Sequentially the memo always holds the neighbours of
                // later candidates, so some evaluations must be seeded.
                assert!(warm.stats.warm_starts > 0, "{}", graph.name());
                assert!(warm.stats.warm_start_states > 0, "{}", graph.name());
            }
        }
    }
}

/// Dependency-guided driver: same guarantee through the shared pipeline.
#[test]
fn guided_fronts_identical_with_and_without_warm_starts() {
    for graph in [gallery::example(), gallery::modem()] {
        let run = |threads: usize, warm: bool| {
            explore_dependency_guided(
                &graph,
                &ExploreOptions {
                    threads,
                    warm_start_neighbours: warm,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let cold = run(1, false);
        assert_eq!(cold.stats.warm_starts, 0, "{}", graph.name());
        for threads in [1, test_threads()] {
            let warm = run(threads, true);
            assert_eq!(
                front_bytes(cold.pareto.points()),
                front_bytes(warm.pareto.points()),
                "{}, threads {threads}",
                graph.name()
            );
            assert_eq!(
                cold.stats,
                warm.stats,
                "{}, threads {threads}",
                graph.name()
            );
        }
    }
}

/// CSDF explorer: warm starts are equally invisible for phased graphs and
/// for embedded-SDF ones.
#[test]
fn csdf_fronts_identical_with_and_without_warm_starts() {
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    let burst = b.build().unwrap();
    let embedded = CsdfGraph::from_sdf(&gallery::example());

    for (name, graph) in [("burst3", &burst), ("example", &embedded)] {
        let run = |threads: usize, warm: bool| {
            explore_design_space(
                graph,
                &ExploreOptions {
                    threads,
                    warm_start_neighbours: warm,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let cold = run(1, false);
        assert_eq!(cold.stats.warm_starts, 0, "{name}");
        for threads in [1, test_threads()] {
            let warm = run(threads, true);
            assert_eq!(
                front_bytes(cold.pareto.points()),
                front_bytes(warm.pareto.points()),
                "{name}, threads {threads}: fronts must be byte-identical"
            );
            assert_eq!(cold.stats, warm.stats, "{name}, threads {threads}");
        }
    }
}

/// Records every evaluation in the shape a checkpoint persists them.
#[derive(Default)]
struct Recorder {
    entries: Mutex<Vec<(StorageDistribution, Rational, u64)>>,
}

impl ExploreObserver for Recorder {
    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        _nanos: u64,
    ) {
        self.entries
            .lock()
            .unwrap()
            .push((dist.clone(), throughput, states));
    }
}

impl Recorder {
    fn take_warm_start(&self) -> WarmStart {
        std::mem::take(&mut *self.entries.lock().unwrap())
            .into_iter()
            .map(|(d, t, s)| (d, (t, s)))
            .collect()
    }
}

/// Checkpoint/resume interaction: interrupt a warm-started run, replay
/// its recorded evaluations, and the resumed run — with neighbour warm
/// starts on or off — still reproduces the uninterrupted front and
/// statistics exactly. Replayed records carry real state counts, so they
/// may themselves seed neighbours; that must stay invisible too.
#[test]
fn checkpoint_resume_composes_with_warm_starts() {
    let graph = gallery::example();
    let exact = explore_with(&graph, 1, true);
    assert!(exact.stats.evaluations > 2);

    let rec = Arc::new(Recorder::default());
    let budget = exact.stats.evaluations / 2;
    let interrupted = ExploreOptions {
        cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget.max(1)))),
        observer: Some(rec.clone()),
        ..ExploreOptions::default()
    };
    let _ = explore_design_space(&graph, &interrupted);
    let warm_map = Arc::new(rec.take_warm_start());
    assert!(!warm_map.is_empty());

    for threads in [1, test_threads()] {
        for neighbours in [true, false] {
            let resumed = explore_design_space(
                &graph,
                &ExploreOptions {
                    threads,
                    warm_start: Some(Arc::clone(&warm_map)),
                    warm_start_neighbours: neighbours,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert!(resumed.completeness.exact);
            assert_eq!(
                front_bytes(exact.pareto.points()),
                front_bytes(resumed.pareto.points()),
                "threads {threads}, neighbours {neighbours}"
            );
            assert_eq!(
                exact.stats, resumed.stats,
                "threads {threads}, neighbours {neighbours}"
            );
        }
    }
}
