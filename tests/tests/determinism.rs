//! Cross-thread determinism of the exploration runtime.
//!
//! The runtime consumes candidate distributions in fixed-size chunks
//! regardless of the thread count. Workers answer a chunk's candidates
//! speculatively, in any order, and the pipeline commits the answers in
//! enumeration order up to the sweep's stop: only commits reach the memo,
//! the events, the statistics and the budgets. So a parallel exploration
//! must produce a byte-identical Pareto front, identical statistics
//! (analyses run, cache hits, largest state space), the same event
//! sequence apart from timing, and the same budget truncations as the
//! sequential one — on SDF and CSDF models alike. These are regression
//! tests for that guarantee: any scheduling-dependent evaluation order
//! would show up here as a diverging evaluation count or event.

use buffy_analysis::{CancelToken, DataflowSemantics};
use buffy_core::{
    explore_dependency_guided, explore_design_space, Event, ExplorationResult, ExploreError,
    ExploreObserver, ExploreOptions,
};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery;
use buffy_graph::SdfGraph;
use buffy_integration_tests::{burst_csdf, test_threads};
use std::sync::{Arc, Mutex};

fn explore_with(graph: &SdfGraph, threads: usize) -> ExplorationResult {
    explore_design_space(
        graph,
        &ExploreOptions {
            threads,
            ..ExploreOptions::default()
        },
    )
    .unwrap()
}

/// The front rendered to bytes: distribution capacities included, so two
/// fronts compare byte-for-byte, not just by (size, throughput).
fn front_bytes(points: &[buffy_core::ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

#[test]
fn sdf_exploration_is_deterministic_across_thread_counts() {
    for graph in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        let seq = explore_with(&graph, 1);
        let par = explore_with(&graph, test_threads());
        assert_eq!(
            front_bytes(seq.pareto.points()),
            front_bytes(par.pareto.points()),
            "{}: fronts must be byte-identical",
            graph.name()
        );
        // ExplorationStats compares evaluations, cache hits and max
        // states (wall time is exempt from equality by design).
        assert_eq!(
            seq.stats,
            par.stats,
            "{}: statistics must not depend on the thread count",
            graph.name()
        );
        assert_eq!(seq.max_throughput, par.max_throughput);
        assert_eq!(seq.lower_bound_size, par.lower_bound_size);
        assert_eq!(seq.upper_bound_size, par.upper_bound_size);
    }
}

#[test]
fn sdf_auto_detected_threads_match_sequential() {
    let graph = gallery::example();
    let seq = explore_with(&graph, 1);
    let auto = explore_with(&graph, 0); // 0 = available_parallelism
    assert_eq!(
        front_bytes(seq.pareto.points()),
        front_bytes(auto.pareto.points())
    );
    assert_eq!(seq.stats, auto.stats);
}

#[test]
fn csdf_exploration_is_deterministic_across_thread_counts() {
    // A genuinely phased graph and an embedded-SDF one.
    let mut b = CsdfGraph::builder("burst3");
    let p = b.actor("p", vec![1, 1, 1]);
    let c = b.actor("c", vec![2]);
    b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
    let burst = b.build().unwrap();
    let embedded = CsdfGraph::from_sdf(&gallery::example());

    for (name, graph) in [("burst3", &burst), ("example", &embedded)] {
        let run = |threads: usize| {
            explore_design_space(
                graph,
                &ExploreOptions {
                    threads,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        let par = run(test_threads());
        assert_eq!(
            front_bytes(seq.pareto.points()),
            front_bytes(par.pareto.points()),
            "{name}: fronts must be byte-identical"
        );
        assert_eq!(
            seq.stats, par.stats,
            "{name}: statistics must not depend on the thread count"
        );
    }
}

/// The dependency-guided driver, on SDF graphs and on genuinely phased
/// CSDF ones: its front and statistics do not depend on the thread count
/// either.
#[test]
fn guided_exploration_is_deterministic_across_thread_counts() {
    fn check<M: DataflowSemantics + Sync>(graph: &M, name: &str) {
        let run = |threads: usize| {
            explore_dependency_guided(
                graph,
                &ExploreOptions {
                    threads,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let seq = run(1);
        let par = run(test_threads());
        assert_eq!(
            front_bytes(seq.pareto.points()),
            front_bytes(par.pareto.points()),
            "{name}: fronts must be byte-identical"
        );
        assert_eq!(
            seq.stats, par.stats,
            "{name}: statistics must not depend on the thread count"
        );
    }
    for graph in [gallery::example(), gallery::modem()] {
        check(&graph, graph.name());
    }
    for graph in [
        buffy_csdf::gallery::updown(),
        buffy_csdf::gallery::line_scaler(),
    ] {
        check(&graph, graph.name());
    }
}

/// Every event of a run, rendered without its timing fields.
#[derive(Default)]
struct Transcript(Mutex<Vec<String>>);

impl ExploreObserver for Transcript {
    fn event(&self, event: &Event<'_>) {
        let line = match *event {
            Event::Phase(phase) => format!("phase {}", phase.name()),
            Event::Evaluated {
                dist,
                throughput,
                states,
                ..
            } => format!("evaluated {dist} {throughput} {states}"),
            Event::CacheHit(dist) => format!("hit {dist}"),
            Event::Failed { dist, message } => format!("failed {dist} {message}"),
            Event::Accepted(p) => format!("accepted {p}"),
            Event::End { reason } => format!("end {reason}"),
        };
        self.0.lock().unwrap().push(line);
    }
}

/// The exhaustive driver's event sequence, timing aside, with and without
/// a quantum.
fn exhaustive_events<M: DataflowSemantics + Sync>(model: &M, threads: usize) -> Vec<String> {
    let mut all = Vec::new();
    for quantum in [None, Some(buffy_graph::Rational::new(1, 1000))] {
        let transcript = Arc::new(Transcript::default());
        explore_design_space(
            model,
            &ExploreOptions {
                threads,
                quantum,
                observer: Some(transcript.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        all.extend(std::mem::take(&mut *transcript.0.lock().unwrap()));
    }
    all
}

#[test]
fn exhaustive_event_sequences_do_not_depend_on_the_thread_count() {
    for graph in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ] {
        let seq = exhaustive_events(&graph, 1);
        assert!(seq.iter().any(|e| e.starts_with("evaluated")));
        assert_eq!(
            seq,
            exhaustive_events(&graph, test_threads()),
            "{}: events must not depend on the thread count",
            graph.name()
        );
    }
    for graph in [
        burst_csdf(),
        buffy_csdf::gallery::updown(),
        buffy_csdf::gallery::line_scaler(),
    ] {
        assert_eq!(
            exhaustive_events(&graph, 1),
            exhaustive_events(&graph, test_threads()),
            "{}: events must not depend on the thread count",
            graph.name()
        );
    }
}

/// Runs the exhaustive driver on `graph` under an evaluation budget of
/// `budget` with `threads` workers.
fn budgeted(
    graph: &SdfGraph,
    budget: u64,
    threads: usize,
) -> Result<ExplorationResult, ExploreError> {
    explore_design_space(
        graph,
        &ExploreOptions {
            threads,
            cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
            ..ExploreOptions::default()
        },
    )
}

/// Every evaluation budget up to a full run truncates the exhaustive
/// driver at the same request at 1 and at N threads, and the partial
/// result is sound: each point is achievable, and each point of the full
/// front that it lacks lies at a size it lists as skipped (the upper-bound
/// size too, when the budget trips before the deferred sweep of that
/// size).
#[test]
fn eval_budget_truncations_do_not_depend_on_the_thread_count() {
    for graph in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        let full = explore_with(&graph, 1);
        let top = full.pareto.maximal().unwrap().size;
        let mut unswept_top = 0;
        for budget in 1..=full.stats.evaluations {
            let case = format!("{} budget {budget}", graph.name());
            let seq = budgeted(&graph, budget, 1);
            let par = budgeted(&graph, budget, test_threads());
            let (seq, par) = match (seq, par) {
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{case}");
                    continue;
                }
                (Ok(seq), Ok(par)) => (seq, par),
                (a, b) => panic!("{case}: {a:?} against {b:?}"),
            };
            assert_eq!(
                front_bytes(seq.pareto.points()),
                front_bytes(par.pareto.points()),
                "{case}"
            );
            assert_eq!(seq.stats, par.stats, "{case}");
            assert_eq!(seq.completeness, par.completeness, "{case}");
            assert_eq!(seq.skipped, par.skipped, "{case}");
            assert_eq!(
                seq.completeness.exact,
                budget == full.stats.evaluations,
                "{case}"
            );
            for p in seq.pareto.points() {
                assert!(
                    full.pareto
                        .points()
                        .iter()
                        .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                    "{case}: stray point {p}"
                );
            }
            for q in full.pareto.points() {
                let found = seq.pareto.points().contains(q);
                let listed = seq.skipped.iter().any(|s| s.size == q.size);
                assert!(found || listed, "{case}: {q} neither found nor skipped");
                if q.size == top && !found {
                    unswept_top += 1;
                }
            }
        }
        // The budgets that trip before the last sweep leave the top size
        // unswept.
        assert!(unswept_top > 0, "{}", graph.name());
    }
}
