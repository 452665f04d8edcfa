//! Cross-thread determinism of the exploration runtime.
//!
//! The runtime consumes candidate distributions in fixed-size chunks
//! regardless of the thread count, so a parallel exploration must produce
//! a byte-identical Pareto front *and* identical statistics (analyses
//! run, cache hits, largest state space) to the sequential one — on SDF
//! and CSDF models alike. These are regression tests for that guarantee:
//! any scheduling-dependent evaluation order would show up here as a
//! diverging evaluation count.

use buffy_core::{explore_design_space, ExplorationResult, ExploreOptions};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery;
use buffy_graph::SdfGraph;
use buffy_integration_tests::test_threads;

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
