//! Tests of per-channel capacity constraints (paper §8: distributed
//! memories impose "extra constraints on the channel capacities", which
//! the exploration takes into account "straightforwardly as extra
//! constraints").

use buffy_core::{
    explore_dependency_guided, explore_design_space, min_storage_for_throughput, ExploreError,
    ExploreOptions,
};
use buffy_gen::gallery;
use buffy_graph::{Rational, StorageDistribution};

fn capped(alpha: u64, beta: u64) -> ExploreOptions {
    ExploreOptions {
        max_channel_caps: Some(StorageDistribution::from_capacities(vec![alpha, beta])),
        ..ExploreOptions::default()
    }
}

/// With α capped at 5, the example graph can reach at most throughput 1/6
/// (reaching 1/5 needs α ≥ 6): the front truncates accordingly and both
/// explorers agree.
#[test]
fn capped_alpha_truncates_front() {
    let g = gallery::example();
    let opts = capped(5, 100);
    let a = explore_design_space(&g, &opts).unwrap();
    let b = explore_dependency_guided(&g, &opts).unwrap();
    let front = |r: &buffy_core::ExplorationResult| {
        r.pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect::<Vec<_>>()
    };
    assert_eq!(front(&a), front(&b));
    assert_eq!(
        a.pareto.maximal().unwrap().throughput,
        Rational::new(1, 6),
        "front: {:?}",
        a.pareto.points()
    );
    // Every witness respects the constraint.
    for p in a.pareto.points() {
        assert!(p.distribution.as_slice()[0] <= 5);
    }
}

/// Constraints tight enough to forbid any positive throughput are
/// reported.
#[test]
fn infeasible_caps_reported() {
    let g = gallery::example();
    // α ≤ 3 < its BMLB bound of 4: nothing can execute.
    let err = explore_design_space(&g, &capped(3, 100)).unwrap_err();
    assert!(matches!(err, ExploreError::NoPositiveThroughput));
}

/// `min_storage_for_throughput` honours the caps: a constraint achievable
/// in general becomes infeasible under them.
#[test]
fn constraint_query_respects_caps() {
    let g = gallery::example();
    // 1/7 is achievable with α ≤ 5 …
    let p = min_storage_for_throughput(&g, Rational::new(1, 7), &capped(5, 100))
        .unwrap()
        .point;
    assert!(p.distribution.as_slice()[0] <= 5);
    assert_eq!(p.size, 6);
    // … but 1/5 is not.
    let err = min_storage_for_throughput(&g, Rational::new(1, 5), &capped(5, 100)).unwrap_err();
    assert!(matches!(err, ExploreError::InfeasibleThroughput { .. }));
}

/// Caps that never bind leave the results unchanged.
#[test]
fn loose_caps_are_neutral() {
    let g = gallery::example();
    let unconstrained = explore_design_space(&g, &ExploreOptions::default()).unwrap();
    let loose = explore_design_space(&g, &capped(1000, 1000)).unwrap();
    let front = |r: &buffy_core::ExplorationResult| {
        r.pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect::<Vec<_>>()
    };
    assert_eq!(front(&unconstrained), front(&loose));
}
