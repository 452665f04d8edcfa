//! Tests of per-channel capacity constraints (paper §8: distributed
//! memories impose "extra constraints on the channel capacities", which
//! the exploration takes into account "straightforwardly as extra
//! constraints").

use buffy_analysis::DataflowSemantics;
use buffy_core::{
    explore_dependency_guided, explore_design_space, lower_bound_distribution,
    min_storage_for_throughput, ExploreError, ExploreOptions,
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
/// reported by both drivers and by the constraint query, for SDF and
/// CSDF alike.
#[test]
fn infeasible_caps_reported() {
    fn check<M: DataflowSemantics + Sync>(model: &M, opts: &ExploreOptions, thr: Rational) {
        let name = model.name();
        for (driver, result) in [
            ("exhaustive", explore_design_space(model, opts)),
            ("guided", explore_dependency_guided(model, opts)),
        ] {
            let err = result.map(|r| r.pareto.points().to_vec()).unwrap_err();
            assert!(
                matches!(err, ExploreError::NoPositiveThroughput),
                "{name} {driver}: {err:?}"
            );
        }
        let err = min_storage_for_throughput(model, thr, opts)
            .map(|r| r.point)
            .unwrap_err();
        assert!(
            matches!(err, ExploreError::InfeasibleThroughput { .. }),
            "{name}: {err:?}"
        );
    }
    // α ≤ 3 < its BMLB bound of 4: nothing can execute.
    check(&gallery::example(), &capped(3, 100), Rational::new(1, 7));
    // The scaler's `blocks` channel needs 4 (a burst of 4 blocks).
    check(
        &buffy_csdf::gallery::line_scaler(),
        &capped(3, 100),
        Rational::new(1, 2),
    );
}

/// Caps exactly at the channel lower bounds leave the lower-bound
/// distribution, the only point within them, to both drivers and to the
/// constraint query.
#[test]
fn caps_at_the_lower_bounds_chart_the_lower_bound_point() {
    fn check<M: DataflowSemantics + Sync>(model: &M, at_lb: Rational) {
        let lb = lower_bound_distribution(model);
        let opts = ExploreOptions {
            max_channel_caps: Some(lb.clone()),
            ..ExploreOptions::default()
        };
        let name = model.name();
        for (driver, result) in [
            ("exhaustive", explore_design_space(model, &opts)),
            ("guided", explore_dependency_guided(model, &opts)),
        ] {
            let front: Vec<_> = result
                .unwrap()
                .pareto
                .points()
                .iter()
                .map(|p| (p.distribution.clone(), p.throughput))
                .collect();
            assert_eq!(front, vec![(lb.clone(), at_lb)], "{name} {driver}");
        }
        let point = min_storage_for_throughput(model, at_lb, &opts)
            .unwrap()
            .point;
        assert_eq!(
            (point.distribution, point.throughput),
            (lb, at_lb),
            "{name}"
        );
    }
    check(&gallery::example(), Rational::new(1, 7));
    check(&buffy_csdf::gallery::line_scaler(), Rational::new(1, 2));
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
