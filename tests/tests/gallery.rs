//! Behavioural checks of the six experimental graphs (paper §11,
//! Table 2): structural counts, liveness, and sane Pareto fronts.

use buffy_analysis::throughput;
use buffy_core::{explore_dependency_guided, explore_design_space, ExploreOptions};
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::h263full;

/// Exploration options per graph: the H.263 decoder's space is capped in
/// debug-mode tests (its full exploration is exercised by the Table 2
/// harness and release benches).
fn options_for(g: &SdfGraph) -> ExploreOptions {
    ExploreOptions {
        max_size: (g.name() == "h263decoder").then_some(1210),
        ..ExploreOptions::default()
    }
}

/// Every gallery graph explores successfully and yields a strictly
/// monotone Pareto front whose top equals the maximal throughput.
#[test]
fn all_gallery_fronts_are_monotone() {
    for g in gallery::all() {
        let capped = g.name() == "h263decoder";
        let r = explore_dependency_guided(&g, &options_for(&g))
            .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        let pts = r.pareto.points();
        assert!(!pts.is_empty(), "{}: empty front", g.name());
        for w in pts.windows(2) {
            assert!(w[0].size < w[1].size, "{}: sizes not increasing", g.name());
            assert!(
                w[0].throughput < w[1].throughput,
                "{}: throughputs not increasing",
                g.name()
            );
        }
        if !capped {
            assert_eq!(
                r.pareto.maximal().unwrap().throughput,
                r.max_throughput,
                "{}: front must reach the maximal throughput",
                g.name()
            );
        }
        assert!(r.pareto.minimal().unwrap().size >= r.lower_bound_size);
        assert!(r.pareto.maximal().unwrap().size <= r.upper_bound_size);
    }
}

/// Fig. 6 property one: either α or β must exceed its lower bound of 1 for
/// a positive throughput — the combined lower bound ⟨1,1,1,1⟩ deadlocks.
#[test]
fn bipartite_lower_bound_deadlocks() {
    let g = gallery::bipartite();
    let d = g.actor_by_name("d").unwrap();
    let lb = StorageDistribution::from_capacities(vec![1, 1, 1, 1]);
    let r = throughput(&g, &lb, d).unwrap();
    assert!(r.deadlocked);

    // Raising either ring channel unblocks the graph.
    for caps in [vec![2, 1, 1, 1], vec![1, 2, 1, 1]] {
        let r = throughput(&g, &StorageDistribution::from_capacities(caps), d).unwrap();
        assert!(!r.deadlocked);
    }
}

/// Fig. 6 property two: storage distributions ⟨1,2,3,3⟩ and ⟨2,1,3,3⟩
/// realize the same throughput for actor d — minimal storage
/// distributions are not unique (§8).
#[test]
fn bipartite_minimal_distributions_not_unique() {
    let g = gallery::bipartite();
    let d = g.actor_by_name("d").unwrap();
    let t1 = throughput(
        &g,
        &StorageDistribution::from_capacities(vec![1, 2, 3, 3]),
        d,
    )
    .unwrap()
    .throughput;
    let t2 = throughput(
        &g,
        &StorageDistribution::from_capacities(vec![2, 1, 3, 3]),
        d,
    )
    .unwrap()
    .throughput;
    assert_eq!(t1, t2);
    assert!(t1 > Rational::ZERO);
}

/// The H.263 decoder's design space contains many Pareto points whose
/// throughputs lie close together — the paper's motivation for
/// quantization (§11) — and quantizing shrinks the reported front
/// drastically.
#[test]
fn h263_quantization_thins_the_front() {
    let g = gallery::h263_decoder();
    // Capped search window (the full space is explored by the Table 2
    // harness); the window already contains several close Pareto points.
    let base = options_for(&g);
    let full = explore_dependency_guided(&g, &base).unwrap();
    assert!(
        full.pareto.len() >= 8,
        "H.263 should expose many close Pareto points, got {}",
        full.pareto.len()
    );
    let quantized = explore_dependency_guided(
        &g,
        &ExploreOptions {
            quantum: Some(Rational::new(1, 100_000)),
            ..base
        },
    )
    .unwrap();
    assert!(quantized.pareto.len() * 2 <= full.pareto.len());
    assert!(!quantized.pareto.is_empty());
}

/// The state spaces stay small across the gallery (Table 2 "maximum
/// #states" row reports small numbers).
#[test]
fn gallery_state_spaces_stay_small() {
    for g in gallery::all() {
        let r = explore_dependency_guided(&g, &options_for(&g)).unwrap();
        assert!(
            r.stats.max_states < 2_000,
            "{}: {} states",
            g.name(),
            r.stats.max_states
        );
    }
}

/// cd2dat: the front's smallest distribution matches the sum of the
/// per-channel BMLB bounds (32), as for the example graph.
#[test]
fn cd2dat_minimum_is_the_combined_lower_bound() {
    let g = gallery::cd2dat();
    let r = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
    assert_eq!(r.lower_bound_size, 32);
    assert_eq!(r.pareto.minimal().unwrap().size, 32);
}

/// The H.263 decoder with the authors' cycle counts. Each analysis spans
/// more than a million time units, but the engine jumps from one firing
/// completion to the next, so both drivers chart the first seven front
/// points quickly — and identically.
#[test]
fn full_count_h263_front_is_exact() {
    let g = h263full();
    let expected: Vec<(u64, Rational, Vec<u64>)> = [
        (1189, 646262, [594, 1, 594]),
        (1190, 358064, [594, 2, 594]),
        (1191, 357505, [595, 2, 594]),
        (1192, 356946, [596, 2, 594]),
        (1193, 356387, [597, 2, 594]),
        (1194, 355828, [598, 2, 594]),
        (1195, 355269, [599, 2, 594]),
    ]
    .into_iter()
    .map(|(size, period, caps)| (size, Rational::new(1, period), caps.to_vec()))
    .collect();
    let options = ExploreOptions {
        max_size: Some(1195),
        ..ExploreOptions::default()
    };
    for (driver, result) in [
        ("guided", explore_dependency_guided(&g, &options)),
        ("exhaustive", explore_design_space(&g, &options)),
    ] {
        let r = result.unwrap_or_else(|e| panic!("{driver}: {e}"));
        let front: Vec<(u64, Rational, Vec<u64>)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput, p.distribution.as_slice().to_vec()))
            .collect();
        assert_eq!(front, expected, "{driver}");
        assert_eq!(r.stats.max_states, 2, "{driver}");
    }
}
