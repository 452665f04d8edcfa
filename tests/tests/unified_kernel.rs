//! Cross-model guarantees of the unified execution-and-exploration
//! kernel.
//!
//! Since PR 2 the timed engine, the reduced-state-space throughput
//! analysis, and the design-space exploration drivers are implemented
//! once against `buffy_analysis::DataflowSemantics`, with `SdfGraph` and
//! `CsdfGraph` as the two model implementations. Every SDF graph embeds
//! as a single-phase CSDF graph, and through the shared kernel the two
//! routes must agree *exactly* — same states, same reports, same fronts —
//! not merely up to throughput values.

use buffy_analysis::{throughput_for, Capacities, ExplorationLimits};
use buffy_core::{explore_design_space, lower_bound_distribution, ExploreOptions};
use buffy_csdf::CsdfGraph;
use buffy_gen::RandomGraphConfig;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};

fn paper_example() -> SdfGraph {
    let mut b = SdfGraph::builder("example");
    let a = b.actor("a", 1);
    let bb = b.actor("b", 2);
    let c = b.actor("c", 2);
    b.channel("alpha", a, 2, bb, 3).unwrap();
    b.channel("beta", bb, 1, c, 2).unwrap();
    b.build().unwrap()
}

/// The same kernel analysis run through both trait implementations must
/// produce byte-identical reports: every field, not just the throughput.
#[test]
fn single_phase_reports_are_byte_identical() {
    for seed in 7000..7010u64 {
        let sdf = RandomGraphConfig::small(seed).generate();
        let csdf = CsdfGraph::from_sdf(&sdf);
        let obs = sdf.default_observed_actor();
        let mut caps: Vec<u64> = lower_bound_distribution(&sdf).as_slice().to_vec();
        // Probe the lower-bound corner and two roomier distributions.
        for bump in 0..3u64 {
            let dist = StorageDistribution::from_capacities(caps.clone());
            let s = throughput_for(
                &sdf,
                Capacities::from_distribution(&dist),
                obs,
                ExplorationLimits::default(),
            );
            let c = throughput_for(
                &csdf,
                Capacities::from_distribution(&dist),
                obs,
                ExplorationLimits::default(),
            );
            match (s, c) {
                (Ok(s), Ok(c)) => {
                    assert_eq!(s, c, "seed {seed} bump {bump}: reports diverge");
                    assert_eq!(
                        format!("{s:?}"),
                        format!("{c:?}"),
                        "seed {seed} bump {bump}"
                    );
                }
                (Err(se), Err(ce)) => {
                    assert_eq!(se.to_string(), ce.to_string(), "seed {seed} bump {bump}");
                }
                (s, c) => panic!("seed {seed} bump {bump}: one route failed: {s:?} vs {c:?}"),
            }
            for cap in caps.iter_mut() {
                *cap += 1;
            }
        }
    }
}

/// The full exploration of a single-phase embedding must reproduce the
/// SDF Pareto set byte for byte — identical grids, identical fronts,
/// identical distributions at each point.
#[test]
fn single_phase_pareto_sets_are_byte_identical() {
    for seed in 7000..7006u64 {
        let sdf = RandomGraphConfig::small(seed).generate();
        let csdf = CsdfGraph::from_sdf(&sdf);
        let s = explore_design_space(&sdf, &ExploreOptions::default());
        let c = explore_design_space(&csdf, &ExploreOptions::default());
        match (s, c) {
            (Ok(s), Ok(c)) => {
                assert_eq!(s.pareto, c.pareto, "seed {seed}: fronts diverge");
                assert_eq!(format!("{:?}", s.pareto), format!("{:?}", c.pareto));
                assert_eq!(s.max_throughput, c.max_throughput, "seed {seed}");
            }
            (Err(se), Err(ce)) => {
                assert_eq!(se.to_string(), ce.to_string(), "seed {seed}");
            }
            (s, c) => panic!("seed {seed}: one route failed: {s:?} vs {c:?}"),
        }
    }
}

/// The generic driver invoked on the CSDF embedding agrees with the SDF
/// run on the paper's running example.
#[test]
fn generic_driver_matches_typed_wrappers_on_the_paper_example() {
    let sdf = paper_example();
    let csdf = CsdfGraph::from_sdf(&sdf);
    let s = explore_design_space(&sdf, &ExploreOptions::default()).unwrap();
    let g = explore_design_space(&csdf, &ExploreOptions::default()).unwrap();
    assert_eq!(s.pareto, g.pareto);
    let front: Vec<(u64, Rational)> = s
        .pareto
        .points()
        .iter()
        .map(|p| (p.size, p.throughput))
        .collect();
    assert_eq!(
        front,
        vec![
            (6, Rational::new(1, 7)),
            (8, Rational::new(1, 6)),
            (9, Rational::new(1, 5)),
            (10, Rational::new(1, 4)),
        ]
    );
}

/// Exploration statistics regression: the memoized evaluator is exercised
/// by the CSDF path. A multi-point exploration revisits distributions
/// (the divide-and-conquer probes overlap), so the cache must answer some
/// requests — misses (`evaluations`) stay strictly below total requests.
#[test]
fn csdf_exploration_exercises_the_memo_cache() {
    let sdf = paper_example();
    let csdf = CsdfGraph::from_sdf(&sdf);
    let r = explore_design_space(&csdf, &ExploreOptions::default()).unwrap();
    assert!(r.pareto.len() >= 4, "need a multi-point exploration");
    assert!(r.stats.evaluations > 0);
    assert!(
        r.stats.cache_hits > 0,
        "expected repeated evaluation requests to hit the cache \
         (evaluations {}, cache hits {})",
        r.stats.evaluations,
        r.stats.cache_hits
    );
    assert!(
        r.stats.evaluations < r.stats.requests(),
        "cache misses must stay strictly below total requests"
    );
    // The threaded exploration reports the same front and the same number
    // of distinct analyses (the cache is shared across workers).
    let threaded = explore_design_space(
        &csdf,
        &ExploreOptions {
            threads: 2,
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(r.pareto, threaded.pareto);
}
