//! Integration tests for the extension modules: latency, shared-memory
//! peaks, the capacity-as-channels transformation, and the CSDF crate —
//! all cross-validated against the core SDF analyses.

use buffy_analysis::{
    latency, shared_memory_peak, throughput, throughput_for, transform, Capacities,
    ExplorationLimits,
};
use buffy_core::{explore_dependency_guided, explore_design_space, ExploreOptions};
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{Rational, StorageDistribution};

/// On every Pareto point of the small gallery graphs: the latency report
/// is consistent with the throughput report (average output interval =
/// 1/throughput).
#[test]
fn latency_consistent_with_throughput() {
    for g in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        let obs = g.default_observed_actor();
        let r = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        for p in r.pareto.points() {
            let lat = latency(&g, &p.distribution, obs, ExplorationLimits::default()).unwrap();
            assert!(!lat.deadlocked);
            let min = lat.min_output_interval.unwrap();
            let max = lat.max_output_interval.unwrap();
            // 1/throughput is the mean interval; it must lie within
            // [min, max].
            let mean = p.throughput.recip();
            assert!(
                Rational::from(min) <= mean && mean <= Rational::from(max),
                "{}: mean {} outside [{min}, {max}]",
                g.name(),
                mean
            );
            assert!(lat.initial_latency.unwrap() >= 1);
        }
    }
}

/// Shared-memory peak is bounded by the distribution size on every Pareto
/// point, and by the sum of per-channel peaks.
#[test]
fn shared_memory_bounded_by_distribution() {
    for g in [gallery::example(), gallery::cd2dat(), gallery::satellite()] {
        let r = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        for p in r.pareto.points() {
            let mem =
                shared_memory_peak(&g, &p.distribution, ExplorationLimits::default()).unwrap();
            assert!(mem.peak_tokens <= p.size, "{}", g.name());
            assert!(mem.peak_tokens <= mem.sum_of_channel_peaks);
            assert!(mem.sum_of_channel_peaks <= p.size);
        }
    }
}

/// The capacity-as-channels transformation preserves throughput on random
/// graphs and random distributions.
#[test]
fn transformation_preserves_throughput_on_random_graphs() {
    for seed in 0..10 {
        let g = RandomGraphConfig {
            actors: 4,
            extra_channels: 1,
            max_repetition: 3,
            max_rate_factor: 2,
            max_execution_time: 3,
            seed: 3000 + seed,
        }
        .generate();
        let obs = g.default_observed_actor();
        let lb = buffy_core::lower_bound_distribution(&g);
        for extra in [0u64, 1, 3] {
            let dist: StorageDistribution = lb.as_slice().iter().map(|&c| c + extra).collect();
            let original = throughput(&g, &dist, obs).unwrap();
            let t = match transform::capacities_as_channels(&g, &dist) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let transformed = throughput_for(
                &t,
                Capacities::unbounded(t.num_channels()),
                t.actor_by_name(g.actor(obs).name()).unwrap(),
                ExplorationLimits::default(),
            )
            .unwrap();
            assert_eq!(
                original.throughput, transformed.throughput,
                "seed {seed} extra {extra}"
            );
        }
    }
}

/// The CSDF embedding of every gallery graph reproduces the SDF
/// throughput at the Pareto distributions.
#[test]
fn csdf_embedding_matches_sdf_gallery() {
    for g in [gallery::example(), gallery::bipartite(), gallery::modem()] {
        let obs = g.default_observed_actor();
        let csdf = CsdfGraph::from_sdf(&g);
        let obs_c = csdf.actor_by_name(g.actor(obs).name()).unwrap();
        let r = explore_dependency_guided(&g, &ExploreOptions::default()).unwrap();
        for p in r.pareto.points() {
            let sdf_r = throughput(&g, &p.distribution, obs).unwrap();
            let csdf_r = throughput(&csdf, &p.distribution, obs_c).unwrap();
            assert_eq!(sdf_r.throughput, csdf_r.throughput, "{}", g.name());
        }
    }
}

/// The CSDF explorer reproduces the SDF Pareto front through the
/// single-phase embedding on random graphs.
#[test]
fn csdf_exploration_matches_sdf_front_on_random_graphs() {
    let mut compared = 0;
    for seed in 0..8 {
        let g = RandomGraphConfig {
            actors: 4,
            extra_channels: 1,
            max_repetition: 2,
            max_rate_factor: 2,
            max_execution_time: 3,
            seed: 4000 + seed,
        }
        .generate();
        let Ok(sdf_result) = explore_dependency_guided(&g, &ExploreOptions::default()) else {
            continue;
        };
        let csdf = CsdfGraph::from_sdf(&g);
        let obs = csdf
            .actor_by_name(g.actor(g.default_observed_actor()).name())
            .unwrap();
        let csdf_result = explore_design_space(
            &csdf,
            &ExploreOptions {
                observed: Some(obs),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let sdf_front: Vec<(u64, Rational)> = sdf_result
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        let csdf_front: Vec<(u64, Rational)> = csdf_result
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        assert_eq!(sdf_front, csdf_front, "seed {}", 4000 + seed);
        compared += 1;
    }
    assert!(compared >= 4, "too few comparable graphs: {compared}");
}

/// The constrained search must probe realizable grid sizes only. Seed
/// 4004 generates a graph whose four channels all have step 2 and whose
/// combined lower bound (size 12) deadlocks; the cheapest live size is 14
/// with throughput 1/9. A binary search probing the hole at size 15 would
/// find no distributions there and wrongly answer 16.
#[test]
fn min_storage_lands_on_realizable_sizes() {
    let g = RandomGraphConfig {
        actors: 4,
        extra_channels: 1,
        max_repetition: 2,
        max_rate_factor: 2,
        max_execution_time: 3,
        seed: 4004,
    }
    .generate();
    let p = buffy_core::min_storage_for_throughput(&g, Rational::new(1, 9), &Default::default())
        .unwrap()
        .point;
    assert_eq!(p.size, 14);
    assert_eq!(p.throughput, Rational::new(1, 9));
}

/// A genuinely cyclo-static behaviour SDF cannot express: zero-rate
/// phases let a smaller buffer reach the same throughput as the SDF
/// worst-case abstraction.
#[test]
fn csdf_needs_less_buffer_than_sdf_abstraction() {
    // CSDF producer: phases (1,1) produce (2,0) — 2 tokens per 2 steps.
    let mut b = CsdfGraph::builder("csdf");
    let p = b.actor("p", vec![1, 1]);
    let c = b.actor("c", vec![1]);
    b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
    let csdf = b.build().unwrap();
    let r = throughput(&csdf, &StorageDistribution::from_capacities(vec![4]), c).unwrap();
    assert_eq!(r.throughput, Rational::ONE);

    // SDF abstraction: one firing per 2 steps producing 2 tokens needs
    // BMLB 2+1-1 = 2, but for throughput 1 of c it needs capacity 4 too;
    // the distinction shows at capacity 2: CSDF deadlock-free with thr
    // 2/3, SDF 1/2 (the SDF burst blocks longer).
    let mut b = buffy_graph::SdfGraph::builder("sdf");
    let p = b.actor("p", 2);
    let c = b.actor("c", 1);
    b.channel("d", p, 2, c, 1).unwrap();
    let sdf = b.build().unwrap();
    let sdf_r = throughput(&sdf, &StorageDistribution::from_capacities(vec![2]), c).unwrap();
    let csdf_r = throughput(
        &csdf,
        &StorageDistribution::from_capacities(vec![2]),
        csdf.actor_by_name("c").unwrap(),
    )
    .unwrap();
    assert!(
        csdf_r.throughput >= sdf_r.throughput,
        "CSDF {} vs SDF {}",
        csdf_r.throughput,
        sdf_r.throughput
    );
}
