//! Property tests for the static certificates and the prune oracle: the
//! capacity-aware cycle-ratio bound behind `buffy bounds` and lints
//! B010/B011 must upper-bound the exact (state-space) throughput on
//! arbitrary graphs, the dominance order the prune oracle relies on must
//! agree with the exact engine, and switching the oracle off must leave
//! every front byte-identical — at one worker and at the CI worker count,
//! for SDF and CSDF models alike.

use buffy_analysis::{
    throughput_for, Capacities, DataflowSemantics, ExplorationLimits, StaticBounds,
};
use buffy_core::{
    explore_dependency_guided, explore_design_space, lower_bound_distribution, ExplorationResult,
    ExploreOptions,
};
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use buffy_integration_tests::{burst_csdf, test_threads};

/// The lower-bound distribution and two componentwise-larger variants.
fn sample_distributions<M: DataflowSemantics>(model: &M) -> Vec<StorageDistribution> {
    let lb = lower_bound_distribution(model);
    let plus: StorageDistribution = lb.as_slice().iter().map(|&c| c + 2).collect();
    let doubled: StorageDistribution = lb.as_slice().iter().map(|&c| c * 2).collect();
    vec![lb, plus, doubled]
}

fn exact_throughput<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
) -> Option<(Rational, bool)> {
    throughput_for(
        model,
        Capacities::from_distribution(dist),
        observed,
        ExplorationLimits::default(),
    )
    .ok()
    .map(|r| (r.throughput, r.deadlocked))
}

/// The certificate (and every relaxed per-channel certificate) never
/// under-bounds the exact throughput, and a statically proven deadlock is
/// a real one.
fn assert_sound_certificates<M: DataflowSemantics>(model: &M, observed: ActorId, label: &str) {
    let Ok(bounds) = StaticBounds::new(model, observed) else {
        return;
    };
    if !bounds.is_usable() {
        return;
    }
    for dist in sample_distributions(model) {
        let Some(cert) = bounds.certificate(&dist) else {
            continue;
        };
        let Some((exact, deadlocked)) = exact_throughput(model, &dist, observed) else {
            continue;
        };
        assert!(
            cert.bound >= exact,
            "{label} {dist}: static bound {} below exact {exact}",
            cert.bound
        );
        if cert.deadlocked {
            // The deadlock direction is exact, not just a bound.
            assert!(deadlocked, "{label} {dist}: static deadlock but live run");
            assert_eq!(exact, Rational::ZERO);
        }
        for i in 0..model.num_channels() {
            let id = ChannelId::new(i);
            if let Some(relaxed) = bounds.channel_bound(id, dist.get(id)) {
                assert!(
                    relaxed.bound >= cert.bound,
                    "{label} {dist}: relaxing to channel {i} tightened the bound \
                     ({} < {})",
                    relaxed.bound,
                    cert.bound
                );
            }
        }
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_random_sdf_graphs() {
    for seed in 0..20 {
        let g = RandomGraphConfig::small(3000 + seed).generate();
        let label = format!("seed {seed}");
        assert_sound_certificates(&g, g.default_observed_actor(), &label);
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_gallery_graphs() {
    for g in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ] {
        assert_sound_certificates(&g, g.default_observed_actor(), g.name());
    }
}

#[test]
fn static_certificate_upper_bounds_exact_throughput_on_csdf_graphs() {
    let burst = burst_csdf();
    assert_sound_certificates(&burst, burst.default_observed_actor(), "burst3");
    for seed in 0..10 {
        let g = CsdfGraph::from_sdf(&RandomGraphConfig::small(3100 + seed).generate());
        let label = format!("embedded seed {seed}");
        assert_sound_certificates(&g, g.default_observed_actor(), &label);
    }
}

/// The monotone dominance the prune oracle exploits: a distribution that
/// dominates another (componentwise ≥ capacities) never runs slower.
#[test]
fn exact_throughput_respects_the_dominance_order() {
    for seed in 0..12 {
        let g = RandomGraphConfig::small(3200 + seed).generate();
        let obs = g.default_observed_actor();
        let dists = sample_distributions(&g);
        let evaluated: Vec<(StorageDistribution, Rational)> = dists
            .into_iter()
            .filter_map(|d| exact_throughput(&g, &d, obs).map(|(t, _)| (d, t)))
            .collect();
        for (d1, t1) in &evaluated {
            for (d2, t2) in &evaluated {
                if d1.dominates(d2) {
                    assert!(t1 >= t2, "seed {seed}: {d1} dominates {d2} but {t1} < {t2}");
                }
            }
        }
    }
}

/// The front rendered to bytes: distribution capacities included, so two
/// fronts compare byte-for-byte, not just by (size, throughput).
fn front_bytes(points: &[buffy_core::ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

/// Runs `explore` with the oracle on and off, at one worker and at the
/// CI worker count, and demands byte-identical fronts throughout.
fn assert_prune_invisible<M, F>(model: &M, label: &str, explore: F)
where
    M: DataflowSemantics + Sync,
    F: Fn(&M, &ExploreOptions) -> ExplorationResult,
{
    let run = |threads: usize, prune: bool| {
        explore(
            model,
            &ExploreOptions {
                threads,
                prune,
                ..ExploreOptions::default()
            },
        )
    };
    let reference = run(1, false);
    for threads in [1, test_threads()] {
        let pruned = run(threads, true);
        assert_eq!(
            front_bytes(reference.pareto.points()),
            front_bytes(pruned.pareto.points()),
            "{label}: pruning changed the front at {threads} thread(s)"
        );
        assert_eq!(reference.max_throughput, pruned.max_throughput, "{label}");
        assert!(
            pruned.stats.evaluations <= reference.stats.evaluations,
            "{label}: pruning must never add evaluations"
        );
    }
}

#[test]
fn pruning_preserves_exhaustive_fronts_on_sdf_graphs() {
    for g in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ] {
        assert_prune_invisible(&g, g.name(), |m, o| explore_design_space(m, o).unwrap());
    }
    for seed in 0..8 {
        let g = RandomGraphConfig::small(3300 + seed).generate();
        let label = format!("seed {seed}");
        assert_prune_invisible(&g, &label, |m, o| explore_design_space(m, o).unwrap());
    }
}

#[test]
fn pruning_preserves_guided_fronts_on_sdf_graphs() {
    for g in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ] {
        assert_prune_invisible(&g, g.name(), |m, o| {
            explore_dependency_guided(m, o).unwrap()
        });
    }
    for seed in 0..8 {
        let g = RandomGraphConfig::small(3400 + seed).generate();
        let label = format!("seed {seed}");
        assert_prune_invisible(&g, &label, |m, o| explore_dependency_guided(m, o).unwrap());
    }
}

#[test]
fn pruning_preserves_fronts_on_csdf_graphs() {
    let burst = burst_csdf();
    let embedded = CsdfGraph::from_sdf(&gallery::example());
    for (label, g) in [("burst3", &burst), ("embedded example", &embedded)] {
        assert_prune_invisible(g, label, |m, o| explore_design_space(m, o).unwrap());
        assert_prune_invisible(g, label, |m, o| explore_dependency_guided(m, o).unwrap());
    }
}

/// The pinned maximal throughput and static certificates of
/// [`high_rate_graph_certificates_are_pinned`]'s graph.
fn assert_high_rate_certificates<M: DataflowSemantics>(model: &M) {
    let observed = model.default_observed_actor();
    assert_eq!(
        buffy_analysis::maximal_throughput(model, observed).unwrap(),
        Rational::new(1, 40000)
    );
    let bounds = StaticBounds::new(model, observed).unwrap();
    let lb = lower_bound_distribution(model);
    assert_eq!(lb.as_slice(), &[39998, 20000]);
    let cert = bounds.certificate(&lb).unwrap();
    assert_eq!(cert.bound, Rational::new(1, 60000));
    assert_eq!(cert.lambda, Some(Rational::from_integer(60000)));
    let relaxed: Vec<Rational> = (0..2)
        .map(|i| {
            let id = ChannelId::new(i);
            bounds.channel_bound(id, lb.get(id)).unwrap().bound
        })
        .collect();
    assert_eq!(
        relaxed,
        vec![Rational::new(1, 59999), Rational::new(1, 40002)]
    );
}

/// The running example with rates that move 4·10⁸ tokens per iteration
/// over α: q = (19999, 20000, 1). The expansion walks consuming firings,
/// not tokens, so the maximal throughput and the static certificates of
/// the SDF graph and of its CSDF embedding take well under a second.
#[test]
fn high_rate_graph_certificates_are_pinned() {
    let mut b = buffy_graph::SdfGraph::builder("example");
    let a = b.actor("a", 1);
    let bb = b.actor("b", 2);
    let c = b.actor("c", 2);
    b.channel("alpha", a, 20000, bb, 19999).unwrap();
    b.channel("beta", bb, 1, c, 20000).unwrap();
    let sdf = b.build().unwrap();
    assert_eq!(sdf.repetition_cycles().unwrap(), vec![19999, 20000, 1]);
    assert_high_rate_certificates(&sdf);
    assert_high_rate_certificates(&CsdfGraph::from_sdf(&sdf));
}
