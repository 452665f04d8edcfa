//! Pair bounds are sound upper bounds and grow with capacity.
//!
//! `PairBounds` bounds the throughput of a distribution `d` by
//! `min_i P_i(d_i)`, where `P_i(c)` is the scaled throughput of channel
//! `i`'s two-actor model at capacity `c`. The exhaustive sweep skips
//! every candidate whose bound falls below what it has proven, so a bound
//! below the exact throughput would drop front points.
//! These tests compare each bound with the exact throughput on every grid
//! distribution a few steps above the lower bounds, and require each
//! `P_i` to be nondecreasing, on both galleries, on random graphs of the
//! small and mixed-step families and on their CSDF embeddings.

use buffy_analysis::{
    throughput_for, AnalysisRequest, AnalysisWorkspace, Capacities, DataflowSemantics,
    ExplorationLimits, PairBounds,
};
use buffy_core::DistributionSpace;
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{ChannelId, Rational, StorageDistribution};
use buffy_integration_tests::burst_csdf;

/// Every vector of `n` non-negative step counts summing to at most `k`.
fn step_vectors(n: usize, k: u64) -> Vec<Vec<u64>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..=k {
        for mut rest in step_vectors(n - 1, k - first) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

/// Requires `P_i` to be nondecreasing over the first `steps + 2` grid
/// capacities of every channel, and the exact throughput of every grid
/// distribution at most `steps` steps above the minimum to stay within
/// `min_i P_i(d_i)`. A channel whose pair analysis fails has no bound.
fn assert_sound<M: DataflowSemantics>(label: &str, model: &M, steps: u64) {
    let observed = model.default_observed_actor();
    let pairs = PairBounds::new(model, observed).unwrap();
    assert!(pairs.is_usable(), "{label}: connected models have bounds");
    let space = DistributionSpace::for_model(model);
    let mins = space.min_distribution();
    let grid_steps: Vec<u64> = (0..space.len())
        .map(|i| model.channel_step(ChannelId::new(i)))
        .collect();
    let request = AnalysisRequest::default();
    let mut workspace = AnalysisWorkspace::new();
    // bounds[i][k] = P_i(min_i + k·step_i), `None` when the channel has none.
    let bounds: Vec<Vec<Option<Rational>>> = (0..space.len())
        .map(|i| {
            let channel = ChannelId::new(i);
            let column: Vec<Option<Rational>> = (0..steps + 2)
                .map(|k| {
                    let capacity = mins.get(channel) + k * grid_steps[i];
                    pairs
                        .channel_bound(channel, capacity, &request, &mut workspace)
                        .ok()
                        .flatten()
                        .map(|p| p.bound)
                })
                .collect();
            if column.iter().all(Option::is_some) {
                let values: Vec<Rational> = column.iter().flatten().copied().collect();
                assert!(
                    values.windows(2).all(|w| w[0] <= w[1]),
                    "{label}: P_{i} decreases: {values:?}"
                );
            }
            column
        })
        .collect();
    for ks in step_vectors(space.len(), steps) {
        let dist: StorageDistribution = ks
            .iter()
            .enumerate()
            .map(|(i, &k)| mins.as_slice()[i] + k * grid_steps[i])
            .collect();
        let exact = match throughput_for(
            model,
            Capacities::from_distribution(&dist),
            observed,
            ExplorationLimits::default(),
        ) {
            Ok(report) => report.throughput,
            Err(e) => panic!("{label}: {dist}: {e}"),
        };
        for (i, &k) in ks.iter().enumerate() {
            if let Some(bound) = bounds[i][k as usize] {
                assert!(
                    exact <= bound,
                    "{label}: {dist}: exact {exact} above P_{i} = {bound}"
                );
            }
        }
    }
}

#[test]
fn pair_bounds_are_sound_on_the_galleries() {
    for g in [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
        gallery::satellite(),
        gallery::h263_decoder(),
    ] {
        assert_sound(g.name(), &g, 2);
    }
    for g in [
        buffy_csdf::gallery::updown(),
        buffy_csdf::gallery::line_scaler(),
        buffy_csdf::gallery::h263_rows(),
        burst_csdf(),
    ] {
        assert_sound(g.name(), &g, 3);
    }
}

#[test]
fn pair_bounds_are_sound_on_random_graphs() {
    for seed in 0..100 {
        for (family, g) in [
            ("small", RandomGraphConfig::small(seed).generate()),
            (
                "mixed-step",
                RandomGraphConfig::mixed_step(4, 5, seed).generate(),
            ),
        ] {
            let label = format!("{family} {seed}");
            assert_sound(&label, &g, 3);
            assert_sound(&format!("{label} csdf"), &CsdfGraph::from_sdf(&g), 3);
        }
    }
}
