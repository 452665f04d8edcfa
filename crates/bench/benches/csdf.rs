//! Timing bench: CSDF analyses — throughput, maximal throughput and
//! exploration on the CSDF gallery, plus the single-phase embedding
//! overhead relative to the plain SDF analysis.

use buffy_analysis::{maximal_throughput, throughput};
use buffy_bench::timing;
use buffy_core::{explore_design_space, lower_bound_distribution, ExploreOptions};
use buffy_csdf::CsdfGraph;
use buffy_gen::gallery as sdf_gallery;
use buffy_graph::StorageDistribution;
use std::hint::black_box;

fn main() {
    let mut group = timing::group("csdf");

    for graph in [
        buffy_csdf::gallery::updown(),
        buffy_csdf::gallery::line_scaler(),
    ] {
        let obs = graph.default_observed_actor();
        let dist = StorageDistribution::from_capacities(vec![8; graph.num_channels()]);
        group.bench(&format!("{}/throughput", graph.name()), || {
            throughput(black_box(&graph), &dist, obs).unwrap()
        });
        group.bench(&format!("{}/maximal-throughput", graph.name()), || {
            maximal_throughput(black_box(&graph), obs).unwrap()
        });
        group.bench(&format!("{}/explore", graph.name()), || {
            explore_design_space(black_box(&graph), &ExploreOptions::default()).unwrap()
        });
    }

    // Embedding overhead: the paper's example through the SDF engine vs
    // the phased engine.
    let sdf = sdf_gallery::example();
    let csdf = CsdfGraph::from_sdf(&sdf);
    let dist = lower_bound_distribution(&sdf);
    let obs_sdf = sdf.default_observed_actor();
    let obs_csdf = csdf.default_observed_actor();
    group.bench("example/sdf-engine", || {
        throughput(black_box(&sdf), &dist, obs_sdf).unwrap()
    });
    group.bench("example/csdf-engine", || {
        throughput(black_box(&csdf), &dist, obs_csdf).unwrap()
    });
    group.finish();
}
