//! Timing bench of the maximal-throughput layer (\[GG93\] role in the
//! paper, §9): per gallery graph, the homogeneous expansion, Howard's
//! maximum-cycle-ratio kernel on it, and one static certificate at the
//! lower-bound distribution; then expansion and kernel together on
//! growing random graphs.

use buffy_analysis::{max_cycle_ratio, DataflowSemantics, RatioGraph, StaticBounds};
use buffy_bench::timing;
use buffy_core::lower_bound_distribution;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::RepetitionVector;
use std::hint::black_box;

fn main() {
    let mut group = timing::group("mcm");
    for graph in gallery::all() {
        let name = graph.name();
        let cycles = graph.repetition_cycles().expect("consistent");
        group.bench(&format!("{name}/expand"), || {
            RatioGraph::expand(black_box(&graph), &cycles)
        });
        let expansion = RatioGraph::expand(&graph, &cycles);
        group.bench(&format!("{name}/howard"), || {
            max_cycle_ratio(black_box(&expansion)).unwrap()
        });
        let bounds = StaticBounds::new(&graph, graph.default_observed_actor()).unwrap();
        let lb = lower_bound_distribution(&graph);
        group.bench(&format!("{name}/static-bounds/certificate"), || {
            bounds.certificate(black_box(&lb))
        });
    }
    // Scaling with graph size on random graphs.
    for actors in [8usize, 16, 32] {
        let graph = RandomGraphConfig {
            actors,
            extra_channels: actors / 2,
            max_repetition: 4,
            max_rate_factor: 2,
            max_execution_time: 5,
            seed: 99,
        }
        .generate();
        let q = RepetitionVector::compute(&graph).expect("consistent");
        group.bench(&format!("random-{actors}/expand+howard"), || {
            max_cycle_ratio(&RatioGraph::expand(black_box(&graph), q.as_slice())).unwrap()
        });
    }
    group.finish();
}
