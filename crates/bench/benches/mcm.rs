//! Timing bench: HSDF expansion and maximum-cycle-ratio analysis
//! (\[GG93\] role in the paper, §9) across the gallery and growing random
//! graphs.

use buffy_analysis::{max_cycle_ratio, maximal_throughput, RatioGraph};
use buffy_bench::timing;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::RepetitionVector;
use std::hint::black_box;

fn main() {
    let mut group = timing::group("mcm");
    for graph in gallery::all() {
        let observed = graph.default_observed_actor();
        group.bench(&format!("{}/maximal-throughput", graph.name()), || {
            maximal_throughput(black_box(&graph), observed).unwrap()
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
