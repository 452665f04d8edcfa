//! Regenerates the paper's **Fig. 7**: the bounds that box the design
//! space — per-channel lower bounds for positive throughput (\[ALP97\],
//! \[Mur96\]), their sum `lb`, and the upper bound `ub` given by a
//! distribution realizing the maximal throughput (\[GGD02\] role) — for
//! every gallery graph.

use buffy_analysis::{DataflowSemantics, ExplorationLimits};
use buffy_bench::format_table;
use buffy_core::{lower_bound_distribution, upper_bound_distribution};
use buffy_gen::gallery;

fn main() {
    println!("Fig. 7: design-space bounds per graph\n");
    let mut rows = Vec::new();
    for graph in gallery::all() {
        let observed = graph.default_observed_actor();
        let lb = lower_bound_distribution(&graph);
        let (ub, thr_max) =
            upper_bound_distribution(&graph, observed, ExplorationLimits::default())
                .expect("bounds computable");
        rows.push(vec![
            graph.name().to_string(),
            lb.size().to_string(),
            ub.size().to_string(),
            thr_max.to_string(),
        ]);
    }
    print!(
        "{}",
        format_table(
            &[
                "graph",
                "lb (Σ channel bounds)",
                "ub (max-thr dist)",
                "max throughput"
            ],
            &rows
        )
    );

    // Per-channel detail for the example graph (the gray box of Fig. 7).
    let graph = gallery::example();
    println!("\nper-channel lower bounds of the example graph:");
    for (id, ch) in graph.channels() {
        println!(
            "  {}: production {}, consumption {}, initial {} -> lower bound {}",
            ch.name(),
            ch.production(),
            ch.consumption(),
            ch.initial_tokens(),
            graph.channel_lower_bound(id)
        );
    }
    println!(
        "\nall minimal storage distributions for any positive throughput lie in the box\n\
         [lb_c, ·] per channel with total size between lb and ub (the gray area of Fig. 7)."
    );
}
