//! Exploration-runtime statistics bench: runs the exact design-space
//! exploration over the benchmark graphs at one thread and at the
//! auto-detected thread count (plus the dependency-guided search), and
//! writes the unified [`ExplorationStats`](buffy_core::ExplorationStats)
//! of every run — wall time, analyses, cache hit rate, largest state
//! space — to `BENCH_dse.json` for machine consumption.
//!
//! The statistics of the 1-thread and N-thread runs must be identical:
//! the runtime's chunked evaluation, whose parallel answers are committed
//! in enumeration order up to each sweep's stop, makes them thread-count
//! independent. The bench asserts it, so a regression shows up here as
//! well as in the test suite. The per-shard hit rates count committed
//! requests only, so they are thread-count independent too.
//!
//! Schema v2: each run record additionally carries the evaluation-latency
//! percentiles and the memo cache's per-shard hit rates, captured through
//! a per-run [`buffy_telemetry::Recorder`]. All v1 keys are unchanged.
//!
//! Schema v3: each run record additionally carries the prune-oracle
//! counters (`static_prunes`, `dominance_prunes`) and the gallery gains
//! the cd2dat (fig-7) graph. All v2 keys are unchanged; the CI regression
//! gate reads `evaluations` and `shard_hit_rates` from this file.
//!
//! Schema v4: each run record additionally carries the warm-start
//! counters of the evaluation pipeline — `warm_starts` (cold evaluations
//! whose allocations were pre-sized from a neighbouring distribution's
//! record), `warm_start_hit_rate` (their share of all evaluations) and
//! `warm_start_states` (the summed state counts those hints carried).
//! These are allocation-layer effects only: every other statistic and the
//! fronts are byte-identical with warm starts on or off. All v3 keys are
//! unchanged.
//!
//! Schema v5: each run record additionally carries an `energy` column —
//! the exact rational energy per iteration of the front's fastest point,
//! rendered as a string, or `null` for runs that do not annotate it — and
//! the gallery gains guided energy-aware runs over the power-annotated
//! modem and cd2dat variants. All v4 keys are unchanged.
//!
//! Schema v6: each run record additionally carries `evals_per_sec` — the
//! run's evaluation throughput (`evaluations / wall_secs`), the same
//! figure the CLI's `--progress` lines and the `/status` endpoint report
//! live. All v5 keys are unchanged.
//!
//! Schema v7: the three v4 warm-start keys are gone, with the neighbour
//! warm starts they counted. All other v6 keys are unchanged.
//!
//! Schema v8: the two v3 prune keys (`static_prunes`, `dominance_prunes`)
//! and the table's `pruned` column are gone, with the dominance pruning
//! they counted. All other v7 keys are unchanged.

use buffy_analysis::EnergyModel;
use buffy_bench::format_table;
use buffy_core::{
    explore_dependency_guided, explore_design_space, resolve_threads, ExplorationResult,
    ExploreOptions,
};
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph};
use buffy_telemetry::{names, HistogramSnapshot, Recorder, Snapshot};
use std::sync::Arc;
use std::time::Instant;

struct Run {
    graph: String,
    algorithm: &'static str,
    threads: usize,
    wall_secs: f64,
    result: ExplorationResult,
    telemetry: Snapshot,
    /// The energy per iteration of the front's fastest point, for the
    /// energy-aware runs.
    energy: Option<Rational>,
}

fn run(
    graph: &SdfGraph,
    algorithm: &'static str,
    threads: usize,
    f: impl Fn() -> ExplorationResult,
) -> Run {
    // A fresh recorder per run keeps the latency and shard statistics
    // attributable; the global slot is swapped around each measurement.
    let recorder = Arc::new(Recorder::new());
    buffy_telemetry::install(Arc::clone(&recorder));
    let t0 = Instant::now();
    let result = f();
    let wall_secs = t0.elapsed().as_secs_f64();
    buffy_telemetry::uninstall();
    Run {
        graph: graph.name().to_string(),
        algorithm,
        threads,
        wall_secs,
        result,
        telemetry: recorder.snapshot(),
        energy: None,
    }
}

fn json_record(r: &Run) -> String {
    let s = &r.result.stats;
    let latency = r
        .telemetry
        .histograms
        .get(names::EVAL_LATENCY_NS)
        .cloned()
        .unwrap_or_else(HistogramSnapshot::empty);
    let hits = Snapshot::family_values(&r.telemetry.counters, names::SHARD_HITS);
    let misses = Snapshot::family_values(&r.telemetry.counters, names::SHARD_MISSES);
    let mut shard_rates: Vec<(u64, f64)> = hits
        .iter()
        .map(|(shard, h)| {
            let m = misses
                .iter()
                .find(|(s, _)| s == shard)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            let total = h + m;
            let rate = if total == 0 {
                0.0
            } else {
                *h as f64 / total as f64
            };
            (shard.parse().unwrap_or(0), rate)
        })
        .collect();
    shard_rates.sort_by_key(|(index, _)| *index);
    let shard_rates: Vec<String> = shard_rates
        .into_iter()
        .map(|(_, rate)| format!("{rate:.4}"))
        .collect();
    // Schema v5's energy column: the fastest front point's exact energy
    // per iteration, present exactly for the energy-aware runs.
    let energy = r
        .energy
        .map(|e| format!("\"{e}\""))
        .unwrap_or_else(|| "null".to_string());
    // Schema v6's throughput column: evaluations per wall-clock second.
    let evals_per_sec = if r.wall_secs > 0.0 {
        s.evaluations as f64 / r.wall_secs
    } else {
        0.0
    };
    format!(
        "{{\"graph\":\"{}\",\"algorithm\":\"{}\",\"threads\":{},\"wall_secs\":{:.6},\
         \"evaluations\":{},\"cache_hits\":{},\"cache_hit_rate\":{:.4},\
         \"max_states\":{},\"eval_nanos\":{},\"pareto_points\":{},\
         \"eval_latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{}}},\"shard_hit_rates\":[{}],\
         \"energy\":{energy},\"evals_per_sec\":{evals_per_sec:.2}}}",
        r.graph,
        r.algorithm,
        r.threads,
        r.wall_secs,
        s.evaluations,
        s.cache_hits,
        s.cache_hit_rate(),
        s.max_states,
        s.eval_nanos,
        r.result.pareto.len(),
        latency.p50(),
        latency.p90(),
        latency.p99(),
        shard_rates.join(",")
    )
}

fn main() {
    // The full gallery is exact but slow under the exhaustive search for
    // the biggest graphs; the fig-7-style subjects below chart in seconds.
    let graphs = [
        gallery::example(),
        gallery::bipartite(),
        gallery::modem(),
        gallery::cd2dat(),
    ];
    let auto = resolve_threads(0);

    let mut runs: Vec<Run> = Vec::new();
    for graph in &graphs {
        let seq = ExploreOptions::default();
        let par = ExploreOptions {
            threads: 0,
            ..ExploreOptions::default()
        };
        let one = run(graph, "exhaustive", 1, || {
            explore_design_space(graph, &seq).expect("exploration succeeds")
        });
        let many = run(graph, "exhaustive", auto, || {
            explore_design_space(graph, &par).expect("exploration succeeds")
        });
        assert_eq!(
            one.result.stats,
            many.result.stats,
            "{}: statistics must be identical across thread counts",
            graph.name()
        );
        let guided = run(graph, "guided", 1, || {
            explore_dependency_guided(graph, &seq).expect("exploration succeeds")
        });
        runs.extend([one, many, guided]);
    }

    // Schema v5: guided runs over the power-annotated subjects, their
    // fastest point annotated with its energy per iteration. Energy is a
    // closed form of the throughput, so these runs cost what their
    // unannotated counterparts cost.
    for graph in &[gallery::modem_power(), gallery::cd2dat_power()] {
        let mut guided = run(graph, "guided", 1, || {
            explore_dependency_guided(graph, &ExploreOptions::default())
                .expect("exploration succeeds")
        });
        let model = EnergyModel::from_semantics(graph, graph.default_observed_actor())
            .expect("the power annotations stay within the exact arithmetic");
        guided.energy = guided
            .result
            .pareto
            .maximal()
            .map(|p| model.energy_per_iteration(p.throughput));
        runs.push(guided);
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let s = &r.result.stats;
            vec![
                r.graph.clone(),
                r.algorithm.to_string(),
                r.threads.to_string(),
                format!("{:.3}s", r.wall_secs),
                s.evaluations.to_string(),
                format!("{:.0}%", s.cache_hit_rate() * 100.0),
                s.max_states.to_string(),
                r.result.pareto.len().to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        format_table(
            &[
                "graph",
                "algorithm",
                "threads",
                "wall",
                "analyses",
                "cache hit",
                "max states",
                "#Pareto",
            ],
            &rows
        )
    );

    let records: Vec<String> = runs.iter().map(json_record).collect();
    let json = format!(
        "{{\"bench\":\"dse_stats\",\"schema\":8,\"auto_threads\":{},\"runs\":[\n  {}\n]}}\n",
        auto,
        records.join(",\n  ")
    );
    std::fs::write("BENCH_dse.json", &json).expect("write BENCH_dse.json");
    println!("\nwrote BENCH_dse.json ({} runs)", runs.len());
}
