//! Re-runs, from outside the program, the layer calls one traced
//! `buffy explore` run made, through the layers' public functions, and
//! times every call.
//!
//! Usage: `perfbench-replay <graph.xml> <plan.txt> <guided|exhaustive>`
//!
//! The plan holds one line per traced event the replay needs:
//!
//! - `eval bounds c1,c2,…` — an `evaluation` event of the bounds phase;
//! - `eval search c1,c2,…` — an `evaluation` event of the search phase;
//! - `static c1,c2,…` — a `pruned` event of kind `static-bound`.
//!
//! The layers are replayed one after the other:
//!
//! - parse: `read_sdf_xml` on the graph, [`PARSE_REPEATS`] times;
//! - bounds: `upper_bound_distribution` once;
//! - engine: `throughput_for` on every evaluated distribution;
//! - certificates: `StaticBounds::certificate` on every search-phase
//!   evaluated or statically pruned distribution, each distinct one once
//!   (the program memoises certificates per distribution);
//! - dependency replay (guided only): `dependencies_from_run_for` on every
//!   search-phase evaluation whose throughput is below the graph's
//!   maximum, with the replayed report's cycle metadata — the guided
//!   driver stops growing a candidate that reached the maximum.
//!
//! One JSON object with every per-call sample goes to standard output.
//!
//! `perfbench-replay calibrate` instead runs [`calibration_kernel`] and
//! prints its duration in nanoseconds.

use buffy_analysis::{
    dependencies_from_run_for, throughput_for, Capacities, ExplorationLimits, StaticBounds,
};
use buffy_core::upper_bound_distribution;
use buffy_graph::xml::read_sdf_xml;
use buffy_graph::StorageDistribution;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Parses are a few hundred microseconds; one sample is too noisy.
const PARSE_REPEATS: usize = 20;

struct Eval {
    bounds_phase: bool,
    dist: StorageDistribution,
}

struct Plan {
    evals: Vec<Eval>,
    static_prunes: Vec<StorageDistribution>,
}

/// A fixed CPU-bound job that calls none of the repository's code:
/// hashing into a table that fits in cache, then sorting. The host's
/// speed drifts (other tenants share it), and this job's duration
/// measures that drift next to each timed run; being independent of the
/// program, it reads the same on every commit.
fn calibration_kernel() -> u128 {
    let start = Instant::now();
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::with_capacity(1 << 16);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..80 {
        keys.clear();
        for _ in 0..(1 << 16) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *table.entry(x & 0xFFFF).or_insert(0) += x >> 48;
            keys.push(x);
        }
        keys.sort_unstable();
        black_box(&keys);
    }
    black_box(&table);
    start.elapsed().as_nanos()
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("calibrate") {
        println!("{}", calibration_kernel());
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_dist(text: &str) -> Result<StorageDistribution, String> {
    let caps = text
        .split(',')
        .map(|c| {
            c.parse::<u64>()
                .map_err(|e| format!("bad capacity {c:?}: {e}"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(StorageDistribution::from_capacities(caps))
}

fn parse_plan(text: &str) -> Result<Plan, String> {
    let mut plan = Plan {
        evals: Vec::new(),
        static_prunes: Vec::new(),
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["eval", phase @ ("bounds" | "search"), dist] => plan.evals.push(Eval {
                bounds_phase: *phase == "bounds",
                dist: parse_dist(dist)?,
            }),
            ["static", dist] => plan.static_prunes.push(parse_dist(dist)?),
            _ => return Err(format!("bad plan line {line:?}")),
        }
    }
    Ok(plan)
}

fn nanos_since(start: Instant) -> u128 {
    start.elapsed().as_nanos()
}

fn json_list<T: std::fmt::Display>(items: &[T]) -> String {
    let body: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", body.join(","))
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().collect();
    let [_, xml_path, plan_path, mode] = args.as_slice() else {
        return Err("usage: perfbench-replay <graph.xml> <plan.txt> <guided|exhaustive>".into());
    };
    let guided = match mode.as_str() {
        "guided" => true,
        "exhaustive" => false,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let text = std::fs::read_to_string(xml_path).map_err(|e| format!("{xml_path}: {e}"))?;
    let plan_text = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let plan = parse_plan(&plan_text)?;

    let mut parse_ns = Vec::with_capacity(PARSE_REPEATS);
    let mut parsed = None;
    for _ in 0..PARSE_REPEATS {
        let start = Instant::now();
        let graph = read_sdf_xml(black_box(&text)).map_err(|e| format!("{xml_path}: {e}"))?;
        parse_ns.push(nanos_since(start));
        parsed = Some(graph);
    }
    let graph = parsed.expect("PARSE_REPEATS is positive");
    let observed = graph.default_observed_actor();
    let limits = ExplorationLimits::default();

    let start = Instant::now();
    let (_, max_throughput) =
        upper_bound_distribution(&graph, observed, limits).map_err(|e| e.to_string())?;
    let ub_ns = nanos_since(start);

    let mut engine_ns = Vec::with_capacity(plan.evals.len());
    let mut throughputs = Vec::with_capacity(plan.evals.len());
    let mut states = Vec::with_capacity(plan.evals.len());
    let mut time_units = Vec::with_capacity(plan.evals.len());
    let mut reports = Vec::with_capacity(plan.evals.len());
    for eval in &plan.evals {
        let caps = Capacities::from_distribution(&eval.dist);
        let start = Instant::now();
        let report = throughput_for(&graph, black_box(caps), observed, limits)
            .map_err(|e| format!("throughput of {}: {e}", eval.dist))?;
        engine_ns.push(nanos_since(start));
        throughputs.push(format!("\"{}\"", report.throughput));
        states.push(report.states_stored);
        time_units.push(u128::from(report.cycle_entry_time) + u128::from(report.period));
        reports.push(report);
    }

    let start = Instant::now();
    let bounds = StaticBounds::new(&graph, observed).map_err(|e| e.to_string())?;
    let cert_setup_ns = nanos_since(start);
    let mut certified = HashSet::new();
    let mut cert_ns = Vec::new();
    let search_evals = plan
        .evals
        .iter()
        .filter(|e| !e.bounds_phase)
        .map(|e| &e.dist);
    for dist in search_evals.chain(&plan.static_prunes) {
        if !certified.insert(dist) {
            continue;
        }
        let start = Instant::now();
        black_box(bounds.certificate(black_box(dist)));
        cert_ns.push(nanos_since(start));
    }

    let mut deps_ns = Vec::new();
    if guided {
        for (eval, report) in plan.evals.iter().zip(&reports) {
            if eval.bounds_phase || report.throughput >= max_throughput {
                continue;
            }
            let start = Instant::now();
            black_box(
                dependencies_from_run_for(
                    &graph,
                    &eval.dist,
                    report.deadlocked,
                    report.cycle_entry_time,
                    report.period,
                )
                .map_err(|e| format!("dependencies of {}: {e}", eval.dist))?,
            );
            deps_ns.push(nanos_since(start));
        }
    }

    let mut out = String::from("{");
    let _ = write!(out, "\"parse_ns\":{}", json_list(&parse_ns));
    let _ = write!(out, ",\"ub_ns\":{ub_ns}");
    let _ = write!(out, ",\"engine_ns\":{}", json_list(&engine_ns));
    let _ = write!(out, ",\"engine_throughput\":{}", json_list(&throughputs));
    let _ = write!(out, ",\"engine_states\":{}", json_list(&states));
    let _ = write!(out, ",\"engine_time_units\":{}", json_list(&time_units));
    let _ = write!(out, ",\"cert_setup_ns\":{cert_setup_ns}");
    let _ = write!(out, ",\"cert_ns\":{}", json_list(&cert_ns));
    let _ = write!(out, ",\"deps_ns\":{}", json_list(&deps_ns));
    out.push('}');
    Ok(out)
}
