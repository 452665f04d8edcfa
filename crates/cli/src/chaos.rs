//! `buffy chaos`: a deterministic fault-injection harness.
//!
//! Runs the exploration of one graph under N seeded fault schedules
//! ([`FaultPlan::chaos`]) and machine-checks the robustness contract on
//! every run:
//!
//! - **No escaped panics.** Injected evaluation panics are contained by
//!   the pipeline; a panic unwinding out of the explorer is a violation.
//! - **Exit-code contract.** Every schedule maps to one of the
//!   documented codes: 0 (exact), 3 (truncated), 130 (interrupt), 1
//!   (error before any result).
//! - **Sound fronts.** Each reported Pareto point is re-analysed
//!   fault-free; the reported throughput must be exact. A faulted run
//!   may *miss* points (degraded, partial front) but must never report
//!   a wrong one.
//! - **Determinism.** A schedule that happened to inject nothing that
//!   can perturb the search (no evaluation panics, no spurious cancels,
//!   no arena-pressure spikes) must reproduce the fault-free front
//!   byte for byte.
//! - **Well-formed traces.** The JSON-lines trace is intact on every
//!   exit path and ends with a single `end` event.
//! - **Recoverable checkpoints.** Whatever checkpoint the faulted run
//!   published (saves themselves are fault-injected: torn writes,
//!   failed renames, retried with backoff) must load — strictly or via
//!   prefix salvage — and a fault-free run warm-started from it must
//!   complete to the reference front.
//!
//! All of it is a pure function of the seed: no wall clock, no OS
//! randomness, so a failing seed replays exactly.

use crate::args::ParsedArgs;
use crate::commands::{end_reason, exit_code_for, with_graph, Model};
use crate::observe::{CheckpointConfig, CliObserver};
use buffy_analysis::{throughput_for, Capacities, DataflowSemantics, ExplorationLimits};
use buffy_core::{
    CancelReason, CancelToken, Checkpoint, ExplorationResult, ExploreError, ExploreOptions,
    FaultPlan, FaultSite, ObjectiveSpace, ParetoPoint, WarmStart,
};
use buffy_graph::{Rational, StorageDistribution};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

type Out<'a> = &'a mut dyn Write;

/// States the chaos watchdog allows per schedule. Two injected
/// arena-pressure spikes (1 Mi states each) exhaust it, so the
/// [`CancelReason::MemoryBudget`] degradation path is exercised
/// organically by the fault rates.
const CHAOS_STATE_BUDGET: u64 = 1 << 21;

/// The seed range to run: `--seed-range A..B`, `--schedules N` (= 0..N),
/// default 0..8.
fn seed_range(parsed: &ParsedArgs) -> Result<std::ops::Range<u64>, String> {
    if let Some(spec) = parsed.options.get("seed-range") {
        let (a, b) = spec
            .split_once("..")
            .ok_or_else(|| format!("invalid --seed-range {spec:?} (expected A..B)"))?;
        let a: u64 = a
            .parse()
            .map_err(|_| format!("invalid --seed-range start {a:?}"))?;
        let b: u64 = b
            .parse()
            .map_err(|_| format!("invalid --seed-range end {b:?}"))?;
        if a >= b {
            return Err(format!("--seed-range {spec:?} is empty"));
        }
        return Ok(a..b);
    }
    match parsed.get::<u64>("schedules")? {
        Some(0) => Err("--schedules must be positive".into()),
        Some(n) => Ok(0..n),
        None => Ok(0..8),
    }
}

/// Canonical rendering of a front for equality checks: one
/// `size,throughput,distribution` record per point.
fn front_sig(points: &[ParetoPoint]) -> String {
    let mut s = String::new();
    for p in points {
        s.push_str(&format!("{},{},{}\n", p.size, p.throughput, p.distribution));
    }
    s
}

/// Whether `plan` injected any fault that can perturb the search result
/// (as opposed to the checkpoint-save faults, which only touch the
/// sidecar file).
fn perturbed_search(plan: &FaultPlan) -> bool {
    plan.injected(FaultSite::EvalPanic) > 0
        || plan.injected(FaultSite::SpuriousCancel) > 0
        || plan.injected(FaultSite::ArenaPressure) > 0
}

/// Validates the JSON-lines trace of one schedule: every line is a
/// braced object and the stream ends with exactly one `end` event.
fn check_trace(path: &Path, violations: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            violations.push(format!("trace unreadable: {e}"));
            return;
        }
    };
    let mut ends = 0usize;
    for line in text.lines() {
        if !(line.starts_with('{') && line.ends_with('}')) {
            violations.push(format!("malformed trace line {line:?}"));
            return;
        }
        if line.contains("\"event\":\"end\"") {
            ends += 1;
        }
    }
    match text.lines().last() {
        Some(last) if last.contains("\"event\":\"end\"") && ends == 1 => {}
        _ => violations.push(format!(
            "trace does not end with a single end event ({ends})"
        )),
    }
}

/// The outcome of one fault schedule, as reported and as summarised in
/// `--json` mode.
struct SeedOutcome {
    seed: u64,
    exit_code: i32,
    points: usize,
    injected: u64,
    /// The clean error message, when the schedule ended in exit 1.
    error: Option<String>,
    violations: Vec<String>,
}

/// One graph-kind-independent view of "run the explorer once". The two
/// closures hide the model type from the invariant machinery.
struct Harness<'a> {
    fingerprint: u64,
    channels: usize,
    /// Fault-free reference front, computed once.
    reference: String,
    /// Runs one exploration; returns (front, exit code, exact) or a
    /// clean error string (exit 1).
    #[allow(clippy::type_complexity)]
    run: Box<
        dyn Fn(
                Option<Arc<FaultPlan>>,
                Option<Arc<WarmStart>>,
                &Arc<CliObserver>,
            ) -> Result<(Vec<ParetoPoint>, i32, bool), String>
            + 'a,
    >,
    /// Fault-free throughput of one distribution, for soundness checks.
    #[allow(clippy::type_complexity)]
    analyze: Box<dyn Fn(&StorageDistribution) -> Result<Rational, String> + 'a>,
}

/// Runs one seeded fault schedule through `harness` and machine-checks
/// every invariant.
fn run_seed(harness: &Harness<'_>, seed: u64, dir: &Path) -> SeedOutcome {
    let plan = Arc::new(FaultPlan::chaos(seed));
    let trace_path = dir.join(format!("trace-{seed}.jsonl"));
    let ckpt_path = dir.join(format!("run-{seed}.ckpt"));
    let mut violations = Vec::new();

    let observer = CliObserver::from_options(
        false,
        trace_path.to_str(),
        Some(CheckpointConfig {
            path: ckpt_path.clone(),
            fingerprint: harness.fingerprint,
            channels: harness.channels,
            objectives: ObjectiveSpace::default_2d(),
            faults: Some(plan.clone()),
        }),
    );
    let observer = match observer {
        Ok(o) => Arc::new(o),
        Err(e) => {
            return SeedOutcome {
                seed,
                exit_code: 1,
                points: 0,
                injected: 0,
                error: None,
                violations: vec![format!("cannot set up observer: {e}")],
            }
        }
    };

    let attempt = catch_unwind(AssertUnwindSafe(|| {
        (harness.run)(Some(plan.clone()), None, &observer)
    }));
    let mut error = None;
    let (front, exit_code, exact) = match attempt {
        Ok(Ok(r)) => r,
        Ok(Err(clean_error)) => {
            error = Some(clean_error);
            (Vec::new(), 1, false)
        }
        Err(_) => {
            violations.push("panic escaped the exploration".to_string());
            (Vec::new(), 1, false)
        }
    };
    drop(observer);

    // Exit-code contract.
    if ![0, 3, 130, 1].contains(&exit_code) {
        violations.push(format!(
            "exit code {exit_code} outside the 0/3/130/1 contract"
        ));
    }

    // Soundness: every reported point re-analyses fault-free to exactly
    // its reported throughput.
    for p in &front {
        match (harness.analyze)(&p.distribution) {
            Ok(t) if t == p.throughput => {}
            Ok(t) => violations.push(format!(
                "unsound point: γ = {} reported {} but analyses to {t}",
                p.distribution, p.throughput
            )),
            Err(e) => violations.push(format!(
                "point γ = {} does not re-analyse cleanly: {e}",
                p.distribution
            )),
        }
    }

    // Determinism: a schedule whose injections cannot perturb the
    // search must reproduce the fault-free front exactly.
    if exact && !perturbed_search(&plan) && front_sig(&front) != harness.reference {
        violations.push("unperturbed schedule diverged from the fault-free front".to_string());
    }

    check_trace(&trace_path, &mut violations);

    // Checkpoint recovery: whatever the faulted run published must load
    // (strictly or salvaged) and warm-start a fault-free run back to
    // the reference front.
    if ckpt_path.exists() {
        match Checkpoint::load_salvaged(&ckpt_path) {
            Err(e) => violations.push(format!("published checkpoint unrecoverable: {e}")),
            Ok((cp, _report)) if cp.fingerprint != harness.fingerprint => {
                violations.push("published checkpoint has a foreign fingerprint".to_string())
            }
            Ok((cp, _report)) => {
                let warm = Some(Arc::new(cp.warm_start_map()));
                let resumed = (harness.run)(None, warm, &Arc::new(CliObserver::quiet()));
                match resumed {
                    Ok((points, 0, true)) if front_sig(&points) == harness.reference => {}
                    Ok((points, code, _)) => violations.push(format!(
                        "resume from the salvaged checkpoint diverged \
                         (exit {code}, {} points)",
                        points.len()
                    )),
                    Err(e) => violations.push(format!("resume failed: {e}")),
                }
            }
        }
    }

    let points = front.len();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&ckpt_path).ok();
    let mut tmp = ckpt_path.into_os_string();
    tmp.push(".tmp");
    std::fs::remove_file(PathBuf::from(tmp)).ok();

    SeedOutcome {
        seed,
        exit_code,
        points,
        injected: plan.total_injected(),
        error,
        violations,
    }
}

/// Maps one exploration to the CLI's observable outcome — points, exit
/// code, exactness, or a clean error — finishing the observer exactly as
/// the real commands do.
fn settle(
    run: Result<ExplorationResult, ExploreError>,
    observer: &CliObserver,
) -> Result<(Vec<ParetoPoint>, i32, bool), String> {
    match run {
        Ok(r) => {
            observer.finish(end_reason(&r.completeness)).ok();
            Ok((
                r.pareto.points().to_vec(),
                exit_code_for(&r.completeness),
                r.completeness.truncated_by.is_none(),
            ))
        }
        Err(e @ ExploreError::Cancelled { reason }) => {
            observer.finish(reason.name()).ok();
            if reason == CancelReason::Interrupt {
                // No result, but the conventional 130 still applies.
                return Ok((Vec::new(), 130, false));
            }
            Err(e.to_string())
        }
        Err(e) => {
            observer.finish("error").ok();
            Err(e.to_string())
        }
    }
}

/// Builds the harness over `graph`, the graph inside `model`: the
/// model's default driver (guided for SDF, exhaustive for CSDF),
/// single-threaded for a fully reproducible fault schedule, memory
/// watchdog armed.
fn harness<'a, M: DataflowSemantics + Sync>(
    model: &Model,
    graph: &'a M,
) -> Result<Harness<'a>, String> {
    let observed = graph.default_observed_actor();
    let algorithm = model.default_algorithm();
    let run = move |faults: Option<Arc<FaultPlan>>,
                    warm: Option<Arc<WarmStart>>,
                    observer: &Arc<CliObserver>| {
        let opts = ExploreOptions {
            observed: Some(observed),
            threads: 1,
            cancel: Some(Arc::new(
                CancelToken::new().with_state_budget(CHAOS_STATE_BUDGET),
            )),
            warm_start: warm,
            fault_plan: faults,
            observer: Some(observer.clone()),
            ..ExploreOptions::default()
        };
        settle(algorithm.run(graph, &opts), observer)
    };
    let reference = run(None, None, &Arc::new(CliObserver::quiet()))?;
    if reference.1 != 0 {
        return Err(format!(
            "fault-free reference run is not exact (exit {})",
            reference.1
        ));
    }
    Ok(Harness {
        fingerprint: model.fingerprint(),
        channels: graph.num_channels(),
        reference: front_sig(&reference.0),
        run: Box::new(run),
        analyze: Box::new(move |dist| {
            throughput_for(
                graph,
                Capacities::from_distribution(dist),
                observed,
                ExplorationLimits::default(),
            )
            .map(|r| r.throughput)
            .map_err(|e| e.to_string())
        }),
    })
}

fn w(out: Out<'_>, text: std::fmt::Arguments<'_>) -> Result<(), String> {
    out.write_fmt(text).map_err(|e| e.to_string())
}

/// Runs the chaos harness over the seed range and reports per-schedule
/// outcomes. Exit 0 when every schedule upheld every invariant, 1
/// otherwise.
pub fn chaos(parsed: &ParsedArgs, out: Out<'_>) -> Result<i32, String> {
    let model = Model::load(parsed)?;
    let seeds = seed_range(parsed)?;

    let dir = std::env::temp_dir().join(format!("buffy-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let harness = with_graph!(&model, graph => harness(&model, graph))?;
    let (name, kind) = (model.name(), model.kind());

    let json = parsed.has_flag("json");
    // Injected evaluation panics are intentional and contained; without a
    // filter the default hook would print dozens of backtraces over the
    // report. Anything else still reaches the previous hook.
    let previous = std::sync::Arc::new(std::panic::take_hook());
    {
        let previous = std::sync::Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected evaluation failure"));
            if !injected {
                previous(info);
            }
        }));
    }
    let mut outcomes = Vec::new();
    for seed in seeds.clone() {
        outcomes.push(run_seed(&harness, seed, &dir));
    }
    drop(std::panic::take_hook());
    if let Ok(previous) = std::sync::Arc::try_unwrap(previous) {
        std::panic::set_hook(previous);
    }
    std::fs::remove_dir(&dir).ok();

    let failed = outcomes.iter().filter(|o| !o.violations.is_empty()).count();
    if json {
        let seeds_json: Vec<String> = outcomes
            .iter()
            .map(|o| {
                let v: Vec<String> = o
                    .violations
                    .iter()
                    .map(|m| format!("\"{}\"", crate::observe::json_escape(m)))
                    .collect();
                format!(
                    "{{\"seed\":{},\"exit_code\":{},\"points\":{},\"injected\":{},\"violations\":[{}]}}",
                    o.seed,
                    o.exit_code,
                    o.points,
                    o.injected,
                    v.join(",")
                )
            })
            .collect();
        w(
            out,
            format_args!(
                "{{\"graph\":\"{}\",\"kind\":\"{kind}\",\"schedules\":{},\"failed\":{failed},\"seeds\":[{}]}}\n",
                crate::observe::json_escape(name),
                outcomes.len(),
                seeds_json.join(",")
            ),
        )?;
    } else {
        w(
            out,
            format_args!(
                "chaos: {name} ({kind}), seeds {}..{}\n",
                seeds.start, seeds.end
            ),
        )?;
        for o in &outcomes {
            let verdict = if o.violations.is_empty() {
                "ok"
            } else {
                "FAILED"
            };
            let cause = match &o.error {
                Some(e) => format!(" ({e})"),
                None => String::new(),
            };
            w(
                out,
                format_args!(
                    "seed {}: exit {}, {} points, {} faults injected — {verdict}{cause}\n",
                    o.seed, o.exit_code, o.points, o.injected
                ),
            )?;
            for v in &o.violations {
                w(out, format_args!("  violation: {v}\n"))?;
            }
        }
        w(
            out,
            format_args!(
                "chaos: {}/{} schedules upheld all invariants\n",
                outcomes.len() - failed,
                outcomes.len()
            ),
        )?;
    }
    Ok(if failed == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_range_parses_and_validates() {
        let parse = |argv: &[&str]| {
            let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            crate::args::parse(&raw).unwrap()
        };
        assert_eq!(seed_range(&parse(&["chaos", "g.xml"])).unwrap(), 0..8);
        assert_eq!(
            seed_range(&parse(&["chaos", "g.xml", "--seed-range", "3..7"])).unwrap(),
            3..7
        );
        assert_eq!(
            seed_range(&parse(&["chaos", "g.xml", "--schedules", "32"])).unwrap(),
            0..32
        );
        assert!(seed_range(&parse(&["chaos", "g.xml", "--seed-range", "5..5"])).is_err());
        assert!(seed_range(&parse(&["chaos", "g.xml", "--seed-range", "x..y"])).is_err());
        assert!(seed_range(&parse(&["chaos", "g.xml", "--schedules", "0"])).is_err());
    }
}
