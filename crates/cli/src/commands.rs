//! Implementations of the `buffy` subcommands.

use crate::args::{parse_dist, ParsedArgs};
use crate::observe::{CheckpointConfig, CliObserver, Observation};
use crate::telemetry::telemetry_json;
use buffy_analysis::{
    fx_hash, maximal_throughput, throughput, BoundCertificate, DataflowSemantics,
    ExplorationLimits, Schedule, StaticBounds,
};
use buffy_core::{
    dist_json, explore_dependency_guided, explore_design_space, json_escape,
    lower_bound_distribution, min_storage_for_throughput, upper_bound_distribution, CancelReason,
    CancelToken, Checkpoint, Completeness, DistributionSpace, EvaluationFailure, ExplorationResult,
    ExplorationStats, ExploreError, ExploreOptions, ObjectiveKind, ObjectiveSpace, ParetoPoint,
    SkippedSize, WarmStart,
};
use buffy_csdf::xml::{read_csdf_xml, write_csdf_xml};
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::dot::to_dot;
use buffy_graph::xml::{read_sdf_xml, write_sdf_xml};
use buffy_graph::{ActorId, ChannelId, Rational, SdfGraph, StorageDistribution};
use buffy_lint::{lint, LintContext, Report, Severity};
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

type Out<'a> = &'a mut dyn Write;

/// An input graph in the SDF3 dialect its document declares.
///
/// Every command reads its graph through [`Model::load`]. The steps that
/// differ per dialect live here — the XML fingerprint, the SDF-only
/// commands and latency axis, and the default driver — while everything
/// else runs through the kernel's [`DataflowSemantics`], generically over
/// the graph [`with_graph!`] binds.
pub(crate) enum Model {
    Sdf(SdfGraph),
    Csdf(CsdfGraph),
}

/// Evaluates `$body` with `$g` bound to the graph inside a [`Model`],
/// whichever its dialect (the body is compiled once per dialect).
macro_rules! with_graph {
    ($model:expr, $g:ident => $body:expr) => {
        match $model {
            Model::Sdf($g) => $body,
            Model::Csdf($g) => $body,
        }
    };
}
pub(crate) use with_graph;

impl Model {
    /// Reads the graph file named by the command's first argument. The
    /// SDF3 csdf dialect tags the document with `type="csdf"` and a
    /// `<csdf>` element; anything else is parsed as plain SDF.
    pub(crate) fn load(parsed: &ParsedArgs) -> Result<Model, String> {
        let path = parsed
            .positional
            .get(1)
            .ok_or("expected a graph file argument")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let model = if is_csdf_document(&text) {
            read_csdf_xml(&text)
                .map(Model::Csdf)
                .map_err(|e| e.to_string())
        } else {
            read_sdf_xml(&text)
                .map(Model::Sdf)
                .map_err(|e| e.to_string())
        };
        model.map_err(|e| format!("cannot parse {path}: {e}"))
    }

    /// The dialect's name, as reports print it.
    pub(crate) fn kind(&self) -> &'static str {
        with_graph!(self, g => DataflowSemantics::kind(g))
    }

    pub(crate) fn name(&self) -> &str {
        with_graph!(self, g => g.name())
    }

    /// The graph of a command that analyses SDF inputs only.
    fn sdf(&self) -> Result<&SdfGraph, String> {
        match self {
            Model::Sdf(g) => Ok(g),
            Model::Csdf(g) => Err(format!(
                "graph {:?} is cyclo-static (CSDF); this command reads SDF graphs only",
                g.name()
            )),
        }
    }

    /// The actor named by `--actor`, or the model's default observed
    /// actor.
    fn observed_actor(&self, parsed: &ParsedArgs) -> Result<ActorId, String> {
        match parsed.options.get("actor") {
            None => Ok(with_graph!(self, g => g.default_observed_actor())),
            Some(name) => with_graph!(self, g => g.actor_by_name(name))
                .ok_or_else(|| format!("unknown actor {name:?}")),
        }
    }

    /// Runs the lint rules over the model.
    fn lint(&self, ctx: &LintContext) -> Report {
        with_graph!(self, g => lint(g, ctx))
    }

    /// Hash of the canonical XML rendering: checkpoints carry it so that
    /// `--resume` can refuse a file recorded for a different graph.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Model::Sdf(g) => fx_hash(&write_sdf_xml(g)),
            Model::Csdf(g) => fx_hash(&write_csdf_xml(g)),
        }
    }

    /// The driver `explore` runs without `--algorithm`. Guided search pays
    /// off on SDF graphs; on the cyclo-static gallery it evaluates more
    /// distributions than the exhaustive search (h263rows: 2985 analyses
    /// against 2802), so CSDF keeps the exhaustive default.
    pub(crate) fn default_algorithm(&self) -> Algorithm {
        match self {
            Model::Sdf(_) => Algorithm::Guided,
            Model::Csdf(_) => Algorithm::Exhaustive,
        }
    }

    /// The graph the latency axis is computed on, when `space` declares
    /// it. Latency is an SDF schedule property: CSDF inputs refuse it.
    fn latency_graph(&self, space: &ObjectiveSpace) -> Result<Option<&SdfGraph>, String> {
        if !space.has(ObjectiveKind::Latency) {
            return Ok(None);
        }
        match self {
            Model::Sdf(g) => Ok(Some(g)),
            Model::Csdf(_) => Err("the latency objective is SDF-only: CSDF inputs support \
                 --objectives storage,throughput[,energy]"
                .into()),
        }
    }
}

/// Whether an XML document uses the SDF3 cyclo-static dialect.
fn is_csdf_document(text: &str) -> bool {
    text.contains("<csdf") || text.contains("type=\"csdf\"")
}

/// The exploration drivers `--algorithm` selects between.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Algorithm {
    /// [`explore_dependency_guided`]: grows storage-dependent channels.
    Guided,
    /// [`explore_design_space`]: the paper's divide-and-conquer search.
    Exhaustive,
}

impl Algorithm {
    /// `--algorithm guided|exhaustive`, or the model's default driver.
    fn from_options(parsed: &ParsedArgs, model: &Model) -> Result<Algorithm, String> {
        match parsed.options.get("algorithm").map(String::as_str) {
            None => Ok(model.default_algorithm()),
            Some("guided") => Ok(Algorithm::Guided),
            Some("exhaustive") => Ok(Algorithm::Exhaustive),
            Some(other) => Err(format!("unknown algorithm {other:?} (guided|exhaustive)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Algorithm::Guided => "guided",
            Algorithm::Exhaustive => "exhaustive",
        }
    }

    /// Runs the driver on `graph`.
    pub(crate) fn run<M: DataflowSemantics + Sync>(
        self,
        graph: &M,
        options: &ExploreOptions,
    ) -> Result<ExplorationResult, ExploreError> {
        match self {
            Algorithm::Guided => explore_dependency_guided(graph, options),
            Algorithm::Exhaustive => explore_design_space(graph, options),
        }
    }
}

/// Parses `--objectives storage,throughput[,energy][,latency]`; absent
/// means the paper's default storage/throughput pair.
fn objective_space(parsed: &ParsedArgs) -> Result<ObjectiveSpace, String> {
    match parsed.options.get("objectives") {
        None => Ok(ObjectiveSpace::default_2d()),
        Some(v) => v.parse().map_err(|e| format!("invalid --objectives: {e}")),
    }
}

fn explore_options(parsed: &ParsedArgs, observed: ActorId) -> Result<ExploreOptions, String> {
    let quantum: Option<Rational> = parsed.get("quantum")?;
    if quantum.is_some_and(|q| q <= Rational::ZERO) {
        return Err("--quantum must be positive (e.g. --quantum 1/100)".into());
    }
    Ok(ExploreOptions {
        observed: Some(observed),
        max_size: parsed.get("max-size")?,
        quantum,
        threads: parsed.get("threads")?.unwrap_or(1),
        objectives: objective_space(parsed)?,
        ..ExploreOptions::default()
    })
}

fn w(out: Out<'_>, text: std::fmt::Arguments<'_>) -> Result<(), String> {
    out.write_fmt(text).map_err(|e| e.to_string())
}

/// Arms `opts`, observing `observed`, for one exploring command's run over
/// `graph`, the graph inside `model`: the cancel token, the `--resume`
/// warm start and the observer of the returned observation — `--progress`,
/// `--trace-json` and `--checkpoint` (the fingerprint tags the checkpoint
/// so `--resume` can refuse a file recorded for a different graph),
/// telemetry, and `--serve` under the graph's name and the `algorithm` it
/// runs.
fn observe<M: DataflowSemantics>(
    parsed: &ParsedArgs,
    model: &Model,
    graph: &M,
    observed: ActorId,
    opts: &mut ExploreOptions,
    algorithm: &str,
) -> Result<Observation, String> {
    let (fingerprint, channels) = (model.fingerprint(), graph.num_channels());
    opts.cancel = Some(cancel_token(parsed, channels, graph.num_actors())?);
    opts.warm_start = resume_warm_start(parsed, fingerprint, channels)?;
    let checkpoint = match parsed.options.get("checkpoint") {
        None => None,
        Some(path) => Some(CheckpointConfig {
            path: PathBuf::from(path),
            fingerprint,
            channels,
            objectives: objective_space(parsed)?,
            faults: None,
        }),
    };
    let cli = CliObserver::from_options(
        parsed.has_flag("progress"),
        parsed.options.get("trace-json").map(String::as_str),
        checkpoint,
    )?
    .with_space_total(progress_space_total(parsed, graph, observed));
    let observation = Observation::start(parsed, cli, model.name(), algorithm)?;
    opts.observer = Some(observation.observer());
    Ok(observation)
}

/// Cap on the `--progress` space pre-count: beyond this many candidates
/// the percent-covered/ETA annotations are simply dropped.
const PROGRESS_COUNT_CAP: u64 = 1_000_000;

/// Pre-counts the realizable candidate space between the §7 lower bound
/// and the §8 upper bound (clipped to `--max-size`), the denominator of
/// the `--progress` percent-covered and ETA annotations.
///
/// Only runs when `--progress` was given — it costs one extra bounds
/// computation up front, independent of the run itself (the run's own
/// statistics are untouched). `None` (annotations off) when the bounds
/// cannot be computed or the space exceeds [`PROGRESS_COUNT_CAP`].
fn progress_space_total<M: DataflowSemantics>(
    parsed: &ParsedArgs,
    model: &M,
    observed: ActorId,
) -> Option<u64> {
    if !parsed.has_flag("progress") {
        return None;
    }
    let space = DistributionSpace::for_model(model);
    let ub = upper_bound_distribution(model, observed, ExplorationLimits::default())
        .ok()?
        .0
        .size();
    let hi = match parsed.get::<u64>("max-size").ok().flatten() {
        Some(max) => max.min(ub),
        None => ub,
    };
    space.count_in_capped(space.min_size(), hi, PROGRESS_COUNT_CAP)
}

/// Rough bytes per reduced state for the `--max-memory-mb` watchdog: an
/// interned state stores per-channel token counts and per-actor phase/
/// busy-time bookkeeping, plus arena and hash-table overhead. A
/// deliberate approximation — the watchdog degrades a runaway run
/// gracefully, it does not meter allocations.
fn bytes_per_state(channels: usize, actors: usize) -> u64 {
    64 + 16 * channels as u64 + 16 * actors as u64
}

/// The `--max-states`/`--max-memory-mb` watchdog budget, in states, for a
/// graph of the given shape. When both options are set the stricter one
/// wins.
fn state_budget(
    parsed: &ParsedArgs,
    channels: usize,
    actors: usize,
) -> Result<Option<u64>, String> {
    let max_states = parsed.get::<u64>("max-states")?;
    let from_memory = parsed
        .get::<u64>("max-memory-mb")?
        .map(|mb| (mb * 1024 * 1024) / bytes_per_state(channels, actors));
    Ok(match (max_states, from_memory) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    })
}

/// Budget/cancellation token armed from `--timeout` (seconds, fractional
/// allowed), `--max-evals` and the `--max-states`/`--max-memory-mb`
/// memory watchdog, and registered with the SIGINT handler so Ctrl-C
/// degrades the run gracefully instead of killing it.
fn cancel_token(
    parsed: &ParsedArgs,
    channels: usize,
    actors: usize,
) -> Result<Arc<CancelToken>, String> {
    let mut token = CancelToken::new();
    if let Some(secs) = parsed.get::<f64>("timeout")? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err("--timeout must be a positive number of seconds".into());
        }
        token = token.with_deadline(Duration::from_secs_f64(secs));
    }
    if let Some(budget) = parsed.get::<u64>("max-evals")? {
        token = token.with_eval_budget(budget);
    }
    if let Some(budget) = state_budget(parsed, channels, actors)? {
        token = token.with_state_budget(budget);
    }
    let token = Arc::new(token);
    crate::signal::watch(&token);
    Ok(token)
}

/// Loads `--resume FILE` into a warm-start map, refusing checkpoints
/// recorded for a different graph or a different objective space.
fn resume_warm_start(
    parsed: &ParsedArgs,
    fingerprint: u64,
    channels: usize,
) -> Result<Option<Arc<WarmStart>>, String> {
    let Some(path) = parsed.options.get("resume") else {
        return Ok(None);
    };
    let cp = match Checkpoint::load(Path::new(path)) {
        Ok(cp) => cp,
        Err(strict) => {
            // A torn or partially corrupted v3 file still carries every
            // record that checksums; salvage the longest valid prefix
            // rather than discarding the whole run.
            let (cp, report) =
                Checkpoint::load_salvaged(Path::new(path)).map_err(|_| strict.to_string())?;
            if !report.complete {
                eprintln!(
                    "[buffy] warning: checkpoint {path} is damaged; \
                     salvaged {} of {} entries",
                    report.salvaged, report.declared
                );
            }
            cp
        }
    };
    if cp.fingerprint != fingerprint || cp.channels != channels {
        return Err(format!(
            "checkpoint {path} was recorded for a different graph \
             (fingerprint {:016x}, {} channels; this graph: {fingerprint:016x}, {channels})",
            cp.fingerprint, cp.channels
        ));
    }
    let objectives = objective_space(parsed)?;
    if cp.objectives != objectives {
        return Err(format!(
            "checkpoint {path} was recorded with objectives {} but this run \
             declares {objectives}; pass a matching --objectives to resume it",
            cp.objectives
        ));
    }
    Ok(Some(Arc::new(cp.warm_start_map())))
}

/// Exit code of a run that produced a result: 0 when exact, 130 when a
/// SIGINT truncated it, 3 for any other truncation (deadline, budget).
pub(crate) fn exit_code_for(completeness: &Completeness) -> i32 {
    match completeness.truncated_by {
        None => 0,
        Some(CancelReason::Interrupt) => 130,
        Some(_) => 3,
    }
}

/// The `reason` recorded in the trace's final `end` event.
pub(crate) fn end_reason(completeness: &Completeness) -> &'static str {
    match completeness.truncated_by {
        None => "exact",
        Some(reason) => reason.name(),
    }
}

/// Exit path for a run that failed without a result. A run cancelled
/// before any result was salvageable still prints its message, but SIGINT
/// keeps its conventional status 130 (hard errors otherwise exit 1).
fn run_failed(
    error: ExploreError,
    observation: &mut Observation,
    out: Out<'_>,
) -> Result<i32, String> {
    let ExploreError::Cancelled { reason } = error else {
        observation.finish("error").ok();
        return Err(error.to_string());
    };
    observation.finish(reason.name()).ok();
    if reason == CancelReason::Interrupt {
        w(
            out,
            format_args!(
                "error: exploration cancelled before any result was available: {reason}\n"
            ),
        )?;
        return Ok(130);
    }
    Err(format!(
        "exploration cancelled before any result was available: {reason}"
    ))
}

/// Renders the optional `,"telemetry":{…}` suffix of a `--json` report.
fn telemetry_section(snapshot: Option<&buffy_telemetry::Snapshot>) -> String {
    match snapshot {
        None => String::new(),
        Some(s) => format!(",\"telemetry\":{}", telemetry_json(s)),
    }
}

/// Renders the exploration statistics as a JSON object.
fn stats_json(stats: &ExplorationStats) -> String {
    // `static_prunes`, `dominance_prunes` and `warm_starts` stay as
    // constant 0s: perfbench/run.py reads all three.
    format!(
        "{{\"evaluations\":{},\"cache_hits\":{},\"static_prunes\":0,\"dominance_prunes\":0,\"max_states\":{},\"eval_nanos\":{},\"warm_starts\":0}}",
        stats.evaluations,
        stats.cache_hits,
        stats.max_states,
        stats.eval_nanos
    )
}

/// Renders one Pareto point as a JSON object. The energy field appears
/// exactly when the run declared the energy objective (the point then
/// carries it); `latency` is the CLI-side annotation computed on the
/// final front — `Some(None)` renders as `null` (deadlocked schedule).
fn point_json(p: &ParetoPoint, latency: Option<Option<u64>>) -> String {
    let mut s = format!("{{\"size\":{},\"throughput\":\"{}\"", p.size, p.throughput);
    if let Some(e) = p.energy() {
        let _ = write!(s, ",\"energy\":\"{e}\"");
    }
    match latency {
        None => {}
        Some(Some(l)) => {
            let _ = write!(s, ",\"latency\":{l}");
        }
        Some(None) => s.push_str(",\"latency\":null"),
    }
    let _ = write!(s, ",\"distribution\":{}}}", dist_json(&p.distribution));
    s
}

/// Renders the declared objective axes as a JSON array of names.
fn objectives_json(space: &ObjectiveSpace) -> String {
    let names: Vec<String> = space
        .kinds()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    format!("[{}]", names.join(","))
}

/// The per-point latency annotation of `points`, indexed like the front:
/// `None` when the latency axis was not requested, otherwise one entry
/// per point (`None` inside = the schedule deadlocks, no first output).
type FrontLatencies = Option<Vec<Option<u64>>>;

/// Computes the latency annotation of an SDF front when the space asks
/// for it ([`Model::latency_graph`]). Latency is a reporting axis, never
/// a dominance axis, so it is derived here on the final front only (one
/// schedule extraction per point) instead of inside the exploration
/// kernel.
fn front_latencies(
    graph: Option<&SdfGraph>,
    observed: ActorId,
    points: &[ParetoPoint],
) -> FrontLatencies {
    let graph = graph?;
    Some(
        points
            .iter()
            .map(|p| {
                buffy_analysis::latency(
                    graph,
                    &p.distribution,
                    observed,
                    ExplorationLimits::default(),
                )
                .ok()
                .and_then(|r| r.initial_latency)
            })
            .collect(),
    )
}

/// Renders the front as CSV with one column per declared axis.
fn front_csv(points: &[ParetoPoint], space: &ObjectiveSpace, latencies: &FrontLatencies) -> String {
    let energy = space.has(ObjectiveKind::Energy);
    let mut out = String::from("size,throughput");
    if energy {
        out.push_str(",energy");
    }
    if latencies.is_some() {
        out.push_str(",latency");
    }
    out.push_str(",distribution\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(out, "{},{}", p.size, p.throughput);
        if energy {
            let _ = write!(out, ",{}", p.energy().unwrap_or(Rational::ZERO));
        }
        if let Some(ls) = latencies {
            match ls.get(i).copied().flatten() {
                Some(l) => {
                    let _ = write!(out, ",{l}");
                }
                // Deadlocked schedule: no first output, the cell stays
                // empty rather than inventing a number.
                None => out.push(','),
            }
        }
        let _ = writeln!(out, ",\"{}\"", p.distribution);
    }
    out
}

/// Renders the front as a Graphviz slice: one record node per point,
/// chained in size order so the rendering reads as the trade-off curve.
fn front_dot(
    name: &str,
    points: &[ParetoPoint],
    space: &ObjectiveSpace,
    latencies: &FrontLatencies,
) -> String {
    let energy = space.has(ObjectiveKind::Energy);
    let mut out = format!("digraph \"{}\" {{\n", name.replace('"', "'"));
    out.push_str("  rankdir=LR;\n  node [shape=record];\n");
    for (i, p) in points.iter().enumerate() {
        let mut label = format!("size {}|throughput {}", p.size, p.throughput);
        if energy {
            let _ = write!(label, "|energy {}", p.energy().unwrap_or(Rational::ZERO));
        }
        if let Some(ls) = latencies {
            match ls.get(i).copied().flatten() {
                Some(l) => {
                    let _ = write!(label, "|latency {l}");
                }
                None => label.push_str("|latency -"),
            }
        }
        let _ = write!(label, "|γ = {}", p.distribution);
        let _ = writeln!(out, "  p{i} [label=\"{{{label}}}\"];");
        if i > 0 {
            let _ = writeln!(out, "  p{} -> p{i};", i - 1);
        }
    }
    out.push_str("}\n");
    out
}

/// Writes the `--export-csv` / `--export-dot` front files, if requested.
fn export_front(
    parsed: &ParsedArgs,
    name: &str,
    points: &[ParetoPoint],
    space: &ObjectiveSpace,
    latencies: &FrontLatencies,
) -> Result<(), String> {
    if let Some(path) = parsed.options.get("export-csv") {
        std::fs::write(path, front_csv(points, space, latencies))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = parsed.options.get("export-dot") {
        std::fs::write(path, front_dot(name, points, space, latencies))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Renders the completeness marker as a JSON object.
fn completeness_json(c: &Completeness) -> String {
    let truncated_by = match c.truncated_by {
        None => "null".to_string(),
        Some(reason) => format!("\"{}\"", reason.name()),
    };
    format!(
        "{{\"exact\":{},\"truncated_by\":{truncated_by},\"distributions_skipped\":{}}}",
        c.exact, c.distributions_skipped
    )
}

/// Renders the skipped-size annotations as a JSON array.
fn skipped_json(skipped: &[SkippedSize]) -> String {
    let items: Vec<String> = skipped
        .iter()
        .map(|s| {
            format!(
                "{{\"size\":{},\"distributions\":{},\"throughput_bound\":\"{}\"}}",
                s.size, s.distributions, s.throughput_bound
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the evaluation failures as a JSON array.
fn failures_json(failures: &[EvaluationFailure]) -> String {
    let items: Vec<String> = failures
        .iter()
        .map(|f| {
            format!(
                "{{\"distribution\":{},\"message\":\"{}\"}}",
                dist_json(&f.distribution),
                json_escape(&f.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Appends the human-readable degradation report: partiality, skipped
/// sizes with their conservative bounds, failed evaluations.
fn write_resilience_text(
    completeness: &Completeness,
    skipped: &[SkippedSize],
    failures: &[EvaluationFailure],
    out: Out<'_>,
) -> Result<(), String> {
    if let Some(reason) = completeness.truncated_by {
        w(
            out,
            format_args!(
                "PARTIAL RESULT ({reason}): every listed point is sound, but {} \
                 enumerated distributions were never evaluated\n",
                completeness.distributions_skipped
            ),
        )?;
        for s in skipped {
            w(
                out,
                format_args!(
                    "  size {}: {} unevaluated distributions, throughput ≤ {}\n",
                    s.size, s.distributions, s.throughput_bound
                ),
            )?;
        }
    }
    for f in failures {
        w(
            out,
            format_args!(
                "evaluation failed for {} (treated as throughput 0): {}\n",
                f.distribution, f.message
            ),
        )?;
    }
    Ok(())
}

/// Builds the lint context from whatever `--dist` and `--throughput`
/// carry, for the `observed` actor. A `--dist` of the wrong arity is left
/// for B004 to report rather than rejected here.
fn lint_context(parsed: &ParsedArgs, observed: ActorId) -> Result<LintContext, String> {
    let distribution = match parsed.options.get("dist") {
        Some(v) => Some(StorageDistribution::from_capacities(parse_dist(v)?)),
        None => None,
    };
    Ok(LintContext {
        distribution,
        throughput_constraint: parsed.get("throughput")?,
        observed: Some(observed),
        space_threshold: parsed.get("space-threshold")?,
    })
}

/// Runs the lint rules before an analysis and refuses `Error`-level
/// models unless `--force` is given. The full report is printed only
/// when it blocks the run.
fn preflight(
    parsed: &ParsedArgs,
    model: &Model,
    observed: ActorId,
    out: Out<'_>,
) -> Result<(), String> {
    if parsed.has_flag("force") {
        return Ok(());
    }
    let report = model.lint(&lint_context(parsed, observed)?);
    if report.has_errors() {
        w(out, format_args!("{}", report.render_human()))?;
        return Err(format!(
            "the model has {} error-level finding(s); use --force to run anyway",
            report.count(Severity::Error)
        ));
    }
    Ok(())
}

pub fn check(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    let report = model.lint(&lint_context(parsed, model.observed_actor(parsed)?)?);
    if parsed.has_flag("json") {
        w(out, format_args!("{}\n", report.render_json()))?;
    } else {
        w(out, format_args!("{}", report.render_human()))?;
    }
    let errors = report.count(Severity::Error);
    if errors > 0 {
        return Err(format!("{errors} error-level finding(s)"));
    }
    let warnings = report.count(Severity::Warning);
    if warnings > 0 && parsed.has_flag("deny-warnings") {
        return Err(format!("{warnings} warning(s) denied by --deny-warnings"));
    }
    Ok(())
}

pub fn info(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    with_graph!(&model, graph => info_model(parsed, &model, graph, out))
}

/// The info command over `graph`, the graph inside `model`.
fn info_model<M: DataflowSemantics>(
    parsed: &ParsedArgs,
    model: &Model,
    graph: &M,
    out: Out<'_>,
) -> Result<(), String> {
    w(out, format_args!("graph: {}\n", graph.name()))?;
    w(
        out,
        format_args!(
            "actors: {}, channels: {}, initial tokens: {}\n",
            graph.num_actors(),
            graph.num_channels(),
            (0..graph.num_channels())
                .map(|i| graph.initial_tokens(ChannelId::new(i)))
                .sum::<u64>()
        ),
    )?;
    let q = graph.repetition_cycles().map_err(|e| e.to_string())?;
    w(out, format_args!("repetition vector:"))?;
    for (i, q) in q.iter().enumerate() {
        w(
            out,
            format_args!(" {}={q}", graph.actor_name(ActorId::new(i))),
        )?;
    }
    w(out, format_args!("\n"))?;
    let obs = model.observed_actor(parsed)?;
    match maximal_throughput(graph, obs) {
        Ok(t) => w(
            out,
            format_args!("maximal throughput of {}: {}\n", graph.actor_name(obs), t),
        )?,
        Err(e) => w(out, format_args!("maximal throughput: {e}\n"))?,
    }
    let lb = lower_bound_distribution(graph);
    w(
        out,
        format_args!("per-channel lower bounds: {} (size {})\n", lb, lb.size()),
    )?;
    Ok(())
}

pub fn analyze(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    let obs = model.observed_actor(parsed)?;
    preflight(parsed, &model, obs, out)?;
    with_graph!(&model, graph => analyze_model(parsed, graph, obs, out))
}

/// The analyze command over `graph`, observing `obs`. A phased observed
/// actor also gets its full-cycle throughput: phase firings per time unit
/// divided by its phase count.
fn analyze_model<M: DataflowSemantics>(
    parsed: &ParsedArgs,
    graph: &M,
    obs: ActorId,
    out: Out<'_>,
) -> Result<(), String> {
    let dist = match parsed.options.get("dist") {
        Some(v) => {
            let caps = parse_dist(v)?;
            if caps.len() != graph.num_channels() {
                return Err(format!(
                    "--dist has {} entries but the graph has {} channels",
                    caps.len(),
                    graph.num_channels()
                ));
            }
            StorageDistribution::from_capacities(caps)
        }
        None => lower_bound_distribution(graph),
    };
    let r = throughput(graph, &dist, obs).map_err(|e| e.to_string())?;
    w(
        out,
        format_args!("distribution: {dist} (size {})\n", dist.size()),
    )?;
    if r.deadlocked {
        w(out, format_args!("execution deadlocks: throughput 0\n"))?;
    } else {
        w(
            out,
            format_args!(
                "throughput of {}: {} (period {} time steps, {} firings per period)\n",
                graph.actor_name(obs),
                r.throughput,
                r.period,
                r.firings_per_period
            ),
        )?;
        let phases = graph.num_phases(obs);
        if phases > 1 {
            w(
                out,
                format_args!(
                    "full-cycle throughput of {}: {} ({phases} phases per cycle)\n",
                    graph.actor_name(obs),
                    r.throughput / Rational::from(u64::from(phases))
                ),
            )?;
        }
        w(
            out,
            format_args!(
                "reduced state space: {} states stored, cycle of {} states entered at t={}\n",
                r.states_stored, r.cycle_states, r.cycle_entry_time
            ),
        )?;
    }
    Ok(())
}

/// Appends one front point to the human-readable listing, with the
/// CLI-side latency annotation when the axis was requested.
fn write_point_text(
    p: &ParetoPoint,
    i: usize,
    latencies: &FrontLatencies,
    out: Out<'_>,
) -> Result<(), String> {
    match latencies {
        None => w(out, format_args!("{p}\n")),
        Some(ls) => match ls.get(i).copied().flatten() {
            Some(l) => w(out, format_args!("{p}  latency {l}\n")),
            None => w(out, format_args!("{p}  latency -\n")),
        },
    }
}

fn print_front(
    result: &ExplorationResult,
    parsed: &ParsedArgs,
    telemetry: Option<&buffy_telemetry::Snapshot>,
    space: &ObjectiveSpace,
    latencies: &FrontLatencies,
    out: Out<'_>,
) -> Result<(), String> {
    if parsed.has_flag("json") {
        let points: Vec<String> = result
            .pareto
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| point_json(p, latencies.as_ref().map(|ls| ls.get(i).copied().flatten())))
            .collect();
        w(
            out,
            format_args!(
                "{{\"objectives\":{},\"pareto\":[{}],\"max_throughput\":\"{}\",\"lower_bound_size\":{},\"upper_bound_size\":{},\"completeness\":{},\"skipped\":{},\"failures\":{},\"stats\":{}{}}}\n",
                objectives_json(space),
                points.join(","),
                result.max_throughput,
                result.lower_bound_size,
                result.upper_bound_size,
                completeness_json(&result.completeness),
                skipped_json(&result.skipped),
                failures_json(&result.failures),
                stats_json(&result.stats),
                telemetry_section(telemetry)
            ),
        )?;
    } else if parsed.has_flag("csv") {
        w(
            out,
            format_args!("{}", front_csv(result.pareto.points(), space, latencies)),
        )?;
    } else {
        for (i, p) in result.pareto.points().iter().enumerate() {
            write_point_text(p, i, latencies, out)?;
        }
        w(
            out,
            format_args!(
                "{} Pareto points; maximal throughput {}; bounds lb={} ub={}; {}\n",
                result.pareto.len(),
                result.max_throughput,
                result.lower_bound_size,
                result.upper_bound_size,
                result.stats
            ),
        )?;
        write_resilience_text(&result.completeness, &result.skipped, &result.failures, out)?;
    }
    Ok(())
}

/// `buffy explore` (alias `csdf-explore`), for either dialect.
pub fn explore(parsed: &ParsedArgs, out: Out<'_>) -> Result<i32, String> {
    let model = Model::load(parsed)?;
    with_graph!(&model, graph => explore_model(parsed, &model, graph, out))
}

/// The explore command over `graph`, the graph inside `model`: the kernel
/// calls run generically on `graph`, the per-dialect steps on `model`.
fn explore_model<M: DataflowSemantics + Sync>(
    parsed: &ParsedArgs,
    model: &Model,
    graph: &M,
    out: Out<'_>,
) -> Result<i32, String> {
    let observed = model.observed_actor(parsed)?;
    preflight(parsed, model, observed, out)?;
    let space = objective_space(parsed)?;
    let latency_graph = model.latency_graph(&space)?;
    let algorithm = Algorithm::from_options(parsed, model)?;
    let mut opts = explore_options(parsed, observed)?;
    let mut observation = observe(parsed, model, graph, observed, &mut opts, algorithm.name())?;
    let result = match algorithm.run(graph, &opts) {
        Ok(result) => result,
        Err(e) => return run_failed(e, &mut observation, out),
    };
    let snapshot = observation.finish(end_reason(&result.completeness))?;
    let latencies = front_latencies(latency_graph, observed, result.pareto.points());
    export_front(
        parsed,
        model.name(),
        result.pareto.points(),
        &space,
        &latencies,
    )?;
    print_front(&result, parsed, snapshot.as_ref(), &space, &latencies, out)?;
    Ok(exit_code_for(&result.completeness))
}

/// `buffy constraint`, for either dialect.
pub fn constraint(parsed: &ParsedArgs, out: Out<'_>) -> Result<i32, String> {
    let model = Model::load(parsed)?;
    with_graph!(&model, graph => constraint_model(parsed, &model, graph, out))
}

/// The constraint command over `graph`, the graph inside `model`.
fn constraint_model<M: DataflowSemantics + Sync>(
    parsed: &ParsedArgs,
    model: &Model,
    graph: &M,
    out: Out<'_>,
) -> Result<i32, String> {
    let observed = model.observed_actor(parsed)?;
    preflight(parsed, model, observed, out)?;
    let mut opts = explore_options(parsed, observed)?;
    let constraint: Rational = parsed
        .get("throughput")?
        .ok_or("--throughput R is required (e.g. --throughput 1/6)")?;
    if constraint <= Rational::ZERO {
        return Err("--throughput must be positive".into());
    }
    let mut observation = observe(parsed, model, graph, observed, &mut opts, "constraint")?;
    let r = match min_storage_for_throughput(graph, constraint, &opts) {
        Ok(r) => r,
        Err(e) => return run_failed(e, &mut observation, out),
    };
    let snapshot = observation.finish(end_reason(&r.completeness))?;
    if parsed.has_flag("json") {
        w(
            out,
            format_args!(
                "{{\"constraint\":\"{constraint}\",\"point\":{},\"completeness\":{},\"failures\":{},\"stats\":{}{}}}\n",
                point_json(&r.point, None),
                completeness_json(&r.completeness),
                failures_json(&r.failures),
                stats_json(&r.stats),
                telemetry_section(snapshot.as_ref())
            ),
        )?;
        return Ok(exit_code_for(&r.completeness));
    }
    w(
        out,
        format_args!(
            "minimal storage for throughput ≥ {constraint}: size {} with γ = {} (achieves {})\n",
            r.point.size, r.point.distribution, r.point.throughput
        ),
    )?;
    w(out, format_args!("{}\n", r.stats))?;
    if let Some(reason) = r.completeness.truncated_by {
        w(
            out,
            format_args!(
                "PARTIAL RESULT ({reason}): the witness is sound but may not be minimal \
                 ({} smaller candidate distributions were never evaluated)\n",
                r.completeness.distributions_skipped
            ),
        )?;
    }
    write_resilience_text(&Completeness::exact(), &[], &r.failures, out)?;
    Ok(exit_code_for(&r.completeness))
}

pub fn schedule(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    let graph = model.sdf()?;
    let caps = parse_dist(
        parsed
            .options
            .get("dist")
            .ok_or("--dist is required (e.g. --dist 4,2)")?,
    )?;
    if caps.len() != graph.num_channels() {
        return Err(format!(
            "--dist has {} entries but the graph has {} channels",
            caps.len(),
            graph.num_channels()
        ));
    }
    let dist = StorageDistribution::from_capacities(caps);
    let s =
        Schedule::extract(graph, &dist, ExplorationLimits::default()).map_err(|e| e.to_string())?;
    match (s.period_entry(), s.period()) {
        (Some(entry), Some(period)) => {
            w(
                out,
                format_args!("periodic schedule: period {period} entered at t={entry}\n"),
            )?;
        }
        _ => w(out, format_args!("execution deadlocks\n"))?,
    }
    let horizon: u64 = parsed.get("horizon")?.unwrap_or_else(|| {
        s.period_entry()
            .and_then(|e| s.period().map(|p| e + 2 * p))
            .unwrap_or(20)
            .min(120)
    });
    w(out, format_args!("{}", s.gantt(graph, horizon)))
}

pub fn convert(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    let graph = model.sdf()?;
    match parsed.options.get("to").map(String::as_str) {
        Some("dot") => w(out, format_args!("{}", to_dot(graph))),
        Some("xml") | None => w(out, format_args!("{}", write_sdf_xml(graph))),
        Some(other) => Err(format!("unknown output format {other:?} (dot|xml)")),
    }
}

pub fn generate(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let at_least_one = |option: &str, default: u64| -> Result<u64, String> {
        match parsed.get(option)?.unwrap_or(default) {
            0 => Err(format!("--{option} must be at least 1")),
            n => Ok(n),
        }
    };
    let actors = at_least_one("actors", 6)? as usize;
    let max_repetition = at_least_one("max-repetition", 4)?;
    let max_rate_factor = at_least_one("max-rate", 2)?;
    let max_execution_time = at_least_one("max-exec", 4)?;
    let channels: usize = parsed
        .get("channels")?
        .unwrap_or(actors + 1)
        .max(actors - 1);
    let config = RandomGraphConfig {
        actors,
        extra_channels: channels - (actors - 1),
        max_repetition,
        max_rate_factor,
        max_execution_time,
        seed: parsed.get("seed")?.unwrap_or(0),
    };
    let graph = config.generate();
    w(out, format_args!("{}", write_sdf_xml(&graph)))
}

/// The distribution `buffy bounds` certifies: `--dist` when given
/// (arity-checked), the §7 lower-bound distribution otherwise.
fn bounds_distribution<M: DataflowSemantics>(
    parsed: &ParsedArgs,
    model: &M,
) -> Result<StorageDistribution, String> {
    match parsed.options.get("dist") {
        Some(v) => {
            let caps = parse_dist(v)?;
            if caps.len() != model.num_channels() {
                return Err(format!(
                    "--dist has {} entries but the graph has {} channels",
                    caps.len(),
                    model.num_channels()
                ));
            }
            Ok(StorageDistribution::from_capacities(caps))
        }
        None => Ok(lower_bound_distribution(model)),
    }
}

/// Renders one certificate's bound as a JSON object fragment.
fn certificate_json(cert: &BoundCertificate) -> String {
    let lambda = match &cert.lambda {
        None => "null".to_string(),
        Some(l) => format!("\"{l}\""),
    };
    format!(
        "{{\"bound\":\"{}\",\"lambda\":{lambda},\"deadlocked\":{}}}",
        cert.bound, cert.deadlocked
    )
}

/// Shared rendering of the `buffy bounds` report for both graph kinds:
/// the per-distribution static certificate plus the relaxed per-channel
/// bounds (each channel alone at its capacity, every other channel
/// unbounded — a sound upper bound on its own).
fn bounds_report<M: DataflowSemantics>(
    model: &M,
    name: &str,
    kind: &str,
    observed: ActorId,
    parsed: &ParsedArgs,
    out: Out<'_>,
) -> Result<(), String> {
    let bounds = StaticBounds::new(model, observed).map_err(|e| e.to_string())?;
    if !bounds.is_usable() {
        return Err(
            "the graph is disconnected: the critical cycle ratio may come from a \
             component the observed actor never waits for, so no sound static \
             certificate exists"
                .into(),
        );
    }
    let dist = bounds_distribution(parsed, model)?;
    let cert = bounds
        .certificate(&dist)
        .ok_or("no certificate for this distribution")?;
    let per_channel: Vec<(ChannelId, u64, BoundCertificate)> = (0..model.num_channels())
        .filter_map(|i| {
            let id = ChannelId::new(i);
            let cap = dist.get(id);
            bounds.channel_bound(id, cap).map(|c| (id, cap, c))
        })
        .collect();
    if parsed.has_flag("json") {
        let channels: Vec<String> = per_channel
            .iter()
            .map(|(id, cap, c)| {
                format!(
                    "{{\"channel\":\"{}\",\"capacity\":{cap},\"certificate\":{}}}",
                    json_escape(model.channel_name(*id)),
                    certificate_json(c)
                )
            })
            .collect();
        return w(
            out,
            format_args!(
                "{{\"graph\":\"{}\",\"kind\":\"{kind}\",\"observed\":\"{}\",\"observed_firings\":{},\"distribution\":{},\"certificate\":{},\"channels\":[{}]}}\n",
                json_escape(name),
                json_escape(model.actor_name(observed)),
                bounds.observed_firings(),
                dist_json(&dist),
                certificate_json(&cert),
                channels.join(",")
            ),
        );
    }
    w(out, format_args!("graph: {name} ({kind})\n"))?;
    w(
        out,
        format_args!(
            "observed actor: {} ({} firings per iteration)\n",
            model.actor_name(observed),
            bounds.observed_firings()
        ),
    )?;
    w(
        out,
        format_args!("distribution: {dist} (size {})\n", dist.size()),
    )?;
    if cert.deadlocked {
        w(
            out,
            format_args!("certificate: statically proven deadlock — throughput is exactly 0\n"),
        )?;
    } else {
        let lambda = cert
            .lambda
            .as_ref()
            .map(|l| format!(" (critical cycle ratio λ* = {l})"))
            .unwrap_or_default();
        w(
            out,
            format_args!("certificate: throughput ≤ {}{lambda}\n", cert.bound),
        )?;
    }
    w(
        out,
        format_args!("per-channel relaxed bounds (that channel alone, others unbounded):\n"),
    )?;
    for (id, cap, c) in &per_channel {
        if c.deadlocked {
            w(
                out,
                format_args!(
                    "  {} @ {cap}: statically deadlocks\n",
                    model.channel_name(*id)
                ),
            )?;
        } else {
            w(
                out,
                format_args!(
                    "  {} @ {cap}: throughput ≤ {}\n",
                    model.channel_name(*id),
                    c.bound
                ),
            )?;
        }
    }
    Ok(())
}

pub fn bounds(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let model = Model::load(parsed)?;
    let observed = model.observed_actor(parsed)?;
    with_graph!(&model, graph => {
        bounds_report(graph, model.name(), model.kind(), observed, parsed, out)
    })
}

pub fn gallery(parsed: &ParsedArgs, out: Out<'_>) -> Result<(), String> {
    let name = parsed
        .positional
        .get(1)
        .ok_or("expected a gallery graph name")?;
    // Cyclo-static entries serialize through the CSDF dialect; every
    // consumer (explore, chaos, check) sniffs the dialect itself.
    let csdf = match name.as_str() {
        "updown" => Some(buffy_csdf::gallery::updown()),
        "line-scaler" => Some(buffy_csdf::gallery::line_scaler()),
        "h263rows" => Some(buffy_csdf::gallery::h263_rows()),
        "h263rows-power" => Some(buffy_csdf::gallery::h263_rows_power()),
        _ => None,
    };
    if let Some(graph) = csdf {
        return w(out, format_args!("{}", write_csdf_xml(&graph)));
    }
    let graph = match name.as_str() {
        "example" => gallery::example(),
        "bipartite" => gallery::bipartite(),
        "modem" => gallery::modem(),
        "cd2dat" => gallery::cd2dat(),
        "satellite" => gallery::satellite(),
        "h263decoder" | "h263" => gallery::h263_decoder(),
        "modem-power" => gallery::modem_power(),
        "cd2dat-power" => gallery::cd2dat_power(),
        "h263decoder-power" | "h263-power" => gallery::h263_decoder_power(),
        other => return Err(format!("unknown gallery graph {other:?}")),
    };
    w(out, format_args!("{}", write_sdf_xml(&graph)))
}
