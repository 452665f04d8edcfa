//! Design-space exploration (paper §9).
//!
//! Charts the complete Pareto space of storage-distribution size versus
//! throughput:
//!
//! - the *distribution-size dimension* is searched with the paper's
//!   divide-and-conquer: throughput is monotone in the distribution size,
//!   so whenever the maximal throughput at the two ends of a size interval
//!   coincides, the whole interval is settled;
//! - the *throughput dimension* is searched per size by enumerating the
//!   grid of meaningful distributions ([`DistributionSpace`]) with early
//!   exit as soon as the interval's known ceiling is reached — the
//!   monotonicity-seeded binary search of the paper — or a candidate
//!   reaches the maximal throughput. A candidate whose two-actor pair
//!   bound (`buffy_analysis::PairBounds`) falls below a proven lower
//!   bound on the size's own result is skipped without an evaluation; the
//!   result, witness included, stays that of the full enumeration
//!   (`Sweeps::max_throughput_for_size` has the argument);
//! - the search is boxed by the combined lower bound (sum of per-channel
//!   BMLB bounds) and the upper bound (a distribution realizing the
//!   maximal achievable throughput), per §8/Fig. 7. That distribution
//!   answers the largest size, whose sweep then only picks the witness:
//!   it runs last, and only when no smaller size reaches the maximum;
//! - optional *throughput quantization* (the paper's remedy for the H.263
//!   decoder's many Pareto points) and optional multi-threaded evaluation.
//!
//! Candidate evaluations run through the exploration runtime
//! ([`crate::runtime`]): a sharded memo cache, atomic statistics
//! ([`ExplorationStats`]) and a structured [`ExploreObserver`] event
//! stream. Candidates are consumed in fixed-size chunks regardless of the
//! thread count, and each chunk's evaluations are committed in
//! enumeration order, so the evaluated distributions, their order and
//! every reported statistic are identical whether the search runs on one
//! thread or many.
//!
//! The driver is written once against [`DataflowSemantics`]:
//! [`explore_design_space`] charts SDF and CSDF graphs alike, and reports
//! progress to the [`ExploreObserver`] carried in
//! [`ExploreOptions::observer`].

use crate::bound_table::{admits, BoundTable};
use crate::enumerate::DistributionSpace;
use crate::error::ExploreError;
use crate::pareto::{ParetoPoint, ParetoSet};
use crate::pipeline::{thin_front, EvalPipeline};
use crate::runtime::{
    Completeness, EvaluationFailure, Event, ExplorationStats, ExploreObserver, NoopObserver,
    SearchPhase, SkippedSize, EVAL_CHUNK,
};
use buffy_analysis::{CancelReason, CancelToken, DataflowSemantics, ExplorationLimits};
use buffy_graph::{ActorId, Rational, StorageDistribution};
use buffy_telemetry::{labeled, names};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Cap on how many distributions of a single skipped size are counted when
/// annotating a truncated result — the annotation pass must not itself
/// enumerate an exploding space.
const SKIP_COUNT_CAP: u64 = 10_000;

/// Checkpointed evaluations a run can be warm-started from: distribution →
/// (throughput, reduced states stored). See
/// [`ExploreOptions::warm_start`].
pub type WarmStart = HashMap<StorageDistribution, (Rational, u64)>;

/// Options controlling the design-space exploration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Actor whose throughput is observed; defaults to the model's
    /// [`default_observed_actor`](DataflowSemantics::default_observed_actor)
    /// (for SDF graphs the first sink).
    pub observed: Option<ActorId>,
    /// Cap on the distribution size (paper §10: "it is possible to set the
    /// maximum distribution size"); defaults to the computed upper bound.
    /// Every distribution below the lower bound deadlocks, so a cap below
    /// it fails with [`ExploreError::NoPositiveThroughput`].
    pub max_size: Option<u64>,
    /// Quantize throughputs searched to multiples of this value (paper
    /// §11: limits the number of Pareto points, e.g. for H.263).
    pub quantum: Option<Rational>,
    /// Per-analysis state-space limits.
    pub limits: ExplorationLimits,
    /// Worker threads for evaluating candidate distributions: 1 =
    /// sequential, 0 = auto-detect via
    /// [`std::thread::available_parallelism`]. The reported
    /// [`ExplorationStats`] are identical for every thread count.
    pub threads: usize,
    /// Per-channel capacity ceilings (paper §8: distributed memories
    /// impose "extra constraints on the channel capacities"). Channels
    /// may not grow beyond these values.
    pub max_channel_caps: Option<StorageDistribution>,
    /// Shared cancellation/budget token. Analyses poll it on a coarse
    /// stride; when it trips, the drivers stop and return a *partial*
    /// result (see [`ExplorationResult::completeness`]) instead of an
    /// error — except when cancelled before anything was established,
    /// which yields [`ExploreError::Cancelled`].
    pub cancel: Option<Arc<CancelToken>>,
    /// Evaluations restored from a checkpoint. On first request each entry
    /// is replayed as a *recorded evaluation* (with its checkpointed state
    /// count and zero wall time), not a cache hit — so a resumed run
    /// reproduces the front and the statistics of an uninterrupted one.
    pub warm_start: Option<Arc<WarmStart>>,
    /// Test hook: the evaluation of exactly this distribution panics
    /// inside the worker, exercising the panic-containment path. Not for
    /// production use.
    pub fail_distribution: Option<StorageDistribution>,
    /// Deterministic fault schedule injecting evaluation panics, spurious
    /// cancellations and arena-pressure spikes into the pipeline (see
    /// [`crate::FaultPlan`]). The generalization of `fail_distribution`:
    /// `None` in production, where every hook is a single untaken branch.
    pub fault_plan: Option<Arc<crate::fault::FaultPlan>>,
    /// Receives the run's [`Event`] stream — phases, evaluations, cache
    /// hits, failures and accepted points — as the search runs;
    /// `None` reports to [`NoopObserver`]. Observation never changes the
    /// result.
    pub observer: Option<Arc<dyn ExploreObserver>>,
}

impl ExploreOptions {
    /// The observer the run reports to.
    pub(crate) fn event_sink(&self) -> &dyn ExploreObserver {
        self.observer.as_deref().unwrap_or(&NoopObserver)
    }
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            observed: None,
            max_size: None,
            quantum: None,
            limits: ExplorationLimits::default(),
            threads: 1,
            max_channel_caps: None,
            cancel: None,
            warm_start: None,
            fail_distribution: None,
            fault_plan: None,
            observer: None,
        }
    }
}

/// Outcome of a design-space exploration.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// The Pareto front: minimal storage distributions and their
    /// throughputs, by increasing size.
    pub pareto: ParetoSet,
    /// The maximal achievable throughput of the observed actor.
    pub max_throughput: Rational,
    /// The combined lower bound on the distribution size (`lb`, Fig. 7).
    pub lower_bound_size: u64,
    /// Size of the computed maximal-throughput distribution (`ub`, Fig. 7).
    pub upper_bound_size: u64,
    /// Whether the search ran to completion or was truncated (deadline,
    /// interrupt, evaluation budget). A truncated front is still sound:
    /// every reported point is achievable.
    pub completeness: Completeness,
    /// For truncated runs: the realizable sizes the search never settled,
    /// each annotated with the conservative bounds-phase throughput
    /// ceiling. Empty for exact runs.
    pub skipped: Vec<SkippedSize>,
    /// Evaluations that panicked and were degraded to zero-throughput
    /// entries instead of aborting the run, in distribution order.
    pub failures: Vec<EvaluationFailure>,
    /// Evaluation statistics: analyses run, cache hits, largest state
    /// space, analysis wall time.
    pub stats: ExplorationStats,
}

/// Quantizes `t` down to the grid when a quantum is set.
fn q(t: Rational, quantum: Option<Rational>) -> Rational {
    match quantum {
        Some(step) if !t.is_zero() => t.quantize_down(step),
        _ => t,
    }
}

/// The per-size questions of one exhaustive run, answered through its
/// pipeline and its table of pair bounds.
struct Sweeps<'s, 'a, M: DataflowSemantics + Sync> {
    eval: &'s EvalPipeline<'a, M>,
    space: &'s DistributionSpace,
    table: BoundTable<'a, M>,
    quantum: Option<Rational>,
    /// The graph's maximal throughput, which no distribution exceeds.
    thr_max: Rational,
}

impl<M: DataflowSemantics + Sync> Sweeps<'_, '_, M> {
    /// The maximal throughput over all grid distributions of exactly
    /// `size` tokens, with early exit once the (quantized) `ceiling_q` is
    /// reached. Returns the best (quantized value, exact value, witness);
    /// the witness is `None` when no grid distribution of that size
    /// exists or none terminates positively. The floor starts at the
    /// throughput of `seed`, a distribution of `size`, or of the table's
    /// seed of `size` when `seed` is `None`.
    ///
    /// Candidates are consumed in chunks of exactly [`EVAL_CHUNK`]
    /// enumerated positions, with the ceiling checked at chunk ends only,
    /// for every thread count, sequential runs included. Inside a chunk
    /// the sweep stops at its first candidate whose exact throughput is
    /// `thr_max`: nothing after it can beat it, so the full chunk would
    /// end with the same best and witness and reach every ceiling. A
    /// smaller ceiling stops nothing inside a chunk: on graphs with mixed
    /// channel steps it is no bound on the size's own maximum, and a later
    /// candidate of the chunk may exceed it. The pipeline commits each
    /// chunk in enumeration order up to the stop, so the evaluated
    /// requests and their order do not depend on `threads`.
    ///
    /// # Skipping by pair bounds
    ///
    /// First the seed, if there is one, is evaluated through the
    /// pipeline, and the *floor* is its throughput, capped at the ceiling
    /// (zero without a seed). A candidate whose pair bound falls below the
    /// floor (some channel under its threshold) is not evaluated, but it
    /// keeps its position in its chunk. After each chunk the floor rises
    /// to the best throughput found so far; this is the only point where
    /// the thresholds change, so the evaluated set still does not depend
    /// on `threads`.
    ///
    /// *Why the result is exact.* Compare with the sweep that evaluates
    /// every enumerated candidate. Its chunks end at the same positions.
    /// Say its best after some chunk is `b`, first reached by `w`.
    /// - If `b` is at least the seed's floor, `w` is not skipped: its
    ///   bound is at least `t(w) = b`, and so is every floor in force when
    ///   `w` was enumerated (a raised floor is an earlier best of this
    ///   sweep, at most `b`). Every candidate before `w` has less
    ///   throughput, so this sweep has the same best and witness after
    ///   that chunk.
    /// - If `b` is below the floor, this sweep's best is at most `b`. The
    ///   floor is at most the ceiling, so neither sweep stops there.
    ///
    /// The full sweep ends with a best of at least the floor: the ceiling
    /// when it stops early, and the size's maximum, at least the seed's
    /// throughput, when it runs out. So both sweeps end after the same
    /// chunk with the same `(best_q, best, witness)`, for every quantum,
    /// cap and thread count, and the stop at `thr_max` changes none of
    /// the three.
    fn max_throughput_for_size(
        &mut self,
        size: u64,
        ceiling_q: Rational,
        seed: Option<&StorageDistribution>,
    ) -> Result<(Rational, Rational, Option<StorageDistribution>), ExploreError> {
        let eval = self.eval;
        let table = &mut self.table;
        let (quantum, thr_max) = (self.quantum, self.thr_max);
        let seed = match seed {
            Some(seed) => Some(seed.clone()),
            None => table.seed(size)?,
        };
        let mut floor = match seed {
            Some(seed) => match eval.eval(&seed) {
                Ok(t) => t.min(ceiling_q),
                Err(e @ ExploreError::Cancelled { .. }) => return Err(e),
                // A seed that fails to analyse proves nothing; the sweep
                // meets the failure itself if it reaches the seed.
                Err(_) => Rational::ZERO,
            },
            None => Rational::ZERO,
        };
        let mut thresholds = table.thresholds(floor, size)?;
        let mut best = Rational::ZERO;
        let mut best_q = Rational::ZERO;
        let mut witness: Option<StorageDistribution> = None;
        let mut error: Option<ExploreError> = None;

        let mut buffer: Vec<StorageDistribution> = Vec::with_capacity(EVAL_CHUNK);
        // Per buffered candidate, the discards enumerated before it in its
        // chunk: a stop inside the chunk counts only those.
        let mut discards_before: Vec<u64> = Vec::with_capacity(EVAL_CHUNK);
        let mut positions = 0;
        let mut skipped = 0;
        // Evaluates one chunk up to its stop; whether the sweep ends there.
        let process = |buf: &mut Vec<StorageDistribution>,
                       discards_before: &mut Vec<u64>,
                       skipped: u64,
                       best: &mut Rational,
                       best_q: &mut Rational,
                       witness: &mut Option<StorageDistribution>,
                       table: &mut BoundTable<'_, M>|
         -> Result<bool, ExploreError> {
            let results = eval.eval_batch_until(buf, &|t| t == thr_max)?;
            let stopped = results.last() == Some(&thr_max);
            table.note_skipped(if stopped {
                discards_before[results.len() - 1]
            } else {
                skipped
            });
            discards_before.clear();
            for (d, t) in buf.drain(..).zip(results) {
                if t > *best {
                    *best = t;
                    *best_q = q(t, quantum);
                    *witness = Some(d);
                }
            }
            Ok(stopped || *best_q >= ceiling_q)
        };
        self.space.for_each_of_size(size, |d| {
            positions += 1;
            if admits(&d, &thresholds) {
                buffer.push(d);
                discards_before.push(skipped);
            } else {
                skipped += 1;
            }
            if positions < EVAL_CHUNK {
                return ControlFlow::Continue(());
            }
            positions = 0;
            let reached = process(
                &mut buffer,
                &mut discards_before,
                std::mem::take(&mut skipped),
                &mut best,
                &mut best_q,
                &mut witness,
                table,
            )
            .and_then(|reached| {
                if !reached && best > floor {
                    floor = best;
                    thresholds = table.thresholds(floor, size)?;
                }
                Ok(reached)
            });
            match reached {
                Ok(true) => {
                    eval.note_short_circuit();
                    ControlFlow::Break(())
                }
                Ok(false) => ControlFlow::Continue(()),
                Err(e) => {
                    error = Some(e);
                    ControlFlow::Break(())
                }
            }
        });
        if error.is_none() && positions > 0 {
            if let Err(e) = process(
                &mut buffer,
                &mut discards_before,
                skipped,
                &mut best,
                &mut best_q,
                &mut witness,
                table,
            ) {
                error = Some(e);
            }
        }

        if let Some(e) = error {
            return Err(e);
        }
        if best.is_zero() {
            witness = None;
        }
        Ok((best_q, best, witness))
    }

    /// Whether some grid distribution of exactly `size` tokens has
    /// positive throughput (early exits on the first hit). A candidate
    /// under the table's liveness thresholds is skipped without an
    /// evaluation: some channel's two end actors deadlock alone, so the
    /// candidate deadlocks too, and the answer only asks whether some
    /// candidate is live.
    fn has_positive(&mut self, size: u64) -> Result<bool, ExploreError> {
        let eval = self.eval;
        let thresholds = self.table.live_thresholds(size)?;
        let mut found = false;
        let mut skipped = 0;
        let mut error: Option<ExploreError> = None;
        self.space.for_each_of_size(size, |d| {
            if !admits(&d, &thresholds) {
                skipped += 1;
                return ControlFlow::Continue(());
            }
            match eval.eval(&d) {
                Ok(t) if !t.is_zero() => {
                    found = true;
                    ControlFlow::Break(())
                }
                Ok(_) => ControlFlow::Continue(()),
                Err(e) => {
                    error = Some(e);
                    ControlFlow::Break(())
                }
            }
        });
        self.table.note_skipped(skipped);
        match error {
            Some(e) => Err(e),
            None => Ok(found),
        }
    }
}

/// Degrades a cancellation to `None`, recording the first reason seen;
/// every other error propagates.
pub(crate) fn salvage<T>(
    r: Result<T, ExploreError>,
    truncated: &mut Option<CancelReason>,
) -> Result<Option<T>, ExploreError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(ExploreError::Cancelled { reason }) => {
            if truncated.is_none() {
                *truncated = Some(reason);
            }
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Explores the complete storage/throughput design space of `model` and
/// returns its Pareto front (paper §9).
///
/// The driver works for any [`DataflowSemantics`] model — SDF and CSDF
/// graphs alike (`Sync` because candidate evaluation may be parallelized
/// across threads). Progress events go to [`ExploreOptions::observer`].
///
/// # Errors
///
/// - [`ExploreError::Graph`] for inconsistent graphs;
/// - [`ExploreError::Analysis`] for analysis failures (state limits,
///   token-free cycles, …);
/// - [`ExploreError::NoPositiveThroughput`] when no distribution within
///   the size bounds executes without deadlock;
/// - [`ExploreError::Cancelled`] when a cancel token trips during the
///   bounds phase — before anything is known about the design space.
///   Cancellation in any later phase instead returns `Ok` with a partial
///   result (see [`ExplorationResult::completeness`]).
///
/// # Examples
///
/// The running example's full Pareto space (paper Fig. 5): sizes 6, 8, 9,
/// 10 with throughputs 1/7, 1/6, 1/5, 1/4.
///
/// ```
/// use buffy_core::{explore_design_space, ExploreOptions};
/// use buffy_graph::{Rational, SdfGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
///
/// let result = explore_design_space(&g, &ExploreOptions::default())?;
/// let sizes: Vec<u64> = result.pareto.points().iter().map(|p| p.size).collect();
/// assert_eq!(sizes, vec![6, 8, 9, 10]);
/// assert_eq!(result.pareto.maximal().unwrap().throughput, Rational::new(1, 4));
/// # Ok(())
/// # }
/// ```
pub fn explore_design_space<M: DataflowSemantics + Sync>(
    model: &M,
    options: &ExploreOptions,
) -> Result<ExplorationResult, ExploreError> {
    let observed = options
        .observed
        .unwrap_or_else(|| model.default_observed_actor());
    let eval = EvalPipeline::new(model, observed, options);
    let mut space = DistributionSpace::for_model(model);
    if let Some(caps) = &options.max_channel_caps {
        space = space.with_max_capacities(caps);
    }
    let lb_size = space.min_size();
    // Every distribution below the lower bound has a channel below its
    // minimal capacity and deadlocks.
    if options.max_size.is_some_and(|cap| cap < lb_size) {
        return Err(ExploreError::NoPositiveThroughput);
    }

    // Observation only: the settled-sizes counter when a recorder is
    // installed, a single branch when not.
    let pruned_counter = buffy_telemetry::active().map(|r| {
        r.counter(
            &labeled(
                names::SIZES_PRUNED,
                "phase",
                SearchPhase::FrontSearch.name(),
            ),
            "Distribution sizes settled by interval collapse without any evaluation.",
        )
    });

    // Accept a witness into the front, reporting genuinely new points.
    let accept = |pareto: &mut ParetoSet, w: StorageDistribution, t: Rational| {
        let p = ParetoPoint::new(w, t);
        if pareto.insert(p.clone()) {
            eval.emit(Event::Accepted(&p));
        }
    };

    // Bounds of the size dimension (paper §8, Fig. 7). The probes run
    // through the shared evaluator: memoized, counted, observed.
    // Cancellation in this phase leaves nothing to salvage (no throughput
    // ceiling, no size range) and surfaces as `ExploreError::Cancelled`.
    eval.emit(Event::Phase(SearchPhase::Bounds));
    let (ub_dist, thr_max_graph) = eval.upper_bound()?;
    let mut ub_size = options.max_size.unwrap_or_else(|| ub_dist.size());
    if let Some(caps) = &options.max_channel_caps {
        ub_size = ub_size.min(caps.size());
    }

    // Nothing exceeds the maximal throughput: the (quantized) ceiling of
    // every sweep.
    let thr_max_q = q(thr_max_graph, options.quantum);

    // The size dimension only holds distributions at realizable grid
    // sizes (capacities move in per-channel steps): probing a hole — e.g.
    // any odd size when every step is 2 — would make the monotone
    // feasibility predicate appear false and cut genuine Pareto points
    // off below it. All size searches therefore run over indices into the
    // realizable-size list. Sizes beyond the upper-bound distribution
    // cannot improve on its throughput, so the list is clamped there.
    let search_hi = ub_size.min(ub_dist.size()).max(lb_size);
    let sizes = space.sizes_in(lb_size, search_hi);
    let Some(&largest) = sizes.last() else {
        return Err(ExploreError::NoPositiveThroughput);
    };
    // The bounds phase has answered the largest size when `ub_dist` is one
    // of its candidates: `ub_dist` reaches `thr_max`, which nothing
    // exceeds, so the size is live and its sweep reaches the right end's
    // ceiling. That sweep only has to pick the witness, and only if no
    // smaller size reaches the same ceiling first; it runs last.
    let ub_answers_largest =
        !thr_max_graph.is_zero() && ub_dist.size() == largest && space.contains(&ub_dist);

    // The pair bounds of every sweep of the run, shared by every size.
    let mut sweeps = Sweeps {
        eval: &eval,
        space: &space,
        table: eval.bound_table(&space, SearchPhase::MinimalSize),
        quantum: options.quantum,
        thr_max: thr_max_graph,
    };

    // From here on a trip of the cancel token degrades the run to a
    // partial result: `salvage` converts the `Cancelled` error into a
    // recorded truncation reason, and `assemble_skipped` annotates every
    // realizable size the search never settled with the bounds-phase
    // throughput ceiling (sound: no distribution of any size exceeds it).
    let assemble_skipped = |settled: &[bool]| -> (u64, Vec<SkippedSize>) {
        let mut skipped = Vec::new();
        let mut total: u64 = 0;
        for (i, &size) in sizes.iter().enumerate() {
            if settled.get(i).copied().unwrap_or(false) {
                continue;
            }
            let n = space.count_of_size_capped(size, SKIP_COUNT_CAP);
            total = total.saturating_add(n);
            skipped.push(SkippedSize {
                size,
                distributions: n,
                throughput_bound: thr_max_graph,
            });
        }
        (total, skipped)
    };

    // Smallest size with positive throughput (binary search on the
    // monotone predicate; the combined lower bound may still deadlock —
    // the paper's Fig. 6 discussion).
    eval.emit(Event::Phase(SearchPhase::MinimalSize));
    let mut truncated: Option<CancelReason> = None;
    let mut lo = 0;
    let mut hi = sizes.len() - 1;
    let min_positive: Option<usize> = 'min: {
        if !ub_answers_largest {
            match salvage(sweeps.has_positive(largest), &mut truncated)? {
                None => break 'min None,
                Some(false) => return Err(ExploreError::NoPositiveThroughput),
                Some(true) => {}
            }
        }
        match salvage(sweeps.has_positive(sizes[lo]), &mut truncated)? {
            None => break 'min None,
            Some(true) => break 'min Some(lo),
            Some(false) => {}
        }
        // Invariant: sizes[lo] infeasible, sizes[hi] feasible.
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            match salvage(sweeps.has_positive(sizes[mid]), &mut truncated)? {
                None => break 'min None,
                Some(true) => hi = mid,
                Some(false) => lo = mid,
            }
        }
        Some(hi)
    };
    let Some(min_positive) = min_positive else {
        // Cancelled before the minimal feasible size was located: nothing
        // is settled, the partial front is empty.
        let reason = truncated.expect("cancellation recorded");
        let (total, skipped) = assemble_skipped(&[]);
        return Ok(ExplorationResult {
            pareto: ParetoSet::new(),
            max_throughput: thr_max_graph,
            lower_bound_size: lb_size,
            upper_bound_size: ub_size,
            completeness: Completeness::truncated(reason, total),
            skipped,
            failures: eval.take_failures(),
            stats: eval.stats(),
        });
    };
    let last = sizes.len() - 1;

    eval.emit(Event::Phase(SearchPhase::FrontSearch));
    sweeps.table.count_phase(SearchPhase::FrontSearch);
    let mut pareto = ParetoSet::new();
    // Sizes below the minimal feasible one are settled: zero throughput,
    // no front point possible there.
    let mut settled = vec![false; sizes.len()];
    for flag in settled.iter_mut().take(min_positive) {
        *flag = true;
    }
    'search: {
        // Left end of the front.
        let Some((left_q, left_exact, left_witness)) = salvage(
            sweeps.max_throughput_for_size(sizes[min_positive], thr_max_q, None),
            &mut truncated,
        )?
        else {
            break 'search;
        };
        settled[min_positive] = true;
        if let Some(w) = left_witness {
            accept(&mut pareto, w, left_exact);
        }

        // Right end: the maximal throughput is reached at the largest
        // realizable size (unless the user capped the size below it). When
        // the bounds phase answered that size its ceiling is known, and its
        // sweep is deferred.
        let deferred = ub_answers_largest && last > min_positive;
        let right_q = if deferred {
            thr_max_q
        } else {
            let (right_q, right_exact, right_witness) = if last > min_positive {
                let Some(right) = salvage(
                    sweeps.max_throughput_for_size(largest, thr_max_q, None),
                    &mut truncated,
                )?
                else {
                    break 'search;
                };
                right
            } else {
                (left_q, left_exact, None)
            };
            settled[last] = true;
            if let Some(w) = right_witness {
                accept(&mut pareto, w, right_exact);
            }
            right_q
        };
        // Whether a smaller size reached the right end's ceiling: its point
        // then dominates every point of the largest size, or shares its
        // quantization level at a smaller size.
        let mut right_reached = left_q >= right_q;

        // Divide and conquer over the realizable-size indices.
        let mut stack: Vec<(usize, Rational, usize, Rational)> = Vec::new();
        if last > min_positive {
            stack.push((min_positive, left_q, last, right_q));
        }
        while let Some((lo_i, lo_q, hi_i, hi_q)) = stack.pop() {
            if lo_q >= hi_q || lo_i + 1 >= hi_i {
                // The interval is settled: its interior cannot contribute
                // a new (quantized) Pareto point.
                let mut pruned = 0u64;
                for flag in settled.iter_mut().take(hi_i).skip(lo_i + 1) {
                    if !*flag {
                        pruned += 1;
                    }
                    *flag = true;
                }
                if pruned > 0 {
                    if let Some(c) = &pruned_counter {
                        c.add(pruned);
                    }
                }
                continue;
            }
            let mid = lo_i + (hi_i - lo_i) / 2;
            let Some((mid_q, mid_exact, mid_witness)) = salvage(
                sweeps.max_throughput_for_size(sizes[mid], hi_q, None),
                &mut truncated,
            )?
            else {
                // The interrupted midpoint and the interiors of all
                // pending intervals stay unsettled and are annotated
                // below.
                break 'search;
            };
            settled[mid] = true;
            right_reached |= mid_q >= right_q;
            if let Some(w) = mid_witness {
                accept(&mut pareto, w, mid_exact);
            }
            stack.push((lo_i, lo_q, mid, mid_q));
            stack.push((mid, mid_q, hi_i, hi_q));
        }

        // The deferred right end, seeded by `ub_dist` (as a rule a memo
        // hit of the bounds phase): it reaches `thr_max`, so the floor
        // equals the ceiling from the start.
        if deferred && !right_reached {
            let Some((_, right_exact, right_witness)) = salvage(
                sweeps.max_throughput_for_size(largest, thr_max_q, Some(&ub_dist)),
                &mut truncated,
            )?
            else {
                break 'search;
            };
            if let Some(w) = right_witness {
                accept(&mut pareto, w, right_exact);
            }
        }
        settled[last] = true;
    }

    let (completeness, skipped) = match truncated {
        None => (Completeness::exact(), Vec::new()),
        Some(reason) => {
            let (total, skipped) = assemble_skipped(&settled);
            (Completeness::truncated(reason, total), skipped)
        }
    };

    // Thin to one point per quantization level (smallest size wins).
    let pareto = thin_front(pareto, options.quantum);

    Ok(ExplorationResult {
        pareto,
        max_throughput: thr_max_graph,
        lower_bound_size: lb_size,
        upper_bound_size: ub_size,
        completeness,
        skipped,
        failures: eval.take_failures(),
        stats: eval.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;
    use std::sync::Mutex;

    /// The per-size sweep without pair bounds and without the stop at the
    /// maximal throughput: it evaluates every enumerated candidate of its
    /// chunks. The first reference of the sweep differential below.
    fn reference_max_throughput_for_size<M: DataflowSemantics + Sync>(
        eval: &EvalPipeline<'_, M>,
        space: &DistributionSpace,
        size: u64,
        ceiling_q: Rational,
        quantum: Option<Rational>,
    ) -> Result<(Rational, Rational, Option<StorageDistribution>), ExploreError> {
        let mut best = Rational::ZERO;
        let mut best_q = Rational::ZERO;
        let mut witness: Option<StorageDistribution> = None;
        let mut error: Option<ExploreError> = None;

        let mut buffer: Vec<StorageDistribution> = Vec::with_capacity(EVAL_CHUNK);
        let process = |buf: &mut Vec<StorageDistribution>,
                       best: &mut Rational,
                       best_q: &mut Rational,
                       witness: &mut Option<StorageDistribution>|
         -> Result<bool, ExploreError> {
            let results = eval.eval_batch_until(buf, &|_| false)?;
            for (d, t) in buf.drain(..).zip(results) {
                if t > *best {
                    *best = t;
                    *best_q = q(t, quantum);
                    *witness = Some(d);
                }
            }
            Ok(*best_q >= ceiling_q)
        };
        space.for_each_of_size(size, |d| {
            buffer.push(d);
            if buffer.len() >= EVAL_CHUNK {
                match process(&mut buffer, &mut best, &mut best_q, &mut witness) {
                    Ok(true) => ControlFlow::Break(()),
                    Ok(false) => ControlFlow::Continue(()),
                    Err(e) => {
                        error = Some(e);
                        ControlFlow::Break(())
                    }
                }
            } else {
                ControlFlow::Continue(())
            }
        });
        if error.is_none() && !buffer.is_empty() {
            if let Err(e) = process(&mut buffer, &mut best, &mut best_q, &mut witness) {
                error = Some(e);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        if best.is_zero() {
            witness = None;
        }
        Ok((best_q, best, witness))
    }

    /// The per-size sweep with pair bounds but without the stop at the
    /// maximal throughput: every chunk is evaluated to its end. The second
    /// reference of the sweep differential below, whose requests the
    /// sweep must ask for in the same order up to its stop.
    fn reference_bounded_max_throughput_for_size<M: DataflowSemantics + Sync>(
        eval: &EvalPipeline<'_, M>,
        space: &DistributionSpace,
        table: &mut BoundTable<'_, M>,
        size: u64,
        ceiling_q: Rational,
        quantum: Option<Rational>,
    ) -> Result<(Rational, Rational, Option<StorageDistribution>), ExploreError> {
        let mut floor = match table.seed(size)? {
            Some(seed) => match eval.eval(&seed) {
                Ok(t) => t.min(ceiling_q),
                Err(e @ ExploreError::Cancelled { .. }) => return Err(e),
                Err(_) => Rational::ZERO,
            },
            None => Rational::ZERO,
        };
        let mut thresholds = table.thresholds(floor, size)?;
        let mut best = Rational::ZERO;
        let mut best_q = Rational::ZERO;
        let mut witness: Option<StorageDistribution> = None;
        let mut error: Option<ExploreError> = None;

        let mut buffer: Vec<StorageDistribution> = Vec::with_capacity(EVAL_CHUNK);
        let mut positions = 0;
        let process = |buf: &mut Vec<StorageDistribution>,
                       best: &mut Rational,
                       best_q: &mut Rational,
                       witness: &mut Option<StorageDistribution>|
         -> Result<bool, ExploreError> {
            let results = eval.eval_batch_until(buf, &|_| false)?;
            for (d, t) in buf.drain(..).zip(results) {
                if t > *best {
                    *best = t;
                    *best_q = q(t, quantum);
                    *witness = Some(d);
                }
            }
            Ok(*best_q >= ceiling_q)
        };
        space.for_each_of_size(size, |d| {
            positions += 1;
            if admits(&d, &thresholds) {
                buffer.push(d);
            }
            if positions < EVAL_CHUNK {
                return ControlFlow::Continue(());
            }
            positions = 0;
            let reached =
                process(&mut buffer, &mut best, &mut best_q, &mut witness).and_then(|reached| {
                    if !reached && best > floor {
                        floor = best;
                        thresholds = table.thresholds(floor, size)?;
                    }
                    Ok(reached)
                });
            match reached {
                Ok(true) => ControlFlow::Break(()),
                Ok(false) => ControlFlow::Continue(()),
                Err(e) => {
                    error = Some(e);
                    ControlFlow::Break(())
                }
            }
        });
        if error.is_none() && positions > 0 {
            if let Err(e) = process(&mut buffer, &mut best, &mut best_q, &mut witness) {
                error = Some(e);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        if best.is_zero() {
            witness = None;
        }
        Ok((best_q, best, witness))
    }

    /// The candidates of `enumerated`, a full sweep's requests, up to the
    /// stop of a sweep whose result is `result`: through the witness when
    /// it reached `thr_max`, all of them otherwise.
    fn through_stop<'r>(
        enumerated: &'r [StorageDistribution],
        result: &(Rational, Rational, Option<StorageDistribution>),
        thr_max: Rational,
    ) -> &'r [StorageDistribution] {
        match &result.2 {
            Some(w) if result.1 == thr_max => {
                let at = enumerated.iter().position(|d| d == w).expect("witness");
                &enumerated[..=at]
            }
            _ => enumerated,
        }
    }

    /// Every distribution a pipeline is asked for, memo hits included.
    #[derive(Default)]
    struct Requests(Mutex<Vec<StorageDistribution>>);

    impl ExploreObserver for Requests {
        fn event(&self, event: &Event<'_>) {
            if let Event::Evaluated { dist, .. }
            | Event::CacheHit(dist)
            | Event::Failed { dist, .. } = *event
            {
                self.0.lock().unwrap().push(dist.clone());
            }
        }
    }

    impl Requests {
        fn take(&self) -> Vec<StorageDistribution> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    /// Request counts of one [`assert_sweeps_agree`] call.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct SweepCounts {
        /// Candidates the unbounded references evaluated: every enumerated
        /// one.
        enumerated: u64,
        /// Enumerated positions up to each bounded sweep's stop.
        positions: u64,
        /// Candidates the bounded sweeps evaluated, seeds not included.
        evaluated: u64,
        /// Seeds the bounded sweeps evaluated.
        seeds: u64,
        /// Discards of the sweeps seeded by the upper-bound distribution.
        seeded_discards: u64,
    }

    /// Sweeps every realizable size of `model` at every ceiling with the
    /// bounded sweep and then with both references, through one pipeline
    /// and one table, with `threads` workers, `caps` and `quantum`.
    /// Requires the same `(best_q, best, witness)` from all three (and from
    /// the sweep seeded by the upper-bound distribution at its size), and a
    /// bounded sweep that asks for its seed first, then only for
    /// candidates the unbounded reference asked for, and whose requests
    /// are a prefix of the bounded reference's. Counts discards on
    /// `skipped`. Returns the counts and the bounded sweeps' requests.
    fn assert_sweeps_agree<M: DataflowSemantics + Sync>(
        label: &str,
        model: &M,
        threads: usize,
        caps: Option<StorageDistribution>,
        quantum: Option<Rational>,
        ceilings: &[Rational],
        skipped: &Arc<buffy_telemetry::Counter>,
    ) -> (SweepCounts, Vec<Vec<StorageDistribution>>) {
        let requests = Arc::new(Requests::default());
        let options = ExploreOptions {
            threads,
            max_channel_caps: caps.clone(),
            observer: Some(requests.clone()),
            ..ExploreOptions::default()
        };
        let eval = EvalPipeline::new(model, model.default_observed_actor(), &options);
        let mut space = DistributionSpace::for_model(model);
        if let Some(caps) = &caps {
            space = space.with_max_capacities(caps);
        }
        let (ub, thr_max) = eval.upper_bound().unwrap();
        let top = caps.as_ref().map_or(u64::MAX, StorageDistribution::size);
        let mut sweeps = Sweeps {
            eval: &eval,
            space: &space,
            table: eval
                .bound_table(&space, SearchPhase::FrontSearch)
                .counting_on(skipped.clone()),
            quantum,
            thr_max,
        };
        let mut counts = SweepCounts::default();
        let mut logs = Vec::new();
        requests.take();
        for size in space.sizes_in(space.min_size(), ub.size().min(top)) {
            for &ceiling in ceilings {
                let case = format!("{label} size {size} ceiling {ceiling}");
                let ceiling_q = q(ceiling, quantum);
                let bounded = sweeps
                    .max_throughput_for_size(size, ceiling_q, None)
                    .unwrap();
                let mut asked = requests.take();
                let reference_bounded = reference_bounded_max_throughput_for_size(
                    &eval,
                    &space,
                    &mut sweeps.table,
                    size,
                    ceiling_q,
                    quantum,
                )
                .unwrap();
                let bounded_asked = requests.take();
                let reference =
                    reference_max_throughput_for_size(&eval, &space, size, ceiling_q, quantum)
                        .unwrap();
                let enumerated = requests.take();
                assert_eq!(bounded, reference, "{case}");
                assert_eq!(reference_bounded, reference, "{case}");
                if size == ub.size() && space.contains(&ub) {
                    // The deferred sweep of the largest size, seeded by
                    // the upper-bound distribution.
                    let before = skipped.get();
                    let seeded = sweeps.max_throughput_for_size(size, ceiling_q, Some(&ub));
                    assert_eq!(seeded.unwrap(), reference, "{case}: seeded by ub");
                    counts.seeded_discards += skipped.get() - before;
                    requests.take();
                }
                assert!(
                    bounded_asked.starts_with(&asked),
                    "{case}: not a prefix of the bounded reference"
                );
                logs.push(asked.clone());
                if let Some(seed) = sweeps.table.seed(size).unwrap() {
                    assert_eq!(seed.size(), size, "{case}");
                    assert_eq!(asked.first(), Some(&seed), "{case}: seed first");
                    asked.remove(0);
                    counts.seeds += 1;
                }
                for d in &asked {
                    assert!(enumerated.contains(d), "{case}: {d} beyond the reference");
                }
                counts.enumerated += enumerated.len() as u64;
                counts.positions += through_stop(&enumerated, &bounded, thr_max).len() as u64;
                counts.evaluated += asked.len() as u64;
            }
        }
        (counts, logs)
    }

    /// The maximal throughput and every front throughput of `model`.
    fn ceilings<M: DataflowSemantics + Sync>(model: &M) -> Vec<Rational> {
        let r = explore_design_space(model, &ExploreOptions::default()).unwrap();
        let mut ceilings: Vec<Rational> = r.pareto.points().iter().map(|p| p.throughput).collect();
        ceilings.push(r.max_throughput);
        ceilings.dedup();
        ceilings
    }

    /// The differential of one model under 1 and 4 threads, with and
    /// without a quantum and with and without caps one step below the
    /// upper-bound distribution's.
    fn assert_sweeps_agree_everywhere<M: DataflowSemantics + Sync>(label: &str, model: &M) {
        let ceilings = ceilings(model);
        let thr_max = *ceilings.last().unwrap();
        let (ub, _) = crate::upper_bound_distribution(
            model,
            model.default_observed_actor(),
            ExplorationLimits::default(),
        )
        .unwrap();
        let space = DistributionSpace::for_model(model);
        let below_ub: StorageDistribution = (0..space.len())
            .map(|i| {
                let min = space.min_distribution().as_slice()[i];
                let cap = ub.as_slice()[i];
                cap.saturating_sub(space.step_of(i)).max(min)
            })
            .collect();
        let counter = Arc::new(buffy_telemetry::Counter::new());
        for caps in [None, Some(below_ub.clone())] {
            for quantum in [None, Some(thr_max / Rational::from(4u64))] {
                let logs: Vec<_> = [1, 4]
                    .into_iter()
                    .map(|threads| {
                        let case = format!("{label} ×{threads} caps {caps:?} quantum {quantum:?}");
                        let (_, logs) = assert_sweeps_agree(
                            &case,
                            model,
                            threads,
                            caps.clone(),
                            quantum,
                            &ceilings,
                            &counter,
                        );
                        logs
                    })
                    .collect();
                assert_eq!(
                    logs[0], logs[1],
                    "{label} caps {caps:?} quantum {quantum:?}: requests at 1 and 4 threads"
                );
            }
        }
    }

    #[test]
    fn bounded_sweeps_agree_with_the_reference_on_random_graphs() {
        use buffy_gen::RandomGraphConfig;
        for seed in 0..100 {
            let g = RandomGraphConfig::small(seed).generate();
            assert_sweeps_agree_everywhere(&format!("small {seed}"), &g);
        }
    }

    /// The `mixed_step(4, 5, seed)` graphs of seeds 1–40 whose grid up to
    /// the upper bound holds at most 3,000 distributions: few enough for
    /// the references to sweep every size. Chosen by grid size alone.
    fn small_mixed_step_graphs() -> Vec<SdfGraph> {
        (1..=40)
            .map(|seed| buffy_gen::RandomGraphConfig::mixed_step(4, 5, seed).generate())
            .filter(|g| {
                let space = DistributionSpace::for_model(g);
                let observed = g.default_observed_actor();
                crate::upper_bound_distribution(g, observed, ExplorationLimits::default())
                    .is_ok_and(|(ub, _)| {
                        space
                            .count_in_capped(space.min_size(), ub.size(), 3_000)
                            .is_some()
                    })
            })
            .collect()
    }

    #[test]
    fn bounded_sweeps_agree_with_the_reference_on_mixed_steps() {
        let graphs = small_mixed_step_graphs();
        assert!(graphs.len() >= 5, "only {} graphs", graphs.len());
        for g in &graphs {
            assert_sweeps_agree_everywhere(g.name(), g);
            let csdf = buffy_csdf::CsdfGraph::from_sdf(g);
            assert_sweeps_agree_everywhere(&format!("{} csdf", g.name()), &csdf);
        }
    }

    /// On cd2dat the bounded sweep skips most candidates, and the discard
    /// counter counts exactly the candidates it enumerated up to its stop
    /// and did not evaluate.
    #[test]
    fn the_discard_counter_counts_enumerated_minus_evaluated() {
        let g = buffy_gen::gallery::cd2dat();
        let ceilings = ceilings(&g);
        let counter = Arc::new(buffy_telemetry::Counter::new());
        let (counts, _) = assert_sweeps_agree("cd2dat", &g, 1, None, None, &ceilings, &counter);
        assert!(counts.evaluated * 2 < counts.enumerated, "{counts:?}");
        // The stop at the maximal throughput cuts chunks short.
        assert!(counts.positions < counts.enumerated, "{counts:?}");
        assert_eq!(
            counter.get() - counts.seeded_discards,
            counts.positions - counts.evaluated
        );
    }

    /// Two components tie no rates together: the model has no pair
    /// bounds, no seeds and no thresholds, and every sweep asks for
    /// exactly what the reference asks for.
    #[test]
    fn a_disconnected_model_sweeps_like_the_reference() {
        let mut b = SdfGraph::builder("two");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        let u = b.actor("u", 1);
        let v = b.actor("v", 3);
        b.channel("xy", x, 2, y, 3).unwrap();
        b.channel("uv", u, 1, v, 2).unwrap();
        let g = b.build().unwrap();
        let requests = Arc::new(Requests::default());
        let options = ExploreOptions {
            observer: Some(requests.clone()),
            ..ExploreOptions::default()
        };
        let eval = EvalPipeline::new(&g, y, &options);
        let space = DistributionSpace::for_model(&g);
        let (ub, thr_max) = eval.upper_bound().unwrap();
        let mut sweeps = Sweeps {
            eval: &eval,
            space: &space,
            table: eval.bound_table(&space, SearchPhase::FrontSearch),
            quantum: None,
            thr_max,
        };
        for size in space.sizes_in(space.min_size(), ub.size()) {
            assert_eq!(sweeps.table.seed(size).unwrap(), None);
            assert_eq!(sweeps.table.thresholds(thr_max, size).unwrap(), []);
            assert_eq!(sweeps.table.live_thresholds(size).unwrap(), []);
            requests.take();
            let reference =
                reference_max_throughput_for_size(&eval, &space, size, thr_max, None).unwrap();
            let enumerated = requests.take();
            let bounded = sweeps.max_throughput_for_size(size, thr_max, None).unwrap();
            assert_eq!(bounded, reference, "size {size}");
            assert_eq!(
                requests.take(),
                through_stop(&enumerated, &bounded, thr_max),
                "size {size}"
            );
        }
    }

    /// The distribution of every `Evaluated` event after the bounds
    /// phase, in order.
    #[derive(Default)]
    struct SearchEvaluations {
        searching: std::sync::atomic::AtomicBool,
        dists: Mutex<Vec<StorageDistribution>>,
    }

    impl ExploreObserver for SearchEvaluations {
        fn event(&self, event: &Event<'_>) {
            use std::sync::atomic::Ordering;
            match *event {
                Event::Phase(phase) => self
                    .searching
                    .store(phase != SearchPhase::Bounds, Ordering::Relaxed),
                Event::Evaluated { dist, .. } if self.searching.load(Ordering::Relaxed) => {
                    self.dists.lock().unwrap().push(dist.clone());
                }
                _ => {}
            }
        }
    }

    /// cd2dat's front reaches the maximal throughput 80/147 at size 38,
    /// below the upper bound of 40: the bounds phase answers size 40, and
    /// no search phase evaluates a distribution of that size.
    #[test]
    fn a_front_that_reaches_thr_max_below_ub_never_sweeps_the_ub_size() {
        let g = buffy_gen::gallery::cd2dat();
        for threads in [1, 4] {
            let seen = Arc::new(SearchEvaluations::default());
            let r = explore_design_space(
                &g,
                &ExploreOptions {
                    threads,
                    observer: Some(seen.clone()),
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.upper_bound_size, 40);
            let maximal = r.pareto.maximal().unwrap();
            assert_eq!((maximal.size, maximal.throughput), (38, r.max_throughput));
            let dists = seen.dists.lock().unwrap();
            assert!(!dists.is_empty());
            assert!(dists.iter().all(|d| d.size() < 40), "threads {threads}");
        }
    }

    /// On graphs whose fronts end at the upper-bound size, the deferred
    /// sweep of that size runs last and returns the witness the sweep at
    /// the right end returned before it was deferred.
    #[test]
    fn the_deferred_sweep_returns_the_right_end_witness() {
        fn check<M: DataflowSemantics + Sync>(model: &M, witness: &[u64]) {
            for threads in [1, 4] {
                for quantum in [None, Some(Rational::new(1, 1000))] {
                    let options = ExploreOptions {
                        threads,
                        quantum,
                        ..ExploreOptions::default()
                    };
                    let r = explore_design_space(model, &options).unwrap();
                    let maximal = r.pareto.maximal().unwrap();
                    let case = format!("{} ×{threads} {quantum:?}", model.name());
                    assert_eq!(maximal.size, r.upper_bound_size, "{case}");
                    assert_eq!(maximal.distribution.as_slice(), witness, "{case}");
                }
            }
        }
        check(&example(), &[7, 3]);
        check(&bipartite(), &[2, 2, 2, 2]);
        let mut modem = vec![1; 19];
        (modem[0], modem[17], modem[18]) = (16, 18, 2);
        check(&buffy_gen::gallery::modem(), &modem);
        check(&buffy_csdf::gallery::line_scaler(), &[6, 2]);
        check(&buffy_csdf::gallery::updown(), &[3]);
    }

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    /// The complete Pareto space of the paper's Fig. 5.
    #[test]
    fn example_full_front() {
        let g = example();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        let front: Vec<(u64, Rational)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        assert_eq!(
            front,
            vec![
                (6, Rational::new(1, 7)),
                (8, Rational::new(1, 6)),
                (9, Rational::new(1, 5)),
                (10, Rational::new(1, 4)),
            ]
        );
        assert_eq!(r.lower_bound_size, 6);
        assert!(r.upper_bound_size >= 10);
        assert_eq!(r.max_throughput, Rational::new(1, 4));
        assert!(r.stats.evaluations > 0);
        assert!(r.stats.max_states > 0);
        // The minimal positive-throughput point is the paper's ⟨4, 2⟩.
        assert_eq!(r.pareto.minimal().unwrap().distribution.as_slice(), &[4, 2]);
    }

    #[test]
    fn memoization_is_observable() {
        // The size-dimension binary search and the per-size sweeps revisit
        // distributions: the cache must absorb the repeats, so analyses run
        // (evaluations) stay strictly below total requests.
        let g = example();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert!(
            r.stats.cache_hits > 0,
            "exploration should revisit distributions"
        );
        assert!(r.stats.cache_hit_rate() > 0.0);
        assert!(r.stats.eval_nanos > 0);
    }

    /// A cyclic graph (repetition vector (3, 6, 2)): feedback structure
    /// beyond the pipeline example.
    fn ring() -> SdfGraph {
        let mut b = SdfGraph::builder("ring");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        let z = b.actor("z", 1);
        b.channel("c1", x, 2, y, 1).unwrap();
        b.channel("c2", y, 1, z, 3).unwrap();
        b.channel_with_tokens("c3", z, 3, x, 2, 6).unwrap();
        b.build().unwrap()
    }

    /// The paper's Fig. 6 bipartite graph: an a↔b cycle plus a pipeline
    /// tail. Its per-size sweeps span several evaluation chunks, so the
    /// ceiling is checked between chunks.
    fn bipartite() -> SdfGraph {
        let mut b = SdfGraph::builder("bipartite");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 1);
        let c = b.actor("c", 1);
        let d = b.actor("d", 1);
        b.channel_with_tokens("alpha", a, 1, bb, 1, 1).unwrap();
        b.channel_with_tokens("beta", bb, 1, a, 1, 1).unwrap();
        b.channel("gamma", bb, 1, c, 1).unwrap();
        b.channel("delta", c, 1, d, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        for (name, g) in [
            ("example", example()),
            ("ring", ring()),
            ("bipartite", bipartite()),
        ] {
            let seq = explore_design_space(&g, &ExploreOptions::default()).unwrap();
            let par = explore_design_space(
                &g,
                &ExploreOptions {
                    threads: 4,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(seq.pareto, par.pareto, "{name}");
            // The statistics are deterministic across thread counts: the
            // chunked evaluation requests exactly the same distributions.
            assert_eq!(seq.stats, par.stats, "{name}");
        }
    }

    #[test]
    fn zero_threads_auto_detects() {
        let g = example();
        let auto = explore_design_space(
            &g,
            &ExploreOptions {
                threads: 0,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let seq = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert_eq!(seq.pareto, auto.pareto);
        assert_eq!(seq.stats, auto.stats);
    }

    /// The event stream reproduces the statistics: under every driver, on
    /// SDF and on the same graph as single-phase CSDF, at one thread and
    /// at four, with one analysis failing, a counting observer's
    /// evaluations, cache hits and failures equal the reported
    /// [`ExplorationStats`] exactly.
    #[test]
    fn observer_sees_evaluations_and_pareto_points() {
        use crate::{explore_dependency_guided, min_storage_for_throughput};
        use buffy_csdf::CsdfGraph;
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Counting {
            phases: AtomicU64,
            evaluations: AtomicU64,
            cache_hits: AtomicU64,
            failures: AtomicU64,
            accepted: AtomicU64,
        }
        impl ExploreObserver for Counting {
            fn event(&self, event: &Event<'_>) {
                let counter = match event {
                    Event::Phase(_) => &self.phases,
                    Event::Evaluated { .. } => &self.evaluations,
                    Event::CacheHit(_) => &self.cache_hits,
                    Event::Failed { .. } => &self.failures,
                    Event::Accepted(_) => &self.accepted,
                    Event::End { .. } => panic!("drivers never end a run"),
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }

        fn check<M: DataflowSemantics + Sync>(model: &M) {
            // The guided search, which also answers the constraint query,
            // cannot lose its start distribution (the minimal one) and
            // still chart a front, so it fails its maximal front point
            // instead; the constraint asks for that point's throughput.
            let minimal = StorageDistribution::from_capacities(vec![4, 2]);
            let guided = explore_dependency_guided(model, &ExploreOptions::default()).unwrap();
            let maximal = guided.pareto.maximal().unwrap().clone();
            for driver in ["exhaustive", "guided", "constraint"] {
                for threads in [1, 4] {
                    let obs = Arc::new(Counting::default());
                    let fail = if driver == "exhaustive" {
                        &minimal
                    } else {
                        &maximal.distribution
                    };
                    let options = ExploreOptions {
                        threads,
                        fail_distribution: Some(fail.clone()),
                        observer: Some(obs.clone()),
                        ..ExploreOptions::default()
                    };
                    let (stats, points) = match driver {
                        "exhaustive" => {
                            let r = explore_design_space(model, &options).unwrap();
                            (r.stats, r.pareto.len() as u64)
                        }
                        "guided" => {
                            let r = explore_dependency_guided(model, &options).unwrap();
                            (r.stats, r.pareto.len() as u64)
                        }
                        _ => {
                            let r = min_storage_for_throughput(model, maximal.throughput, &options)
                                .unwrap();
                            (r.stats, 1)
                        }
                    };
                    let case = format!("{driver} at {threads} threads");
                    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
                    assert_eq!(stats.failures, 1, "{case}");
                    assert_eq!(count(&obs.evaluations), stats.evaluations, "{case}");
                    assert_eq!(count(&obs.cache_hits), stats.cache_hits, "{case}");
                    assert_eq!(count(&obs.failures), stats.failures, "{case}");
                    // Every reported point was announced (evicted points
                    // may add more), and the bounds phase plus at least
                    // one search phase were entered.
                    assert!(count(&obs.accepted) >= points, "{case}");
                    assert!(count(&obs.phases) >= 2, "{case}");
                }
            }
        }

        check(&example());
        check(&CsdfGraph::from_sdf(&example()));
    }

    #[test]
    fn eval_budget_truncates_to_a_sound_partial_front() {
        let g = example();
        let full = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert!(full.completeness.exact);
        assert!(full.skipped.is_empty());
        assert!(full.failures.is_empty());

        let mut saw_partial = false;
        for budget in 1..full.stats.evaluations {
            let opts = ExploreOptions {
                cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                ..ExploreOptions::default()
            };
            let r = match explore_design_space(&g, &opts) {
                // Tripped during the bounds phase: nothing to salvage.
                Err(ExploreError::Cancelled { reason }) => {
                    assert_eq!(reason, CancelReason::EvaluationBudget);
                    continue;
                }
                other => other.unwrap(),
            };
            saw_partial = true;
            assert!(!r.completeness.exact, "budget {budget}");
            assert_eq!(
                r.completeness.truncated_by,
                Some(CancelReason::EvaluationBudget)
            );
            // Soundness: every partial point is dominated by (or equal
            // to) a point of the unbudgeted front.
            for p in r.pareto.points() {
                assert!(
                    full.pareto
                        .points()
                        .iter()
                        .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                    "budget {budget}: stray point {p}"
                );
            }
            // Skipped sizes carry the sound bounds-phase ceiling.
            for s in &r.skipped {
                assert_eq!(s.throughput_bound, full.max_throughput);
                assert!(
                    s.distributions > 0,
                    "budget {budget}: empty size {}",
                    s.size
                );
            }
            assert_eq!(
                r.completeness.distributions_skipped,
                r.skipped.iter().map(|s| s.distributions).sum::<u64>()
            );
        }
        assert!(saw_partial, "no budget produced a salvageable partial run");

        // A budget matching the full run changes nothing.
        let opts = ExploreOptions {
            cancel: Some(Arc::new(
                CancelToken::new().with_eval_budget(full.stats.evaluations),
            )),
            ..ExploreOptions::default()
        };
        let r = explore_design_space(&g, &opts).unwrap();
        assert!(r.completeness.exact);
        assert_eq!(r.pareto, full.pareto);
        assert_eq!(r.stats, full.stats);
    }

    #[test]
    fn injected_worker_panic_degrades_one_evaluation() {
        let g = example();
        // Fail the paper's minimal distribution ⟨4, 2⟩ (the only size-6
        // grid point).
        let fail = StorageDistribution::from_capacities(vec![4, 2]);
        for threads in [1, 4] {
            let r = explore_design_space(
                &g,
                &ExploreOptions {
                    fail_distribution: Some(fail.clone()),
                    threads,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.stats.failures, 1, "threads {threads}");
            assert_eq!(r.failures.len(), 1);
            assert_eq!(r.failures[0].distribution, fail);
            assert!(r.failures[0].message.contains("injected"));
            // The run completed; the failed distribution reads as zero
            // throughput and drops off the front, the rest is intact.
            assert!(r.completeness.exact);
            assert!(r.pareto.points().iter().all(|p| p.distribution != fail));
            assert_eq!(
                r.pareto.maximal().unwrap().throughput,
                Rational::new(1, 4),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn warm_start_replays_as_recorded_evaluations() {
        struct Recorder {
            entries: Mutex<Vec<(StorageDistribution, Rational, u64)>>,
        }
        impl ExploreObserver for Recorder {
            fn event(&self, event: &Event<'_>) {
                if let Event::Evaluated {
                    dist,
                    throughput,
                    states,
                    ..
                } = *event
                {
                    self.entries
                        .lock()
                        .unwrap()
                        .push((dist.clone(), throughput, states));
                }
            }
        }

        let g = example();
        let rec = Arc::new(Recorder {
            entries: Mutex::new(Vec::new()),
        });
        let clean = explore_design_space(
            &g,
            &ExploreOptions {
                observer: Some(rec.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let warm: WarmStart = std::mem::take(&mut *rec.entries.lock().unwrap())
            .into_iter()
            .map(|(d, t, s)| (d, (t, s)))
            .collect();

        let resumed = explore_design_space(
            &g,
            &ExploreOptions {
                warm_start: Some(Arc::new(warm)),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        // Byte-identical front and statistics: replayed entries count as
        // evaluations, only the wall time betrays that nothing ran.
        assert_eq!(resumed.pareto, clean.pareto);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.stats.eval_nanos, 0);
        assert!(resumed.completeness.exact);
    }

    #[test]
    fn size_cap_truncates_front() {
        let g = example();
        let r = explore_design_space(
            &g,
            &ExploreOptions {
                max_size: Some(8),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let sizes: Vec<u64> = r.pareto.points().iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![6, 8]);
        assert_eq!(r.pareto.maximal().unwrap().throughput, Rational::new(1, 6));
    }

    /// A size cap below the lower bound leaves only distributions with a
    /// channel below its minimal capacity, and they all deadlock: both
    /// drivers report that no distribution yields a positive throughput,
    /// on SDF and on CSDF. A cap at the lower bound still charts the
    /// lower-bound point.
    #[test]
    fn size_cap_below_the_lower_bound_has_no_positive_throughput() {
        use crate::explore_dependency_guided;

        fn check<M: DataflowSemantics + Sync>(model: &M, at_lb: Rational) {
            let lb = DistributionSpace::for_model(model).min_size();
            let capped = |max_size| ExploreOptions {
                max_size: Some(max_size),
                ..ExploreOptions::default()
            };
            for (name, driver) in [
                (
                    "exhaustive",
                    explore_design_space::<M> as fn(&M, &ExploreOptions) -> _,
                ),
                ("guided", explore_dependency_guided::<M>),
            ] {
                for cap in [0, lb - 1] {
                    assert_eq!(
                        driver(model, &capped(cap)).unwrap_err(),
                        ExploreError::NoPositiveThroughput,
                        "{} {name} --max-size {cap}",
                        model.name()
                    );
                }
                let r = driver(model, &capped(lb)).unwrap();
                let front: Vec<(u64, Rational)> = r
                    .pareto
                    .points()
                    .iter()
                    .map(|p| (p.size, p.throughput))
                    .collect();
                assert_eq!(front, vec![(lb, at_lb)], "{} {name}", model.name());
                assert_eq!(r.upper_bound_size, lb, "{} {name}", model.name());
            }
        }
        check(&example(), Rational::new(1, 7));
        check(&buffy_csdf::gallery::line_scaler(), Rational::new(1, 2));
    }

    /// The paper's example with every rate doubled: channel steps become
    /// gcd(4,6) = gcd(2,4) = 2, so odd distribution sizes are holes in the
    /// capacity grid. Doubling all rates doubles every capacity bound
    /// while leaving firing counts and timing untouched, so the front is
    /// Fig. 5 with all sizes doubled.
    fn scaled_example() -> SdfGraph {
        let mut b = SdfGraph::builder("example2x");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 4, bb, 6).unwrap();
        b.channel("beta", bb, 2, c, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn step_grid_front_matches_the_scaled_example() {
        let g = scaled_example();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        let front: Vec<(u64, Rational)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        assert_eq!(
            front,
            vec![
                (12, Rational::new(1, 7)),
                (16, Rational::new(1, 6)),
                (18, Rational::new(1, 5)),
                (20, Rational::new(1, 4)),
            ]
        );
    }

    #[test]
    fn size_cap_in_a_grid_hole_is_clamped_to_the_grid() {
        // max_size 15 is a hole: no distribution of the scaled example has
        // that size. The search must fall back to the largest realizable
        // size below it (14, throughput 1/7) instead of concluding that no
        // distribution has positive throughput.
        let g = scaled_example();
        let r = explore_design_space(
            &g,
            &ExploreOptions {
                max_size: Some(15),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let front: Vec<(u64, Rational)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        assert_eq!(front, vec![(12, Rational::new(1, 7))]);
        assert_eq!(r.upper_bound_size, 15);
    }

    #[test]
    fn quantization_coarsens_front() {
        let g = example();
        // Quantum 1/10: levels 1/7→0.1, 1/6→0.1, 1/5→0.2, 1/4→0.2 —
        // at most 2 points survive.
        let r = explore_design_space(
            &g,
            &ExploreOptions {
                quantum: Some(Rational::new(1, 10)),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(r.pareto.len() <= 2, "front: {:?}", r.pareto.points());
        assert!(!r.pareto.is_empty());
    }

    #[test]
    fn deadlocking_graph_reports_no_positive_throughput() {
        // A token-free two-cycle cannot execute for any capacity; the
        // max-throughput analysis already refuses it.
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel("r", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let err = explore_design_space(&g, &ExploreOptions::default()).unwrap_err();
        assert!(matches!(err, ExploreError::Analysis(_)));
    }

    #[test]
    fn two_actor_pipeline_front() {
        // x --2:1--> y, exec (1, 1): BMLB = 2; capacity 2 gives thr(y)
        // 2 per 2 steps = 1; larger capacities can reach 2 (y fires twice
        // per step? no — y's own execution time bounds it at 1).
        let mut b = SdfGraph::builder("p");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 2, y, 1).unwrap();
        let g = b.build().unwrap();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert_eq!(r.max_throughput, Rational::ONE);
        let front: Vec<(u64, Rational)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        // Size 2: x fires, y drains two tokens in 2 steps while x waits →
        // still 1 firing of y per step on average? Verify via the result
        // being a consistent monotone front ending at 1.
        assert!(front.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert_eq!(front.last().unwrap().1, Rational::ONE);
    }
}
