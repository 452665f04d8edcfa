//! The incremental evaluation pipeline shared by every exploration
//! driver.
//!
//! Each candidate storage distribution flows through the same two
//! stages, in order:
//!
//! 1. **Memo lookup** — the sharded cache ([`ShardedCache`]) answers
//!    repeats without re-analysis;
//! 2. **Engine run** — the reduced-state-space analysis proper, in a
//!    pooled [`AnalysisWorkspace`], panic-contained and
//!    cancellation-aware. In the dependency-guided search's pipeline the
//!    same run also collects the storage-dependent channels, and a bound
//!    probe's run records the channels' peak occupancies; the memo entry
//!    keeps both.
//!
//! Both stages form the request's *answer*, which changes nothing a run
//! reports. Its *commit* stores the memo entry, emits the event and
//! charges the evaluation and its states to the cancel token's budgets.
//! A sequential request commits right after its answer. A parallel chunk
//! ([`EvalPipeline::eval_batch_until`]) answers its candidates
//! speculatively on several workers, then commits them in enumeration
//! order up to the sweep's stop, so every thread count reports the same
//! requests in the same order.
//!
//! A flag-free pipeline (the exhaustive sweep and its bound probes) asks
//! every analysis for its *capacity box*
//! `[peak, refused)` (see `buffy_analysis::throughput`): capacities
//! inside it make every start decision of the analysed run, so they give
//! the same report and peaks. On a memo miss, after the failure hooks and
//! a cancellation check, a candidate inside a stored box takes that box's
//! memo entry and state count without a simulation. The answer is still
//! an evaluation, accounted exactly like the analysis it replaces: which
//! candidates a box answers depends on worker timing (an uncommitted
//! speculative analysis stores its box too), and nothing that timing
//! decides may reach the statistics. The guided pipeline keeps no
//! boxes: its memo entries carry flags, which a tighter cap inside a box
//! can change.
//!
//! The exhaustive sweep skips candidates before they reach the
//! pipeline: [`EvalPipeline::bound_table`] gives it the run's table of
//! two-actor pair bounds, whose analyses share the pipeline's limits and
//! cancel token but are not evaluations: no event, no states charged, no
//! memo entry. A skipped candidate never enters the pipeline at all.
//!
//! Every fact the pipeline and its drivers observe — a phase change, a
//! cache hit, a replayed or genuine evaluation, a failure, an accepted
//! point — goes through [`EvalPipeline::emit`] exactly once.
//! The emit folds it into the run's statistics, records it with the
//! telemetry recorder when one is installed, and forwards it to the run's
//! [`ExploreObserver`]. Checkpoint replay and failure containment also
//! live here: a replayed checkpoint entry is an evaluation like any
//! other, committed only while the cancel token holds. The pipeline
//! answers throughputs only; the drivers (`explore`, `dependency`) are
//! thin consumers that turn them into storage/throughput
//! [`ParetoPoint`](crate::ParetoPoint)s, and report annotations such as
//! energy are left to the caller's final front.

use crate::bound_table::BoundTable;
use crate::bounds::upper_bound_distribution_with;
use crate::enumerate::DistributionSpace;
use crate::error::ExploreError;
use crate::explore::{ExploreOptions, WarmStart};
use crate::fault::{FaultPlan, FaultSite};
use crate::pareto::ParetoSet;
use crate::runtime::{
    resolve_threads, AtomicStats, CachedEval, EvaluationFailure, Event, ExplorationStats,
    ExploreObserver, SearchPhase, ShardedCache,
};
use buffy_analysis::{
    throughput_analysis, AnalysisError, AnalysisRequest, AnalysisWorkspace, CancelReason,
    CancelToken, Capacities, DataflowSemantics, ExplorationLimits, ThroughputAnalysis,
};
use buffy_graph::{ActorId, Rational, StorageDistribution};
use buffy_telemetry::{labeled, names, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// The shared evaluation pipeline: memoization, capacity boxes,
/// checkpoint replay and the event stream behind one interface, generic
/// over the model class.
///
/// The memo cache is sharded ([`ShardedCache`]) and all counters are
/// atomics ([`AtomicStats`]): concurrent workers never serialize on a
/// whole-cache lock, and the only mutex footprint on the hot path is the
/// per-shard lock guarding an individual `HashMap` plus one pop/push on
/// the workspace pool.
pub(crate) struct EvalPipeline<'a, M: DataflowSemantics + Sync> {
    model: &'a M,
    observed: ActorId,
    limits: ExplorationLimits,
    cache: ShardedCache<StorageDistribution, CachedEval>,
    stats: AtomicStats,
    threads: usize,
    observer: &'a dyn ExploreObserver,
    cancel: Arc<CancelToken>,
    warm_start: Option<Arc<WarmStart>>,
    fail_distribution: Option<StorageDistribution>,
    /// Deterministic fault schedule ([`crate::fault`]); `None` in
    /// production, where every hook is a single untaken branch.
    faults: Option<Arc<FaultPlan>>,
    failures: Mutex<Vec<EvaluationFailure>>,
    telemetry: Option<EvalTelemetry>,
    shard_stats_published: AtomicBool,
    /// Whether analyses collect the storage-dependent channels (set by
    /// [`Self::collecting_dependencies`]).
    dependencies: bool,
    /// The capacity boxes of this run's analyses, oldest first; kept only
    /// when the analyses collect no flags.
    boxes: RwLock<Vec<CapacityBox>>,
    /// Pool of reusable analysis arenas, one in flight per worker. A
    /// workspace that survives an analysis returns to the pool; one
    /// caught in a panic is dropped (a fresh one is created on demand).
    workspaces: Mutex<Vec<AnalysisWorkspace>>,
}

/// Telemetry handles of one pipeline run, fetched once at construction:
/// when no recorder is installed the pipeline pays a single branch, and
/// when one is, the hot path records through these `Arc`s without any
/// registry lookup or lock.
pub(crate) struct EvalTelemetry {
    recorder: Arc<buffy_telemetry::Recorder>,
    latency: Arc<buffy_telemetry::Histogram>,
    short_circuits: Arc<buffy_telemetry::Counter>,
    /// The span of the current search phase: closed by the next
    /// [`Event::Phase`], or when the pipeline drops.
    phase: Mutex<Option<Span>>,
}

impl EvalTelemetry {
    pub(crate) fn fetch() -> Option<EvalTelemetry> {
        buffy_telemetry::active().map(|recorder| EvalTelemetry {
            latency: recorder.histogram(
                names::EVAL_LATENCY_NS,
                "Evaluation wall latency per memoised throughput analysis, in nanoseconds.",
            ),
            short_circuits: recorder.counter(
                names::EVALS_SHORT_CIRCUITED,
                "Per-size sweeps cut short because the monotonicity ceiling was reached.",
            ),
            phase: Mutex::new(None),
            recorder,
        })
    }

    /// Records one event: evaluation latency and its `eval` span (genuine
    /// analyses only — a replayed checkpoint entry ran nothing), the
    /// `pareto` instant of an accepted point, and the span of each search
    /// phase.
    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::Evaluated { nanos, .. } if nanos > 0 => {
                self.latency.record(nanos);
                let micros = nanos / 1_000;
                let start = self.recorder.elapsed_us().saturating_sub(micros);
                self.recorder.trace_complete_at("eval", start, micros);
            }
            Event::Accepted(_) => self.recorder.trace_instant("pareto"),
            Event::Phase(phase) => {
                let mut current = self.phase.lock().unwrap_or_else(|e| e.into_inner());
                // The previous phase's span closes before the next opens.
                drop(current.take());
                *current = Some(self.recorder.phase_span(phase.name()));
            }
            _ => {}
        }
    }
}

/// One analysis's capacity box with the memo entry and state count it
/// decides: every distribution `d` with `peak ≤ d < refused` on each
/// channel runs exactly as the analysed one.
struct CapacityBox {
    /// Per channel, `(peak, refused)`.
    faces: Box<[(u64, u64)]>,
    entry: CachedEval,
    states: u64,
}

impl CapacityBox {
    fn contains(&self, dist: &StorageDistribution) -> bool {
        dist.as_slice()
            .iter()
            .zip(self.faces.iter())
            .all(|(&cap, &(peak, refused))| peak <= cap && cap < refused)
    }
}

/// What the answer step found for one request, before it is committed
/// (see [`EvalPipeline::eval_batch_until`]).
enum Answer {
    /// The memo held the entry.
    Hit(CachedEval),
    /// A checkpointed evaluation, replayed with its recorded state count.
    Replayed(CachedEval, u64),
    /// An analysis, or the stored box containing the candidate: the entry,
    /// its state count and the wall time in nanoseconds.
    Fresh(CachedEval, u64, u64),
    /// The evaluation panicked, with this message.
    Failed(String),
}

impl Answer {
    /// The throughput the request commits to.
    fn throughput(&self) -> Rational {
        match self {
            Answer::Hit(entry) | Answer::Replayed(entry, _) | Answer::Fresh(entry, ..) => {
                entry.throughput
            }
            Answer::Failed(_) => Rational::ZERO,
        }
    }
}

/// States charged to the memory watchdog by one injected arena-pressure
/// spike ([`FaultSite::ArenaPressure`]): large enough that a handful of
/// spikes exhaust a chaos run's state budget, the way a pathological
/// distribution's state space would.
const ARENA_SPIKE_STATES: u64 = 1 << 20;

/// Renders a panic payload for failure reporting.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'a, M: DataflowSemantics + Sync> EvalPipeline<'a, M> {
    pub(crate) fn new(
        model: &'a M,
        observed: ActorId,
        options: &'a ExploreOptions,
    ) -> EvalPipeline<'a, M> {
        EvalPipeline {
            model,
            observed,
            limits: options.limits,
            cache: ShardedCache::new(),
            stats: AtomicStats::new(),
            threads: resolve_threads(options.threads),
            observer: options.event_sink(),
            cancel: options.cancel.clone().unwrap_or_default(),
            warm_start: options.warm_start.clone(),
            fail_distribution: options.fail_distribution.clone(),
            faults: options.fault_plan.clone(),
            failures: Mutex::new(Vec::new()),
            telemetry: EvalTelemetry::fetch(),
            shard_stats_published: AtomicBool::new(false),
            dependencies: false,
            boxes: RwLock::new(Vec::new()),
            workspaces: Mutex::new(Vec::new()),
        }
    }

    /// Makes every analysis of this pipeline also collect the
    /// storage-dependent channels, which the memo entries then carry
    /// ([`CachedEval::dependent`]), and keeps no capacity boxes. The
    /// fronts, the reports and the statistics do not change.
    pub(crate) fn collecting_dependencies(mut self) -> Self {
        self.dependencies = true;
        self
    }

    /// Memoized throughput of one distribution.
    ///
    /// Warm-start entries are replayed on first request as recorded
    /// evaluations (checkpointed state count, zero wall time): a resumed
    /// run reproduces both the front and the statistics of an
    /// uninterrupted one. A panicking analysis is contained here: it is
    /// recorded as an [`EvaluationFailure`], cached as zero throughput
    /// (deterministic on re-request), and the search continues.
    pub(crate) fn eval(&self, dist: &StorageDistribution) -> Result<Rational, ExploreError> {
        Ok(self.eval_full(dist)?.throughput)
    }

    /// Reports one observed fact: folds it into the run's statistics,
    /// records it with the telemetry recorder when one is installed, then
    /// forwards it to the run's observer. Every cache hit, evaluation
    /// (replayed or genuine), failure, accepted point and phase change of
    /// a run passes through here exactly once.
    pub(crate) fn emit(&self, event: Event<'_>) {
        self.stats.fold(&event);
        if let Some(t) = &self.telemetry {
            t.record(&event);
        }
        self.observer.event(&event);
    }

    fn pop_workspace(&self) -> AnalysisWorkspace {
        self.workspaces.lock().unwrap().pop().unwrap_or_default()
    }

    fn push_workspace(&self, ws: AnalysisWorkspace) {
        self.workspaces.lock().unwrap().push(ws);
    }

    /// One analysis of `dist` in a pooled workspace, under the run's
    /// limits and cancel token; the flags are collected when
    /// `dependencies` is set, the peak occupancies when `peaks` is.
    fn analyse(
        &self,
        dist: &StorageDistribution,
        dependencies: bool,
        peaks: bool,
        ws: &mut AnalysisWorkspace,
    ) -> Result<ThroughputAnalysis, buffy_analysis::AnalysisError> {
        let request = AnalysisRequest {
            limits: self.limits,
            cancel: &self.cancel,
            dependencies,
            peaks,
        };
        throughput_analysis(
            self.model,
            Capacities::from_distribution(dist),
            self.observed,
            &request,
            ws,
        )
    }

    /// One analysis of `dist` that is not counted as an evaluation,
    /// observed or cached, for what a memo entry lacks. The run's cancel
    /// token and limits apply. `Ok(None)` when it panicked.
    ///
    /// # Errors
    ///
    /// The analysis's errors, [`ExploreError::Cancelled`] among them.
    fn uncounted(
        &self,
        dist: &StorageDistribution,
        dependencies: bool,
        peaks: bool,
    ) -> Result<Option<ThroughputAnalysis>, ExploreError> {
        let mut ws = self.pop_workspace();
        match catch_unwind(AssertUnwindSafe(|| {
            self.analyse(dist, dependencies, peaks, &mut ws)
        })) {
            Ok(analysis) => {
                self.push_workspace(ws);
                Ok(Some(analysis?))
            }
            Err(_) => Ok(None),
        }
    }

    /// The storage-dependent channels of `dist` from one uncounted
    /// analysis with the flags on, for memo entries that carry none
    /// (checkpoint-replayed evaluations). `Ok(None)` when it panicked (the
    /// candidate then expands nothing).
    ///
    /// # Errors
    ///
    /// The analysis's errors, [`ExploreError::Cancelled`] among them.
    pub(crate) fn dependencies(
        &self,
        dist: &StorageDistribution,
    ) -> Result<Option<Arc<[bool]>>, ExploreError> {
        Ok(self
            .uncounted(dist, true, false)?
            .and_then(|a| a.dependent.map(Arc::from)))
    }

    /// The upper-bound distribution and the maximal throughput (paper §8,
    /// Fig. 7), with every bound probe run through this pipeline: cached
    /// with its peak occupancies, counted and observed. The peaks of a
    /// checkpoint-replayed probe come from one uncounted analysis with the
    /// peaks on, `None` when it panicked (the search then starts from the
    /// grown capacity).
    ///
    /// # Errors
    ///
    /// The bound search's errors, [`ExploreError::Cancelled`] among them.
    pub(crate) fn upper_bound(&self) -> Result<(StorageDistribution, Rational), ExploreError> {
        upper_bound_distribution_with(
            self.model,
            self.observed,
            &|dist| {
                let entry = self.evaluate(dist, true)?;
                Ok((entry.throughput, entry.peaks))
            },
            &|dist| {
                Ok(self
                    .uncounted(dist, false, true)?
                    .and_then(|a| a.peaks.map(Arc::from)))
            },
        )
    }

    /// [`EvalPipeline::eval`] plus the whole memo entry — with the
    /// storage-dependent channels when this pipeline collects them.
    pub(crate) fn eval_full(&self, dist: &StorageDistribution) -> Result<CachedEval, ExploreError> {
        self.evaluate(dist, false)
    }

    /// The memo entry and state count of the newest stored capacity box
    /// that contains `dist`, if any.
    fn box_answer(&self, dist: &StorageDistribution) -> Option<(CachedEval, u64)> {
        let boxes = self.boxes.read().unwrap_or_else(|e| e.into_inner());
        boxes
            .iter()
            .rev()
            .find(|b| b.contains(dist))
            .map(|b| (b.entry.clone(), b.states))
    }

    /// [`EvalPipeline::eval_full`], recording the peak occupancies when
    /// `peaks` is set: the answer step, then its commit.
    fn evaluate(
        &self,
        dist: &StorageDistribution,
        peaks: bool,
    ) -> Result<CachedEval, ExploreError> {
        let answer = self.answer(dist, peaks)?;
        self.commit(dist, answer)
    }

    /// The answer step of one request: the memo, a checkpointed
    /// evaluation, a stored capacity box or an analysis, in that order. It
    /// stores boxes but reports nothing, charges nothing and leaves the
    /// memo as it was, so a speculative answer that is never committed
    /// leaves no trace but its box, which answers any later candidate
    /// exactly like an analysis. A flag-free pipeline records the peak
    /// occupancies (with the rest of the capacity box) on every analysis;
    /// a flag-collecting one only when `peaks` is set.
    fn answer(&self, dist: &StorageDistribution, peaks: bool) -> Result<Answer, ExploreError> {
        if let Some(entry) = self.cache.get(dist) {
            return Ok(Answer::Hit(entry));
        }
        if let Some(&(t, states)) = self.warm_start.as_ref().and_then(|w| w.get(dist)) {
            let entry = CachedEval {
                throughput: t,
                failed: false,
                dependent: None,
                peaks: None,
            };
            return Ok(Answer::Replayed(entry, states));
        }
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultSite::SpuriousCancel) {
                self.cancel.cancel(CancelReason::Interrupt);
            }
        }
        let boxed = !self.dependencies;
        let start = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if self.fail_distribution.as_ref() == Some(dist) {
                panic!("injected evaluation failure (fail_distribution test hook)");
            }
            if let Some(plan) = &self.faults {
                if plan.should_inject(FaultSite::EvalPanic) {
                    panic!(
                        "injected evaluation failure (fault plan, seed {})",
                        plan.seed()
                    );
                }
            }
            if boxed {
                // The analysis would stop at its first poll.
                if let Some(reason) = self.cancel.check() {
                    return Err(AnalysisError::Cancelled { reason });
                }
                if let Some(answer) = self.box_answer(dist) {
                    return Ok(answer);
                }
            }
            // A panic drops the workspace mid-analysis rather than pooling
            // a possibly inconsistent arena.
            let mut ws = self.pop_workspace();
            let analysis = self.analyse(dist, self.dependencies, peaks || boxed, &mut ws);
            self.push_workspace(ws);
            Ok(self.record(analysis?, boxed))
        }));
        match attempt {
            Ok(answered) => {
                let (entry, states) = answered?;
                // At least 1 ns: zero wall time marks a replayed entry.
                let nanos = (start.elapsed().as_nanos() as u64).max(1);
                Ok(Answer::Fresh(entry, states, nanos))
            }
            Err(payload) => Ok(Answer::Failed(panic_message(payload.as_ref()))),
        }
    }

    /// Commits one answer: the memo entry, the event, the states and the
    /// evaluation charged to the cancel token, and the failure record. A
    /// fresh answer meets a cancellation that tripped after it was
    /// computed exactly as its analysis would have met it at its first
    /// poll, so speculative answers commit like sequential ones; a
    /// replayed answer meets it the same way, so a resumed run obeys its
    /// budgets like a fresh one.
    fn commit(
        &self,
        dist: &StorageDistribution,
        answer: Answer,
    ) -> Result<CachedEval, ExploreError> {
        match answer {
            Answer::Hit(entry) => {
                self.cache.note_hit(dist);
                self.emit(Event::CacheHit(dist));
                Ok(entry)
            }
            Answer::Replayed(entry, states) => {
                if let Some(reason) = self.cancel.check() {
                    return Err(ExploreError::Cancelled { reason });
                }
                self.cache.insert(dist.clone(), entry.clone());
                self.emit(Event::Evaluated {
                    dist,
                    throughput: entry.throughput,
                    states,
                    nanos: 0,
                });
                self.cancel.note_states(states);
                self.cancel.note_evaluation();
                Ok(entry)
            }
            Answer::Fresh(entry, states, nanos) => {
                if let Some(reason) = self.cancel.check() {
                    return Err(ExploreError::Cancelled { reason });
                }
                self.cache.insert(dist.clone(), entry.clone());
                self.emit(Event::Evaluated {
                    dist,
                    throughput: entry.throughput,
                    states,
                    nanos,
                });
                // An injected arena-pressure spike rides on the genuine
                // count: it models this evaluation's arena ballooning, so
                // it lands exactly where real states are accounted and the
                // watchdog degrades the run between candidates.
                let spike = match &self.faults {
                    Some(plan) if plan.should_inject(FaultSite::ArenaPressure) => {
                        ARENA_SPIKE_STATES
                    }
                    _ => 0,
                };
                self.cancel.note_states(states + spike);
                self.cancel.note_evaluation();
                Ok(entry)
            }
            Answer::Failed(message) => {
                let entry = CachedEval {
                    throughput: Rational::ZERO,
                    failed: true,
                    dependent: None,
                    peaks: None,
                };
                // Degraded zero-throughput is cached, so a re-request
                // answers the same way.
                self.cache.insert(dist.clone(), entry.clone());
                self.emit(Event::Failed {
                    dist,
                    message: &message,
                });
                self.failures.lock().unwrap().push(EvaluationFailure {
                    distribution: dist.clone(),
                    message,
                });
                self.cancel.note_evaluation();
                Ok(entry)
            }
        }
    }

    /// The memo entry and state count of one analysis; its capacity box
    /// is stored beside them when `boxed`.
    fn record(&self, analysis: ThroughputAnalysis, boxed: bool) -> (CachedEval, u64) {
        let ThroughputAnalysis {
            report,
            dependent,
            peaks,
            refused,
        } = analysis;
        let states = report.states_stored as u64;
        let entry = CachedEval {
            throughput: report.throughput,
            failed: false,
            dependent: dependent.map(Arc::from),
            peaks: peaks.map(Arc::from),
        };
        if let (true, Some(peaks), Some(refused)) = (boxed, &entry.peaks, refused) {
            let faces = peaks.iter().copied().zip(refused).collect();
            self.boxes
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .push(CapacityBox {
                    faces,
                    entry: entry.clone(),
                    states,
                });
        }
        (entry, states)
    }

    /// Evaluates `batch` in order up to and including the first
    /// distribution whose throughput meets `stop`, and returns the
    /// throughputs of that prefix; the rest of the batch is not evaluated.
    ///
    /// With several threads, workers take the answer step
    /// ([`Self::answer`]) of every candidate through an atomic index,
    /// speculatively and in any order, skipping the candidates after a
    /// known stop; then the answers are committed in batch order up to the
    /// stop. Only commits touch the memo, the events, the statistics and
    /// the cancel token's budgets, so every thread count commits the same
    /// requests in the same order, with the same results, as the
    /// sequential loop. Batches hold distinct distributions (they come
    /// from one enumeration pass), so no answer depends on another
    /// answer of its batch.
    pub(crate) fn eval_batch_until(
        &self,
        batch: &[StorageDistribution],
        stop: &(dyn Fn(Rational) -> bool + Sync),
    ) -> Result<Vec<Rational>, ExploreError> {
        let mut committed = Vec::with_capacity(batch.len());
        if self.threads <= 1 || batch.len() <= 1 {
            for dist in batch {
                let t = self.eval(dist)?;
                committed.push(t);
                if stop(t) {
                    break;
                }
            }
            return Ok(committed);
        }
        let answers: Vec<OnceLock<Result<Answer, ExploreError>>> =
            batch.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let first_stop = AtomicUsize::new(usize::MAX);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(batch.len()) {
                scope.spawn(|| loop {
                    // Indices are handed out in order, so every index up
                    // to a stop has been taken before the stop is known.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() || i > first_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let answer = self.answer(&batch[i], false);
                    if matches!(&answer, Ok(a) if stop(a.throughput())) {
                        first_stop.fetch_min(i, Ordering::Relaxed);
                    }
                    let _ = answers[i].set(answer);
                });
            }
        });
        for (dist, slot) in batch.iter().zip(answers) {
            let answer = slot.into_inner().expect("answered up to the first stop")?;
            let t = self.commit(dist, answer)?.throughput;
            committed.push(t);
            if stop(t) {
                break;
            }
        }
        Ok(committed)
    }

    /// The run's table of pair bounds over `space`, whose analyses share
    /// this pipeline's limits and cancel token but nothing else: they are
    /// uncounted, unobserved and kept out of the memo. `phase` labels its
    /// discard counter.
    pub(crate) fn bound_table(
        &self,
        space: &DistributionSpace,
        phase: SearchPhase,
    ) -> BoundTable<'a, M> {
        BoundTable::new(
            self.model,
            self.observed,
            space,
            self.limits,
            Arc::clone(&self.cancel),
            phase,
        )
    }

    /// Records one per-size sweep cut short by the monotonicity ceiling.
    pub(crate) fn note_short_circuit(&self) {
        if let Some(t) = &self.telemetry {
            t.short_circuits.inc();
        }
    }

    /// Snapshot of the run's statistics. Also publishes the memo cache's
    /// per-shard hit/miss/occupancy tallies to the recorder — drivers call
    /// this exactly once per exit path, and a guard keeps the counters
    /// single-shot even if that ever changes.
    pub(crate) fn stats(&self) -> ExplorationStats {
        if let Some(t) = &self.telemetry {
            if !self.shard_stats_published.swap(true, Ordering::Relaxed) {
                for (i, s) in self.cache.shard_stats().iter().enumerate() {
                    t.recorder
                        .counter(
                            &labeled(names::SHARD_HITS, "shard", i),
                            "Memo-cache hits per shard.",
                        )
                        .add(s.hits);
                    t.recorder
                        .counter(
                            &labeled(names::SHARD_MISSES, "shard", i),
                            "Memo-cache misses per shard.",
                        )
                        .add(s.misses);
                    t.recorder
                        .gauge(
                            &labeled(names::SHARD_ENTRIES, "shard", i),
                            "Memo-cache entries per shard at the end of the run.",
                        )
                        .set(s.entries);
                }
            }
        }
        self.stats.snapshot()
    }

    /// Drains the recorded evaluation failures, sorted by distribution so
    /// the report is deterministic across thread counts.
    pub(crate) fn take_failures(&self) -> Vec<EvaluationFailure> {
        let mut v = std::mem::take(&mut *self.failures.lock().unwrap());
        v.sort_by(|a, b| a.distribution.as_slice().cmp(b.distribution.as_slice()));
        v
    }
}

/// Thins a front to one point per quantization level (smallest size
/// wins) — the shared options-semantics tail of every driver. Returns the
/// input unchanged without a quantum.
pub(crate) fn thin_front(pareto: ParetoSet, quantum: Option<Rational>) -> ParetoSet {
    let Some(quantum) = quantum else {
        return pareto;
    };
    let mut thinned = ParetoSet::new();
    let mut last_level: Option<Rational> = None;
    for p in pareto {
        let level = p.throughput.quantize_down(quantum);
        if last_level != Some(level) {
            last_level = Some(level);
            thinned.insert(p);
        }
    }
    thinned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_design_space;
    use buffy_gen::gallery;
    use buffy_graph::SdfGraph;

    /// Records the distributions of a run's `Evaluated` events, in order.
    #[derive(Default)]
    struct Evaluations(Mutex<Vec<(StorageDistribution, Rational, u64)>>);

    impl ExploreObserver for Evaluations {
        fn event(&self, event: &Event<'_>) {
            if let Event::Evaluated {
                dist,
                throughput,
                states,
                ..
            } = *event
            {
                self.0
                    .lock()
                    .unwrap()
                    .push((dist.clone(), throughput, states));
            }
        }
    }

    /// Replays the evaluations of `g`'s single-threaded exhaustive run, in
    /// order, through a fresh flag-free pipeline. Each analysis stores
    /// one box, so the evaluations beyond the stored boxes were answered
    /// by a box. Returns (evaluations, box answers).
    fn box_answers(g: &SdfGraph) -> (usize, usize) {
        let recorded = Arc::new(Evaluations::default());
        let options = ExploreOptions {
            observer: Some(recorded.clone()),
            ..ExploreOptions::default()
        };
        explore_design_space(g, &options).unwrap();
        let evaluations = recorded.0.lock().unwrap().clone();
        let replayed = Arc::new(Evaluations::default());
        let options = ExploreOptions {
            observer: Some(replayed.clone()),
            ..ExploreOptions::default()
        };
        let eval = EvalPipeline::new(g, g.default_observed_actor(), &options);
        for (dist, ..) in &evaluations {
            eval.eval(dist).unwrap();
        }
        // A box answer reports the throughput and states of its run.
        assert_eq!(*replayed.0.lock().unwrap(), evaluations, "{}", g.name());
        let analyses = eval.boxes.read().unwrap().len();
        (evaluations.len(), evaluations.len() - analyses)
    }

    #[test]
    fn boxes_answer_exhaustive_candidates() {
        // Each stored box decides a whole range of capacities: some of
        // cd2dat's candidates fall inside an earlier one. The pair bounds
        // skip most of the rest before they reach the pipeline, and the
        // sweeps stop at the maximal throughput, which leaves modem only a
        // few.
        assert_eq!(box_answers(&gallery::cd2dat()), (53, 8));
        assert_eq!(box_answers(&gallery::modem()), (21, 2));
    }

    #[test]
    fn guided_pipelines_keep_no_boxes() {
        let g = gallery::modem();
        let options = ExploreOptions::default();
        let eval =
            EvalPipeline::new(&g, g.default_observed_actor(), &options).collecting_dependencies();
        eval.upper_bound().unwrap();
        assert!(eval.stats().evaluations > 0);
        assert!(eval.boxes.read().unwrap().is_empty());
    }
}
