//! The incremental evaluation pipeline shared by every exploration
//! driver.
//!
//! Each candidate storage distribution flows through the same four
//! stages, in order:
//!
//! 1. **Memo lookup** — the sharded cache ([`ShardedCache`]) answers
//!    repeats without re-analysis;
//! 2. **Dominance pruning** — the [`PruneOracle`]'s monotone dominance
//!    records decide candidates without simulation (queried by the
//!    drivers through the `prunes_*` methods, only at deterministic
//!    decision points);
//! 3. **Warm start** — a neighbouring distribution's eval record
//!    (one channel, ± one step) pre-sizes the analysis arena, and a
//!    pooled [`AnalysisWorkspace`] is reused instead of reallocated;
//! 4. **Cold engine run** — the reduced-state-space analysis proper,
//!    panic-contained and cancellation-aware. In the dependency-guided
//!    search's pipeline the same run also collects the storage-dependent
//!    channels, which the memo entry keeps.
//!
//! Telemetry, statistics, checkpoint-replay and failure containment are
//! attached here exactly once; the drivers (`explore`, `dependency`,
//! `constraint`, and `buffy-csdf`'s wrappers) are thin consumers.
//!
//! # Warm-start soundness
//!
//! The self-timed execution of a dataflow graph under fixed capacities is
//! deterministic: the sequence of states the analysis visits — and hence
//! the throughput, the cycle metadata, and the number of reduced states —
//! is a function of the model and the distribution alone. The warm start
//! only seeds *memory layout*: the interner's table size and the
//! bookkeeping vectors' capacities. No computed value can depend on it,
//! so fronts and [`ExplorationStats`]' deterministic counters are
//! byte-identical with warm-starting on or off, at any thread count. The
//! `warm_starts`/`warm_start_states` counters themselves are
//! timing-dependent (a neighbour must already be cached to seed) and are
//! therefore excluded from `ExplorationStats` equality, like wall time.

use crate::error::ExploreError;
use crate::explore::{ExploreOptions, WarmStart};
use crate::fault::{FaultPlan, FaultSite};
use crate::objective::ObjectiveKind;
use crate::pareto::{ParetoPoint, ParetoSet};
use crate::prune::PruneOracle;
use crate::runtime::{
    resolve_threads, AtomicStats, CachedEval, EvaluationFailure, ExplorationStats, ExploreObserver,
    ShardedCache,
};
use buffy_analysis::{
    throughput_analysis, AnalysisRequest, AnalysisWorkspace, CancelReason, CancelToken, Capacities,
    DataflowSemantics, EnergyModel, ExplorationLimits, ThroughputAnalysis,
};
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use buffy_telemetry::{labeled, names};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The shared evaluation pipeline: memoization, pruning, warm-starting
/// and statistics behind one interface, generic over the model class.
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
    /// Dominance prune oracle ([`crate::prune`]).
    /// Genuine results are recorded as they land; proofs are only queried
    /// from the driver thread between evaluation chunks, so decisions are
    /// deterministic across thread counts.
    oracle: PruneOracle,
    /// Whether cold runs may seed their arena from a neighbouring
    /// distribution's cached record (`--no-warm-start` turns this off;
    /// results are identical either way).
    warm_neighbours: bool,
    /// Whether analyses collect the storage-dependent channels (set by
    /// [`Self::collecting_dependencies`]).
    dependencies: bool,
    /// Per-channel capacity step sizes, indexed by channel: a candidate's
    /// warm-start neighbours differ by exactly one step on one channel.
    neighbour_steps: Vec<u64>,
    /// Pool of reusable analysis arenas, one in flight per worker. A
    /// workspace that survives an analysis returns to the pool; one
    /// caught in a panic is dropped (a fresh one is created on demand).
    workspaces: Mutex<Vec<AnalysisWorkspace>>,
    /// Energy coefficients, present exactly when the declared objective
    /// space includes the energy axis: every [`ParetoPoint`] then carries
    /// the exact energy per iteration derived from the throughput through
    /// [`EnergyModel::energy_per_iteration`]. `None` keeps the factory on
    /// the paper's 2D fast path.
    energy: Option<EnergyModel>,
}

/// Telemetry handles of one pipeline run, fetched once at construction:
/// when no recorder is installed the pipeline pays a single branch, and
/// when one is, the hot path records through these `Arc`s without any
/// registry lookup or lock.
pub(crate) struct EvalTelemetry {
    recorder: Arc<buffy_telemetry::Recorder>,
    latency: Arc<buffy_telemetry::Histogram>,
    short_circuits: Arc<buffy_telemetry::Counter>,
    dominance_prunes: Arc<buffy_telemetry::Counter>,
    warm_starts: Arc<buffy_telemetry::Counter>,
    warm_start_states: Arc<buffy_telemetry::Counter>,
    energy_points: Arc<buffy_telemetry::Counter>,
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
            dominance_prunes: recorder.counter(
                names::DOMINANCE_PRUNES,
                "Candidates skipped by a monotone dominance record.",
            ),
            warm_starts: recorder.counter(
                names::WARM_STARTS,
                "Analyses whose arena was pre-sized from a neighbouring record.",
            ),
            warm_start_states: recorder.counter(
                names::WARM_START_STATES,
                "Reduced-state capacity reused through neighbour warm starts.",
            ),
            energy_points: recorder.counter(
                names::ENERGY_POINTS,
                "Pareto candidate points whose energy objective was computed.",
            ),
            recorder,
        })
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
        options: &ExploreOptions,
        observer: &'a dyn ExploreObserver,
    ) -> Result<EvalPipeline<'a, M>, ExploreError> {
        let oracle = if options.prune {
            PruneOracle::new()
        } else {
            PruneOracle::disabled()
        };
        // An inconsistent model has no repetition vector and therefore no
        // energy coefficients — but such a model fails the bounds phase
        // before any point is constructed, so degrading to `None` there is
        // unobservable. Adversarial annotations overflowing the exact
        // coefficient arithmetic are a different matter: the bounds phase
        // would *succeed* and silently chart an energy-free front, so
        // overflow is surfaced as the error it is.
        let energy = if options.objectives.has(ObjectiveKind::Energy) {
            use buffy_analysis::AnalysisError;
            use buffy_graph::GraphError;
            match EnergyModel::from_semantics(model, observed) {
                Ok(m) => Some(m),
                Err(e @ AnalysisError::Graph(GraphError::ArithmeticOverflow { .. })) => {
                    return Err(ExploreError::from(e))
                }
                Err(_) => None,
            }
        } else {
            None
        };
        Ok(EvalPipeline {
            model,
            observed,
            limits: options.limits,
            cache: ShardedCache::new(),
            stats: AtomicStats::new(),
            threads: resolve_threads(options.threads),
            observer,
            cancel: options.cancel.clone().unwrap_or_default(),
            warm_start: options.warm_start.clone(),
            fail_distribution: options.fail_distribution.clone(),
            faults: options.fault_plan.clone(),
            failures: Mutex::new(Vec::new()),
            telemetry: EvalTelemetry::fetch(),
            shard_stats_published: AtomicBool::new(false),
            oracle,
            warm_neighbours: options.warm_start_neighbours,
            dependencies: false,
            neighbour_steps: (0..model.num_channels())
                .map(|i| model.channel_step(ChannelId::new(i)))
                .collect(),
            workspaces: Mutex::new(Vec::new()),
            energy,
        })
    }

    /// Makes every analysis of this pipeline also collect the
    /// storage-dependent channels, which the memo entries then carry
    /// ([`CachedEval::dependent`]). The fronts, the reports and the
    /// statistics do not change.
    pub(crate) fn collecting_dependencies(mut self) -> Self {
        self.dependencies = true;
        self
    }

    /// Builds the Pareto point of one evaluated distribution in the
    /// declared objective space: the paper's storage/throughput pair, plus
    /// the exact energy per iteration when the energy axis is declared.
    ///
    /// Energy is a pure function of the throughput through the precomputed
    /// model, so this costs no extra analysis and the memoized
    /// [`CachedEval`] records need no new field — checkpoint replay and
    /// warm starts reconstruct identical points for free.
    pub(crate) fn point(
        &self,
        distribution: StorageDistribution,
        throughput: Rational,
    ) -> ParetoPoint {
        match &self.energy {
            Some(m) => {
                if let Some(t) = &self.telemetry {
                    t.energy_points.inc();
                }
                // The checked path: point construction runs outside the
                // worker's panic containment, so an overflowing energy
                // (extreme but validated coefficients at an extreme
                // throughput) degrades to the worst representable energy
                // — deterministic, and dominated out of any honest front
                // — rather than aborting the run.
                let energy = m
                    .checked_energy_per_iteration(throughput)
                    .unwrap_or(Rational::from_integer(i128::MAX));
                ParetoPoint::with_energy(distribution, throughput, energy)
            }
            None => ParetoPoint::new(distribution, throughput),
        }
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

    /// A usable warm-start seed from `neighbour`'s cached record, when
    /// one exists. The probe is a tally-free [`ShardedCache::peek`]:
    /// whether a neighbour is cached yet depends on worker timing, so a
    /// counted lookup would make the cache statistics nondeterministic.
    fn usable_record(&self, neighbour: &StorageDistribution) -> Option<u64> {
        match self.cache.peek(neighbour) {
            Some(e) if !e.failed && e.states_stored > 0 => Some(e.states_stored),
            _ => None,
        }
    }

    /// The arena pre-size hint for `dist`: the recorded state count of
    /// the first cached neighbour (per channel: one step up, then one
    /// step down). Adjacent distributions have nearly identical reachable
    /// spaces, so the neighbour's count is within a few percent of
    /// `dist`'s — close enough that the interner starts at its final
    /// table size instead of growing through the power-of-two ladder.
    fn neighbour_hint(&self, dist: &StorageDistribution) -> Option<u64> {
        if !self.warm_neighbours {
            return None;
        }
        for (i, &step) in self.neighbour_steps.iter().enumerate() {
            let cid = ChannelId::new(i);
            if let Some(hint) = self.usable_record(&dist.grown(cid, step)) {
                return Some(hint);
            }
            if dist.get(cid) >= step {
                let mut caps = dist.as_slice().to_vec();
                caps[i] -= step;
                let down = StorageDistribution::from_capacities(caps);
                if let Some(hint) = self.usable_record(&down) {
                    return Some(hint);
                }
            }
        }
        None
    }

    fn pop_workspace(&self) -> AnalysisWorkspace {
        self.workspaces.lock().unwrap().pop().unwrap_or_default()
    }

    fn push_workspace(&self, ws: AnalysisWorkspace) {
        self.workspaces.lock().unwrap().push(ws);
    }

    /// One analysis of `dist` in a pooled workspace, under the run's
    /// limits and cancel token; the flags are collected when
    /// `dependencies` is set.
    fn analyse(
        &self,
        dist: &StorageDistribution,
        dependencies: bool,
        state_hint: usize,
        ws: &mut AnalysisWorkspace,
    ) -> Result<ThroughputAnalysis, buffy_analysis::AnalysisError> {
        let request = AnalysisRequest {
            limits: self.limits,
            cancel: &self.cancel,
            dependencies,
            state_hint,
        };
        throughput_analysis(
            self.model,
            Capacities::from_distribution(dist),
            self.observed,
            &request,
            ws,
        )
    }

    /// The storage-dependent channels of `dist` from one analysis with
    /// the flags on, for memo entries that carry none (checkpoint-replayed
    /// evaluations) and for deadlocks proven by dominance, which skip the
    /// evaluation. The run's cancel token and limits apply; the analysis
    /// is not counted as an evaluation, observed or cached. `Ok(None)`
    /// when it panicked (the candidate then expands nothing).
    ///
    /// # Errors
    ///
    /// The analysis's errors, [`ExploreError::Cancelled`] among them.
    pub(crate) fn dependencies(
        &self,
        dist: &StorageDistribution,
    ) -> Result<Option<Arc<[bool]>>, ExploreError> {
        let mut ws = self.pop_workspace();
        match catch_unwind(AssertUnwindSafe(|| self.analyse(dist, true, 0, &mut ws))) {
            Ok(analysis) => {
                self.push_workspace(ws);
                Ok(analysis?.dependent.map(Arc::from))
            }
            Err(_) => Ok(None),
        }
    }

    /// [`EvalPipeline::eval`] plus the whole memo entry — with the
    /// storage-dependent channels when this pipeline collects them.
    pub(crate) fn eval_full(&self, dist: &StorageDistribution) -> Result<CachedEval, ExploreError> {
        if let Some(entry) = self.cache.get(dist) {
            self.stats.record_cache_hit();
            self.observer.cache_hit(dist);
            return Ok(entry);
        }
        if let Some(warm) = &self.warm_start {
            if let Some(&(t, states)) = warm.get(dist) {
                self.observer.evaluation_started(dist);
                self.stats.record_evaluation(states, 0);
                let entry = CachedEval {
                    throughput: t,
                    states_stored: states,
                    failed: false,
                    dependent: None,
                };
                self.cache.insert(dist.clone(), entry.clone());
                // A replayed checkpoint entry is a genuine result: it must
                // seed the same dominance records as the run it restores,
                // or a resumed run would prune differently.
                self.oracle.record(dist, t);
                self.observer.evaluation_finished(dist, t, states, 0);
                self.cancel.note_states(states);
                self.cancel.note_evaluation();
                return Ok(entry);
            }
        }
        self.observer.evaluation_started(dist);
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultSite::SpuriousCancel) {
                self.cancel.cancel(CancelReason::Interrupt);
            }
        }
        let trace_ts = self
            .telemetry
            .as_ref()
            .map(|t| t.recorder.elapsed_us())
            .unwrap_or(0);
        let hint = self.neighbour_hint(dist);
        let mut ws = self.pop_workspace();
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
            self.analyse(dist, self.dependencies, hint.unwrap_or(0) as usize, &mut ws)
        }));
        match attempt {
            Ok(analysis) => {
                self.push_workspace(ws);
                let ThroughputAnalysis { report, dependent } = analysis?;
                let nanos = start.elapsed().as_nanos() as u64;
                let states = report.states_stored as u64;
                self.stats.record_evaluation(states, nanos);
                if let Some(seeded) = hint {
                    self.stats.record_warm_start(seeded);
                }
                if let Some(t) = &self.telemetry {
                    t.latency.record(nanos);
                    t.recorder
                        .trace_complete_at("eval", trace_ts, nanos / 1_000);
                    if let Some(seeded) = hint {
                        t.warm_starts.inc();
                        t.warm_start_states.add(seeded);
                    }
                }
                let entry = CachedEval {
                    throughput: report.throughput,
                    states_stored: states,
                    failed: false,
                    dependent: dependent.map(Arc::from),
                };
                self.cache.insert(dist.clone(), entry.clone());
                self.oracle.record(dist, report.throughput);
                self.observer
                    .evaluation_finished(dist, report.throughput, states, nanos);
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
            Err(payload) => {
                // The workspace was mid-analysis when the panic unwound
                // through it: drop it rather than pooling a possibly
                // inconsistent arena.
                drop(ws);
                let message = panic_message(payload.as_ref());
                self.stats.record_failure();
                let entry = CachedEval {
                    throughput: Rational::ZERO,
                    states_stored: 0,
                    failed: true,
                    dependent: None,
                };
                // Degraded zero-throughput is *not* a genuine result: it
                // is cached (deterministic on re-request) but never
                // recorded in the oracle — a panic proves nothing about
                // the real throughput, so it must not seed proofs.
                self.cache.insert(dist.clone(), entry.clone());
                self.failures.lock().unwrap().push(EvaluationFailure {
                    distribution: dist.clone(),
                    message: message.clone(),
                });
                self.observer.evaluation_failed(dist, &message);
                self.cancel.note_evaluation();
                Ok(entry)
            }
        }
    }

    /// Passes an oracle verdict through, registering a proof (`true`) as
    /// one skipped candidate with the statistics, the observer and
    /// telemetry.
    fn noted(&self, dist: &StorageDistribution, proved: bool) -> bool {
        if proved {
            self.stats.record_prune();
            self.observer.distribution_pruned(dist);
            if let Some(t) = &self.telemetry {
                t.dominance_prunes.inc();
            }
        }
        proved
    }

    /// Whether the oracle proves `t(dist) ≤ limit`; a successful proof is
    /// counted as a prune. Exactness: a candidate at or below the current
    /// best cannot improve the front (updates require strictly greater
    /// throughput), so skipping it changes nothing but the work done.
    pub(crate) fn prunes_at_most(&self, dist: &StorageDistribution, limit: &Rational) -> bool {
        self.noted(dist, self.oracle.proves_at_most(dist, limit))
    }

    /// Whether the oracle proves `t(dist) < limit` (strictly); counted as
    /// a prune on success.
    pub(crate) fn prunes_below(&self, dist: &StorageDistribution, limit: &Rational) -> bool {
        self.noted(dist, self.oracle.proves_below(dist, limit))
    }

    /// Whether the oracle proves `t(dist) = 0`; counted as a prune on
    /// success.
    pub(crate) fn prunes_zero(&self, dist: &StorageDistribution) -> bool {
        self.noted(dist, self.oracle.proves_zero(dist))
    }

    /// Whether the oracle proves `t(dist) > 0` (a positive dominance
    /// record pointwise below `dist`); counted as a prune on success.
    pub(crate) fn proves_positive(&self, dist: &StorageDistribution) -> bool {
        self.noted(dist, self.oracle.proves_positive(dist))
    }

    /// Evaluates a batch of distributions, possibly in parallel. Results
    /// align with the input order.
    ///
    /// Work is handed out through an atomic index; results land in
    /// per-slot [`OnceLock`]s, so workers share no locks at all. Batches
    /// always contain distinct distributions (they come from one
    /// enumeration pass), so no two workers ever analyse the same
    /// distribution concurrently and the evaluation count stays exact.
    pub(crate) fn eval_batch(
        &self,
        batch: &[StorageDistribution],
    ) -> Result<Vec<Rational>, ExploreError> {
        if self.threads <= 1 || batch.len() <= 1 {
            return batch.iter().map(|d| self.eval(d)).collect();
        }
        let results: Vec<OnceLock<Result<Rational, ExploreError>>> =
            batch.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(batch.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        return;
                    }
                    let _ = results[i].set(self.eval(&batch[i]));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index evaluated"))
            .collect()
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

/// Clips a front to the requested throughput window and thins it to one
/// point per quantization level (smallest size wins) — the shared
/// options-semantics tail of every driver. Returns the input unchanged
/// when no window or quantum is set.
pub(crate) fn clip_front(
    pareto: ParetoSet,
    options: &ExploreOptions,
    thr_max_graph: Rational,
) -> ParetoSet {
    if options.min_throughput.is_none()
        && options.max_throughput.is_none()
        && options.quantum.is_none()
    {
        return pareto;
    }
    let min_t = options.min_throughput.unwrap_or(Rational::ZERO);
    let max_t = options.max_throughput.unwrap_or(thr_max_graph);
    let mut thinned = ParetoSet::new();
    let mut last_level: Option<Rational> = None;
    for p in pareto.points() {
        if p.throughput < min_t || p.throughput > max_t {
            continue;
        }
        if let Some(quantum) = options.quantum {
            let level = p.throughput.quantize_down(quantum);
            if last_level == Some(level) {
                continue;
            }
            last_level = Some(level);
        }
        thinned.insert(p.clone());
    }
    thinned
}
