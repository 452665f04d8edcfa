//! Throughput analysis via the reduced state space (paper §7).
//!
//! The self-timed execution of a consistent SDF graph under finite channel
//! capacities is deterministic and visits finitely many states, so it is
//! either periodic or deadlocks (paper Theorem 1). The throughput of an
//! actor is the number of its firings on the cycle of the state space
//! divided by the cycle's duration (Property 2).
//!
//! Storing every time instant is wasteful; the paper's *reduced state
//! space* keeps only the states at which the observed actor completes a
//! firing, extended with a `dist` component recording the time elapsed
//! since the previous completion (Fig. 4). This module implements exactly
//! that, generically over any [`DataflowSemantics`] model via
//! [`throughput_for`]; the SDF-typed entry points wrap it.

use crate::budget::CancelToken;
use crate::engine::{Capacities, DataflowEngine, DataflowState, FiringOutcome};
use crate::error::{AnalysisError, LimitKind};
use crate::interner::{fx_hash, Interned, StateStore, PROBE_BINS};
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, Rational, SdfGraph, StorageDistribution};
use buffy_telemetry::{names, Gauge, Histogram, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// How many engine advances between cancellation polls in
/// [`throughput_for_with_cancel`]: the token is checked before the first
/// advance and then whenever `advances & CANCEL_STRIDE_MASK == 0`, i.e.
/// every 1024 advances, so the poll (one relaxed load, occasionally an
/// `Instant::now`) never shows up on the per-state hot path. The stride
/// counts advances, not time: one advance may jump many time units.
const CANCEL_STRIDE_MASK: u64 = 0x3FF;

/// Tunable limits for state-space searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationLimits {
    /// Maximum number of (reduced) states stored before giving up.
    pub max_states: usize,
    /// Maximum number of time units simulated before giving up. It bounds
    /// simulated time, not engine calls: the engine jumps from one firing
    /// completion to the next, and a cycle that closes exactly at
    /// `max_steps` is still found.
    pub max_steps: u64,
}

impl Default for ExplorationLimits {
    fn default() -> Self {
        ExplorationLimits {
            max_states: 1 << 22,
            max_steps: u64::MAX,
        }
    }
}

impl ExplorationLimits {
    /// The error for running into the limit of `kind` while analysing a
    /// model under `caps`: carries the limit value and the capacities so
    /// the offending distribution is identifiable from logs.
    pub fn exceeded(&self, kind: LimitKind, caps: &Capacities) -> AnalysisError {
        AnalysisError::StateLimitExceeded {
            limit: match kind {
                LimitKind::States => self.max_states as u64,
                LimitKind::Steps => self.max_steps,
            },
            kind,
            capacities: caps.as_slice().to_vec(),
        }
    }
}

/// A state of the reduced state space: the timed state at the instant
/// the observed actor completes a firing, plus the `dist` dimension
/// (time since the previous completion) and the number of completions at
/// this instant (more than one only for zero-execution-time actors).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReducedState {
    /// The full timed state after the step.
    pub state: DataflowState,
    /// Time instants since the previous completion of the observed actor.
    pub dist: u64,
    /// Completions of the observed actor at this instant.
    pub firings: u32,
}

/// Result of a throughput analysis for one storage distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Throughput of the observed actor: average firings per time step in
    /// the periodic phase; zero iff the execution deadlocks. For phased
    /// models every phase firing counts (divide by the phase count for
    /// whole cycles).
    pub throughput: Rational,
    /// Whether the execution deadlocked (paper §3).
    pub deadlocked: bool,
    /// Number of reduced states stored during the search (the paper's
    /// "maximum #states" metric of Table 2 counts these).
    pub states_stored: usize,
    /// Number of reduced states on the cycle (0 on deadlock).
    pub cycle_states: usize,
    /// Firings of the observed actor per period (0 on deadlock).
    pub firings_per_period: u64,
    /// Duration of the periodic phase in time units (0 on deadlock).
    pub period: u64,
    /// Time at which the cyclic phase was first entered (time of the first
    /// recurrent reduced state; 0 on deadlock).
    pub cycle_entry_time: u64,
}

impl ThroughputReport {
    fn deadlock(states_stored: usize) -> ThroughputReport {
        ThroughputReport {
            throughput: Rational::ZERO,
            deadlocked: true,
            states_stored,
            cycle_states: 0,
            firings_per_period: 0,
            period: 0,
            cycle_entry_time: 0,
        }
    }
}

/// Computes the throughput of `observed` when `graph` executes self-timed
/// under the storage distribution `dist`.
///
/// This is the paper's core single-point analysis: the generated program of
/// Fig. 8, with the reduced state space of §7.
///
/// # Errors
///
/// - [`AnalysisError::StateLimitExceeded`] if the limits are hit;
/// - [`AnalysisError::ZeroTimeLivelock`] for unbounded zero-time firing;
/// - [`AnalysisError::ZeroPeriod`] if a period of zero duration is found
///   (only possible when the observed actor has execution time 0).
///
/// # Examples
///
/// The paper's ground truth for the running example (§5, §8): γ = ⟨4, 2⟩
/// yields throughput 1/7 for actor `c`, γ = ⟨6, 2⟩ yields 1/6.
///
/// ```
/// use buffy_analysis::throughput;
/// use buffy_graph::{Rational, SdfGraph, StorageDistribution};
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
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![4, 2]), c)?;
/// assert_eq!(r.throughput, Rational::new(1, 7));
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![6, 2]), c)?;
/// assert_eq!(r.throughput, Rational::new(1, 6));
/// # Ok(())
/// # }
/// ```
pub fn throughput(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    observed: ActorId,
) -> Result<ThroughputReport, AnalysisError> {
    throughput_for(
        graph,
        Capacities::from_distribution(dist),
        observed,
        ExplorationLimits::default(),
    )
}

/// The generic reduced-state-space throughput analysis: works for any
/// [`DataflowSemantics`] model (SDF, CSDF, …). For phased models every
/// phase completion of the observed actor counts as a firing.
///
/// # Errors
///
/// See [`throughput`].
pub fn throughput_for<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<ThroughputReport, AnalysisError> {
    static NEVER: CancelToken = CancelToken::new();
    throughput_for_with_cancel(model, caps, observed, limits, &NEVER)
}

/// [`throughput_for`] with cooperative cancellation: polls `cancel` before
/// the first engine advance and then every 1024 advances (a coarse stride,
/// not per-state) and returns
/// [`AnalysisError::Cancelled`] when the token has tripped. This is the
/// entry point the exploration drivers' resilience layer uses.
///
/// # Errors
///
/// See [`throughput`]; additionally [`AnalysisError::Cancelled`] when
/// `cancel` trips mid-analysis.
pub fn throughput_for_with_cancel<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
    cancel: &CancelToken,
) -> Result<ThroughputReport, AnalysisError> {
    let mut workspace = AnalysisWorkspace::new();
    throughput_for_reusing(model, caps, observed, limits, cancel, &mut workspace, 0)
}

/// Reusable per-analysis allocations: the reduced-state interner plus the
/// time/firing bookkeeping vectors of the cycle search.
///
/// One workspace serves one analysis at a time; between analyses it is
/// *reset, not reallocated*, so a worker that evaluates thousands of
/// distributions pays the arena's allocation (and the interner's grow/
/// rehash ladder) once instead of per distribution. A workspace never
/// changes any computed value — the self-timed execution is fully
/// determined by the model and the capacities; the workspace only decides
/// where the intermediate states live.
#[derive(Debug, Default)]
pub struct AnalysisWorkspace {
    store: StateStore<ReducedState>,
    times: Vec<u64>,
    firing_counts: Vec<u32>,
}

impl AnalysisWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> AnalysisWorkspace {
        AnalysisWorkspace::default()
    }

    /// Readies the workspace for one analysis expected to store about
    /// `state_hint` reduced states (0 = no expectation): everything is
    /// cleared, allocations are kept, and the interner table is pre-sized
    /// so the hinted analysis never grows it mid-search.
    fn prepare(&mut self, state_hint: usize) {
        self.store.reset_with_capacity(state_hint);
        self.times.clear();
        self.firing_counts.clear();
        if state_hint > self.times.capacity() {
            self.times.reserve(state_hint);
            self.firing_counts.reserve(state_hint);
        }
    }
}

/// [`throughput_for_with_cancel`] over a caller-owned
/// [`AnalysisWorkspace`], the warm-start entry point of the evaluation
/// pipeline: `state_hint` carries a neighbouring distribution's recorded
/// state count (0 when no neighbour is known) so the interner starts at
/// the right size instead of growing through the power-of-two ladder.
///
/// The report is byte-identical to [`throughput_for_with_cancel`]'s for
/// every workspace state and every hint — the hint is a memory-layout
/// seed, never a behavioural one.
///
/// # Errors
///
/// See [`throughput_for_with_cancel`].
#[allow(clippy::too_many_arguments)]
pub fn throughput_for_reusing<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
    cancel: &CancelToken,
    workspace: &mut AnalysisWorkspace,
    state_hint: usize,
) -> Result<ThroughputReport, AnalysisError> {
    workspace.prepare(state_hint);
    // Telemetry is observation-only and fetched once per analysis: when no
    // recorder is installed this is a single relaxed load and a branch.
    let telemetry = buffy_telemetry::active().map(AnalysisTelemetry::new);
    if telemetry.is_none() {
        return cycle_search(model, caps, observed, limits, cancel, workspace);
    }
    let started = Instant::now();
    let result = cycle_search(model, caps, observed, limits, cancel, workspace);
    if let Some(tel) = &telemetry {
        tel.record(&workspace.store, started.elapsed().as_nanos() as u64);
    }
    result
}

/// Per-analysis telemetry handles, fetched once per call so the state
/// loop itself records nothing.
struct AnalysisTelemetry {
    states: Arc<Histogram>,
    wall: Arc<Histogram>,
    probe_len: Arc<Histogram>,
    occupancy: Arc<Gauge>,
}

impl AnalysisTelemetry {
    fn new(recorder: Arc<Recorder>) -> AnalysisTelemetry {
        AnalysisTelemetry {
            states: recorder.histogram(
                names::ANALYSIS_STATES,
                "Reduced states stored per throughput analysis.",
            ),
            wall: recorder.histogram(
                names::ANALYSIS_WALL_NS,
                "Cycle-detection wall time per throughput analysis, in nanoseconds.",
            ),
            probe_len: recorder.histogram(
                names::INTERNER_PROBE_LEN,
                "State-interner probe lengths (slots inspected; 1 = direct hit).",
            ),
            occupancy: recorder.gauge(
                names::INTERNER_OCCUPANCY_MAX,
                "Largest state-interner occupancy (entries) seen in any analysis.",
            ),
        }
    }

    /// Folds the store's always-on scratch tallies into the shared
    /// histograms — once per analysis, never per state.
    fn record(&self, store: &StateStore<ReducedState>, wall_ns: u64) {
        self.states.record(store.len() as u64);
        self.wall.record(wall_ns);
        self.occupancy.record_max(store.len() as u64);
        let probes = store.probe_stats();
        for (i, &count) in probes.tally.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // The last bin aggregates lengths >= PROBE_BINS; report those
            // at the observed maximum.
            let len = if i + 1 < PROBE_BINS {
                (i + 1) as u64
            } else {
                probes.max_probe
            };
            self.probe_len.record_n(len, count);
        }
    }
}

/// The cycle search proper; the workspace is owned by the caller (and
/// already prepared) so telemetry can read its statistics on every exit
/// path and the allocations outlive the analysis.
fn cycle_search<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
    cancel: &CancelToken,
    workspace: &mut AnalysisWorkspace,
) -> Result<ThroughputReport, AnalysisError> {
    let AnalysisWorkspace {
        store,
        times, // time of each reduced state
        firing_counts,
    } = workspace;
    let mut engine = DataflowEngine::new(model, caps);
    let initial = engine.start_initial()?;
    let mut last_completion: u64 = 0;

    // The observed actor may complete during the initial start phase when
    // its execution time is 0.
    let mut pending = initial
        .completed
        .iter()
        .filter(|&&(a, _)| a == observed)
        .count() as u32;
    if pending > 0 {
        let hash = fx_hash(&(engine.state(), 0u64, pending));
        store.intern_with(
            hash,
            |rs| rs.dist == 0 && rs.firings == pending && rs.state == *engine.state(),
            || ReducedState {
                state: engine.state().clone(),
                dist: 0,
                firings: pending,
            },
        );
        times.push(0);
        firing_counts.push(pending);
    }

    // Only completions can change the reduced state space, so the engine
    // jumps from one completion to the next; the horizon keeps the step
    // limit exact.
    let mut advances: u64 = 0;
    loop {
        if advances & CANCEL_STRIDE_MASK == 0 {
            if let Some(reason) = cancel.check() {
                return Err(AnalysisError::Cancelled { reason });
            }
        }
        advances += 1;
        if engine.time() >= limits.max_steps {
            return Err(limits.exceeded(LimitKind::Steps, engine.capacities()));
        }
        let outcome = engine.advance(limits.max_steps)?;
        let events = match outcome {
            FiringOutcome::Deadlock => {
                return Ok(ThroughputReport::deadlock(store.len()));
            }
            FiringOutcome::Progress(ev) => ev,
        };
        pending = events
            .completed
            .iter()
            .filter(|&&(a, _)| a == observed)
            .count() as u32;
        if pending == 0 {
            continue;
        }
        let dist = engine.time() - last_completion;
        last_completion = engine.time();
        let hash = fx_hash(&(engine.state(), dist, pending));
        let next_index = times.len();
        match store.intern_with(
            hash,
            |rs| rs.dist == dist && rs.firings == pending && rs.state == *engine.state(),
            || ReducedState {
                state: engine.state().clone(),
                dist,
                firings: pending,
            },
        ) {
            Interned::Inserted(_) => {
                times.push(engine.time());
                firing_counts.push(pending);
                if times.len() > limits.max_states {
                    return Err(limits.exceeded(LimitKind::States, engine.capacities()));
                }
            }
            Interned::Existing(k) => {
                // Cycle found: states k..next_index repeat forever.
                let period = engine.time() - times[k];
                let firings: u64 = firing_counts[k..].iter().map(|&f| f as u64).sum();
                if period == 0 {
                    return Err(AnalysisError::ZeroPeriod);
                }
                return Ok(ThroughputReport {
                    throughput: Rational::new(firings as i128, period as i128),
                    deadlocked: false,
                    states_stored: store.len(),
                    cycle_states: next_index - k,
                    firings_per_period: firings,
                    period,
                    cycle_entry_time: times[k],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    fn thr(g: &SdfGraph, caps: &[u64], actor: &str) -> Rational {
        let d = StorageDistribution::from_capacities(caps.to_vec());
        throughput(g, &d, g.actor_by_name(actor).unwrap())
            .unwrap()
            .throughput
    }

    /// Every concrete number the paper states for the running example.
    #[test]
    fn paper_oracle_values() {
        let g = example();
        // §5/§8: ⟨4,2⟩ → 1/7; ⟨6,2⟩ → 1/6.
        assert_eq!(thr(&g, &[4, 2], "c"), Rational::new(1, 7));
        assert_eq!(thr(&g, &[6, 2], "c"), Rational::new(1, 6));
        // §8: ⟨5,2⟩ is *not* minimal: same throughput as ⟨4,2⟩.
        assert_eq!(thr(&g, &[5, 2], "c"), Rational::new(1, 7));
        // §8: throughput can never exceed 1/4 and a distribution of size 10
        // reaches it (⟨7,3⟩; ⟨8,2⟩ starves c through the small β buffer).
        assert_eq!(thr(&g, &[7, 3], "c"), Rational::new(1, 4));
        assert_eq!(thr(&g, &[8, 2], "c"), Rational::new(1, 6));
        // Larger distributions do not improve beyond the maximum.
        assert_eq!(thr(&g, &[20, 20], "c"), Rational::new(1, 4));
    }

    #[test]
    fn throughputs_relate_via_repetition_vector() {
        let g = example();
        // q = (3, 2, 1): thr(a) = 3·thr(c), thr(b) = 2·thr(c).
        assert_eq!(thr(&g, &[4, 2], "a"), Rational::new(3, 7));
        assert_eq!(thr(&g, &[4, 2], "b"), Rational::new(2, 7));
    }

    #[test]
    fn deadlock_reports_zero() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 1]);
        let r = throughput(&g, &d, g.actor_by_name("c").unwrap()).unwrap();
        assert!(r.deadlocked);
        assert_eq!(r.throughput, Rational::ZERO);
        assert_eq!(r.cycle_states, 0);
    }

    #[test]
    fn smallest_positive_distribution_is_4_2() {
        // The paper: ⟨4,2⟩ is the smallest distribution with positive
        // throughput (size 6). Check all smaller distributions deadlock.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        for a in 0..=5u64 {
            for b in 0..=5u64 {
                if a + b < 6 {
                    let d = StorageDistribution::from_capacities(vec![a, b]);
                    let r = throughput(&g, &d, c).unwrap();
                    assert!(
                        r.deadlocked,
                        "distribution <{a}, {b}> should deadlock but has throughput {}",
                        r.throughput
                    );
                }
            }
        }
    }

    #[test]
    fn report_metadata_for_4_2() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let r = throughput(&g, &d, g.actor_by_name("c").unwrap()).unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
        assert_eq!(r.period, 7);
        assert_eq!(r.firings_per_period, 1);
        assert_eq!(r.cycle_states, 1);
        assert!(!r.deadlocked);
        // c completes its first firing at t=9 with dist=9; the next
        // completion (t=16) has dist=7, and that reduced state recurs at
        // t=23 — exactly the structure of the paper's Fig. 4.
        assert_eq!(r.cycle_entry_time, 16);
        assert!(r.states_stored >= 1);
    }

    #[test]
    fn state_limit_enforced() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![8, 2]);
        let limits = ExplorationLimits {
            max_states: 1,
            max_steps: 3, // give up before c ever completes
        };
        let err = throughput_for(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            limits,
        )
        .unwrap_err();
        // The steps cap fires here, and the error says so — including the
        // offending capacities.
        assert_eq!(
            err,
            AnalysisError::StateLimitExceeded {
                limit: 3,
                kind: crate::error::LimitKind::Steps,
                capacities: vec![Some(8), Some(2)],
            },
            "{err}"
        );

        // The exact boundary: under ⟨4,2⟩ the cycle closes at t = 23 (c's
        // completion at t = 16 recurs), so a limit of 23 time units still
        // finds it and 22 does not.
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let run = |max_steps| {
            throughput_for(
                &g,
                Capacities::from_distribution(&d),
                g.actor_by_name("c").unwrap(),
                ExplorationLimits {
                    max_steps,
                    ..ExplorationLimits::default()
                },
            )
        };
        let r = run(23).unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
        assert_eq!((r.cycle_entry_time, r.period), (16, 7));
        assert_eq!(
            run(22).unwrap_err(),
            AnalysisError::StateLimitExceeded {
                limit: 22,
                kind: crate::error::LimitKind::Steps,
                capacities: vec![Some(4), Some(2)],
            }
        );
    }

    #[test]
    fn states_limit_reports_states_kind() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![8, 2]);
        let limits = ExplorationLimits {
            max_states: 1,
            max_steps: u64::MAX,
        };
        let err = throughput_for(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            limits,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::StateLimitExceeded {
                    limit: 1,
                    kind: crate::error::LimitKind::States,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn cancelled_token_stops_the_analysis() {
        use crate::budget::{CancelReason, CancelToken};
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupt);
        let err = throughput_for_with_cancel(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            ExplorationLimits::default(),
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                reason: CancelReason::Interrupt
            }
        );
    }

    #[test]
    fn deadline_stops_an_analysis_mid_search() {
        // Unbounded α grows forever, so no reduced state ever recurs: only
        // the deadline, polled every 1024 advances, can end the search.
        use crate::budget::{CancelReason, CancelToken};
        use std::time::Duration;
        let g = example();
        let token = CancelToken::new().with_deadline(Duration::from_millis(20));
        let err = throughput_for_with_cancel(
            &g,
            Capacities::unbounded(2),
            g.actor_by_name("c").unwrap(),
            ExplorationLimits {
                max_states: usize::MAX,
                max_steps: u64::MAX,
            },
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                reason: CancelReason::Deadline
            }
        );
    }

    #[test]
    fn live_token_changes_nothing() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let token = CancelToken::new();
        let r = throughput_for_with_cancel(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            ExplorationLimits::default(),
            &token,
        )
        .unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
    }

    #[test]
    fn homogeneous_ring_throughput() {
        // Two actors in a ring with one token: they alternate; each fires
        // once per 2 time units (execution times 1, 1).
        let mut b = SdfGraph::builder("ring");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[1, 1], "x"), Rational::new(1, 2));
        assert_eq!(thr(&g, &[1, 1], "y"), Rational::new(1, 2));
        // With 2 tokens of slack the two still serialize through the single
        // token in the ring: 1/2 each.
        assert_eq!(thr(&g, &[2, 2], "x"), Rational::new(1, 2));
    }

    #[test]
    fn pipelined_ring_reaches_half() {
        // Two tokens in the ring allow full pipelining: each actor busy
        // every step... bounded by its own execution time 1 → throughput 1? No:
        // with 2 tokens and capacities 2, x and y fire concurrently each
        // step: throughput 1 each.
        let mut b = SdfGraph::builder("ring2");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[2, 2], "x"), Rational::ONE);
    }

    #[test]
    fn zero_execution_time_observed_actor() {
        // src (exec 2) feeds a zero-time sink through capacity 1: the sink
        // fires instantly every 2 steps.
        let mut b = SdfGraph::builder("z");
        let s = b.actor("s", 2);
        let z = b.actor("z", 0);
        b.channel("c", s, 1, z, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[1], "z"), Rational::new(1, 2));
    }

    #[test]
    fn multirate_burst_counted_correctly() {
        // src produces 3 tokens per firing (exec 3); sink consumes 1 with
        // exec 1. With capacity 3 the source blocks while the sink drains
        // the burst: 3 sink firings per 6 time units.
        let mut b = SdfGraph::builder("burst");
        let s = b.actor("s", 3);
        let t = b.actor("t", 1);
        b.channel("c", s, 3, t, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[3], "t"), Rational::new(1, 2));
        // Capacity 6 lets source and sink overlap fully: the sink still
        // only receives 3 tokens per 3 time units → throughput 1... the
        // source fires back-to-back, so the sink fires once per step.
        assert_eq!(thr(&g, &[6], "t"), Rational::ONE);
    }

    // The `workspace` tests double as the Miri target for the arena
    // (`cargo miri test -p buffy-analysis --lib throughput::tests::workspace`).

    #[test]
    fn workspace_reuse_reproduces_reports() {
        // One workspace serving many analyses (including a deadlocked one
        // in the middle) must produce reports identical to fresh calls.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        static NEVER: CancelToken = CancelToken::new();
        let mut ws = AnalysisWorkspace::new();
        for caps in [
            vec![4u64, 2],
            vec![20, 20],
            vec![4, 1], // deadlocks
            vec![7, 3],
            vec![4, 2], // repeat after larger runs
        ] {
            let fresh = throughput(&g, &StorageDistribution::from_capacities(caps.clone()), c);
            let reused = throughput_for_reusing(
                &g,
                Capacities::from_distribution(&StorageDistribution::from_capacities(caps)),
                c,
                ExplorationLimits::default(),
                &NEVER,
                &mut ws,
                0,
            );
            assert_eq!(fresh.unwrap(), reused.unwrap());
        }
    }

    #[test]
    fn workspace_state_hint_never_changes_the_report() {
        // The hint is a layout seed only: wildly wrong hints in both
        // directions still reproduce the unhinted report byte-for-byte.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        static NEVER: CancelToken = CancelToken::new();
        let dist = StorageDistribution::from_capacities(vec![7, 3]);
        let baseline = throughput(&g, &dist, c).unwrap();
        for hint in [0usize, 1, baseline.states_stored, 10_000] {
            let mut ws = AnalysisWorkspace::new();
            let hinted = throughput_for_reusing(
                &g,
                Capacities::from_distribution(&dist),
                c,
                ExplorationLimits::default(),
                &NEVER,
                &mut ws,
                hint,
            )
            .unwrap();
            assert_eq!(baseline, hinted, "hint {hint} changed the report");
        }
    }

    #[test]
    fn workspace_errors_leave_it_reusable() {
        // A limit error mid-analysis must not poison the workspace for
        // the next analysis.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        static NEVER: CancelToken = CancelToken::new();
        let mut ws = AnalysisWorkspace::new();
        let tight = ExplorationLimits {
            max_steps: 2,
            ..ExplorationLimits::default()
        };
        let dist = StorageDistribution::from_capacities(vec![7, 3]);
        let err = throughput_for_reusing(
            &g,
            Capacities::from_distribution(&dist),
            c,
            ExplorationLimits::default(),
            &NEVER,
            &mut ws,
            0,
        )
        .map(|_| ());
        assert!(err.is_ok());
        assert!(throughput_for_reusing(
            &g,
            Capacities::from_distribution(&dist),
            c,
            tight,
            &NEVER,
            &mut ws,
            0,
        )
        .is_err());
        let after = throughput_for_reusing(
            &g,
            Capacities::from_distribution(&dist),
            c,
            ExplorationLimits::default(),
            &NEVER,
            &mut ws,
            0,
        )
        .unwrap();
        assert_eq!(after, throughput(&g, &dist, c).unwrap());
    }
}
