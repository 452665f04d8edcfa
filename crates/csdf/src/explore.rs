//! Buffer/throughput trade-off exploration for CSDF graphs.
//!
//! The exploration driver lives in the unified kernel:
//! [`buffy_core::explore_design_space_for`] runs the paper's exact
//! divide-and-conquer search for any
//! [`DataflowSemantics`](buffy_analysis::DataflowSemantics) model, and
//! [`CsdfGraph`] implements that trait. This module keeps the CSDF-typed
//! entry point plus the phase-aware channel bounds: capacities move in
//! steps of the gcd of all the channel's (non-zero) rates — token counts
//! are always congruent to the initial tokens modulo that gcd — and
//! single-phase channels get the exact SDF buffer minimum so that
//! embedded SDF graphs explore exactly the SDF grid.

use crate::model::{CsdfChannel, CsdfError, CsdfGraph};
use crate::throughput::CsdfLimits;
use buffy_analysis::{bmlb, AnalysisError, CancelToken};
use buffy_core::{
    explore_design_space_observed, Completeness, EvaluationFailure, ExplorationStats, ExploreError,
    ExploreObserver, ExploreOptions, NoopObserver, ObjectiveSpace, ParetoSet, SkippedSize,
    WarmStart,
};
use buffy_graph::{gcd_u64, ActorId, Rational};
use std::sync::Arc;

/// A safe lower bound on one channel's capacity for positive throughput.
///
/// Single-phase channels (both rate vectors of length 1, i.e. the SDF
/// embedding) get the exact buffer minimal for liveness ([`bmlb`]), so the
/// exploration grid of an embedded SDF graph is identical to the SDF
/// explorer's. Phased channels fall back to the largest single production
/// or consumption burst; the initial tokens must be storable either way.
pub fn csdf_channel_lower_bound(channel: &CsdfChannel) -> u64 {
    if let ([p], [c]) = (channel.production(), channel.consumption()) {
        return bmlb(*p, *c, channel.initial_tokens());
    }
    let max_prod = channel.production().iter().copied().max().unwrap_or(0);
    let max_cons = channel.consumption().iter().copied().max().unwrap_or(0);
    max_prod.max(max_cons).max(channel.initial_tokens())
}

/// The capacity quantum of a channel: the gcd of all non-zero rates.
pub fn csdf_channel_step(channel: &CsdfChannel) -> u64 {
    let mut g = 0u64;
    for &r in channel.production().iter().chain(channel.consumption()) {
        g = gcd_u64(g, r);
    }
    g.max(1)
}

/// Options for the CSDF exploration.
#[derive(Debug, Clone)]
pub struct CsdfExploreOptions {
    /// Observed actor (default: the graph's default).
    pub observed: Option<ActorId>,
    /// Hard cap on the distribution size; defaults to the computed
    /// upper bound (the size realizing the maximal throughput).
    pub max_size: Option<u64>,
    /// State-space limits per analysis.
    pub limits: CsdfLimits,
    /// Worker threads for evaluating candidate distributions: 1 =
    /// sequential, 0 = auto-detect via
    /// [`std::thread::available_parallelism`]. The reported statistics are
    /// identical for every thread count.
    pub threads: usize,
    /// Quantize throughputs searched to multiples of this value (paper
    /// §11: limits the number of Pareto points).
    pub quantum: Option<Rational>,
    /// Cooperative budget/cancellation token checked between evaluation
    /// strides; when it fires after the bounds phase the exploration
    /// degrades to a partial, bound-annotated front instead of failing.
    pub cancel: Option<Arc<CancelToken>>,
    /// Previously completed evaluations (e.g. from a checkpoint), replayed
    /// as recorded evaluations so a resumed run reproduces an
    /// uninterrupted one exactly.
    pub warm_start: Option<Arc<WarmStart>>,
    /// Let dominance records skip candidates they decide (default
    /// `true`); disable for the unpruned reference run. The front is
    /// identical either way.
    pub static_prune: bool,
    /// Seed each cold evaluation's allocations from a neighbouring
    /// distribution's recorded state count (default `true`). Purely an
    /// allocation-layer hint: fronts and statistics (other than the
    /// warm-start counters) are identical either way.
    pub warm_start_neighbours: bool,
    /// Deterministic fault schedule for resilience testing (see
    /// [`buffy_core::FaultPlan`]); `None` in production.
    pub fault_plan: Option<Arc<buffy_core::FaultPlan>>,
    /// The objective space to explore (default: the paper's
    /// storage/throughput pair). Adding the energy axis requires power
    /// annotations on the graph's actors; the latency axis is an
    /// SDF-only CLI annotation and is rejected here by the CLI layer.
    pub objectives: ObjectiveSpace,
}

impl Default for CsdfExploreOptions {
    // Manual impl: the derive would default the booleans to `false`, but
    // pruning and neighbour warm starts are on unless explicitly disabled.
    fn default() -> Self {
        Self {
            observed: None,
            max_size: None,
            limits: CsdfLimits::default(),
            threads: 0,
            quantum: None,
            cancel: None,
            warm_start: None,
            static_prune: true,
            warm_start_neighbours: true,
            fault_plan: None,
            objectives: ObjectiveSpace::default_2d(),
        }
    }
}

/// Result of a CSDF exploration.
#[derive(Debug, Clone)]
pub struct CsdfExplorationResult {
    /// The Pareto front (phase-firing throughput of the observed actor).
    pub pareto: ParetoSet,
    /// The maximal achievable throughput of the observed actor.
    pub max_throughput: Rational,
    /// Evaluation statistics: analyses run, cache hits, largest state
    /// space, analysis wall time.
    pub stats: ExplorationStats,
    /// Whether the front is exact or a budget/interrupt truncated it.
    pub completeness: Completeness,
    /// Sizes enumerated but never evaluated, with conservative throughput
    /// bounds (only populated on truncated runs).
    pub skipped: Vec<SkippedSize>,
    /// Evaluations that panicked; the run degrades around them.
    pub failures: Vec<EvaluationFailure>,
}

/// Maps kernel exploration errors back into the CSDF vocabulary.
fn explore_to_csdf(e: ExploreError) -> CsdfError {
    match e {
        ExploreError::Graph(g) => CsdfError::from(AnalysisError::Graph(g)),
        ExploreError::Analysis(a) => CsdfError::from(a),
        // Cancellation before any salvageable result surfaces as the
        // analysis-layer cancellation error, keeping the reason.
        ExploreError::Cancelled { reason } => CsdfError::from(AnalysisError::Cancelled { reason }),
        // The remaining variants concern constrained searches this entry
        // point does not expose; an empty feasible space is the only way
        // they can reach us.
        _ => CsdfError::NoPositiveThroughput,
    }
}

/// Explores the buffer/throughput trade-off space of a CSDF graph through
/// the unified kernel's exact design-space exploration.
///
/// # Errors
///
/// Propagates engine/state-space errors; reports
/// [`CsdfError::Inconsistent`] via the repetition-vector check and
/// [`CsdfError::NoPositiveThroughput`] when no distribution is live.
///
/// # Examples
///
/// ```
/// use buffy_csdf::{csdf_explore, CsdfExploreOptions, CsdfGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CsdfGraph::builder("updown");
/// let p = b.actor("p", vec![1, 1]);
/// let c = b.actor("c", vec![1]);
/// b.channel("d", p, vec![2, 0], c, vec![1], 0)?;
/// let g = b.build()?;
/// let r = csdf_explore(&g, &CsdfExploreOptions::default())?;
/// assert!(!r.pareto.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn csdf_explore(
    graph: &CsdfGraph,
    options: &CsdfExploreOptions,
) -> Result<CsdfExplorationResult, CsdfError> {
    csdf_explore_observed(graph, options, &NoopObserver)
}

/// [`csdf_explore`] with a structured [`ExploreObserver`] receiving
/// evaluation, cache-hit, Pareto-accept and phase events as the search
/// runs.
///
/// # Errors
///
/// See [`csdf_explore`].
pub fn csdf_explore_observed(
    graph: &CsdfGraph,
    options: &CsdfExploreOptions,
    observer: &dyn ExploreObserver,
) -> Result<CsdfExplorationResult, CsdfError> {
    // Observation only: the wrapping span marks the CSDF run in traces;
    // the per-phase instrumentation happens inside the shared core driver.
    let _span = buffy_telemetry::active().map(|r| r.span("csdf-explore"));
    let core_options = ExploreOptions {
        observed: options.observed,
        max_size: options.max_size,
        quantum: options.quantum,
        limits: options.limits,
        threads: options.threads,
        cancel: options.cancel.clone(),
        warm_start: options.warm_start.clone(),
        static_prune: options.static_prune,
        warm_start_neighbours: options.warm_start_neighbours,
        fault_plan: options.fault_plan.clone(),
        objectives: options.objectives.clone(),
        ..ExploreOptions::default()
    };
    let r =
        explore_design_space_observed(graph, &core_options, observer).map_err(explore_to_csdf)?;
    Ok(CsdfExplorationResult {
        pareto: r.pareto,
        max_throughput: r.max_throughput,
        stats: r.stats,
        completeness: r.completeness,
        skipped: r.skipped,
        failures: r.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_and_step() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![4, 2], c, vec![2], 3).unwrap();
        let g = b.build().unwrap();
        let channel = g.channel(ch);
        assert_eq!(csdf_channel_lower_bound(channel), 4);
        assert_eq!(csdf_channel_step(channel), 2);
    }

    #[test]
    fn single_phase_lower_bound_is_the_bmlb() {
        // An embedded SDF channel must use the exact SDF bound, not the
        // coarser max-burst bound, so the grids coincide.
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![2], c, vec![3], 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(csdf_channel_lower_bound(g.channel(ch)), 4); // 2+3−1
        assert_eq!(csdf_channel_step(g.channel(ch)), 1);
    }

    #[test]
    fn explore_updown() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let r = csdf_explore(&g, &CsdfExploreOptions::default()).unwrap();
        // The front is monotone and reaches throughput 1 (c every step).
        let pts = r.pareto.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].size < w[1].size && w[0].throughput < w[1].throughput);
        }
        assert_eq!(r.max_throughput, Rational::ONE);
        assert_eq!(pts.last().unwrap().throughput, Rational::ONE);
        // The smallest live capacity is 2 (the burst must fit).
        assert_eq!(pts[0].size, 2);
    }

    #[test]
    fn explore_matches_sdf_front_on_single_phase() {
        // Embedding the paper's example graph must reproduce its front
        // (6, 1/7), (8, 1/6), (9, 1/5), (10, 1/4).
        let mut b = buffy_graph::SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        let sdf = b.build().unwrap();
        let csdf = CsdfGraph::from_sdf(&sdf);
        let r = csdf_explore(&csdf, &CsdfExploreOptions::default()).unwrap();
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
    }

    #[test]
    fn inconsistent_graph_rejected() {
        let mut b = CsdfGraph::builder("bad");
        let x = b.actor("x", vec![1]);
        let y = b.actor("y", vec![1]);
        b.channel("f", x, vec![2], y, vec![1], 0).unwrap();
        b.channel("r", y, vec![1], x, vec![1], 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            csdf_explore(&g, &CsdfExploreOptions::default()),
            Err(CsdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn phase_dependent_buffering_pays_off() {
        // Three-phase producer with a large burst in one phase: capacities
        // between the burst size and burst+cycle trade throughput.
        let mut b = CsdfGraph::builder("burst3");
        let p = b.actor("p", vec![1, 1, 1]);
        let c = b.actor("c", vec![2]);
        b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
        let g = b.build().unwrap();
        let r = csdf_explore(&g, &CsdfExploreOptions::default()).unwrap();
        assert!(r.pareto.len() >= 2, "front: {:?}", r.pareto.points());
        assert!(r.max_throughput > Rational::ZERO);
    }

    #[test]
    fn eval_budget_degrades_to_a_sound_partial_front() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let exact = csdf_explore(&g, &CsdfExploreOptions::default()).unwrap();
        assert!(exact.completeness.exact);
        assert!(exact.skipped.is_empty() && exact.failures.is_empty());
        // Grant enough budget for the bounds phase but not the sweep.
        let budget = exact.stats.evaluations - 1;
        let options = CsdfExploreOptions {
            cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
            ..CsdfExploreOptions::default()
        };
        match csdf_explore(&g, &options) {
            Ok(partial) => {
                assert!(!partial.completeness.exact);
                // Every surviving point is a genuinely evaluated point of
                // the exact front's domination region.
                for pt in partial.pareto.points() {
                    assert!(exact
                        .pareto
                        .points()
                        .iter()
                        .any(|e| e.size <= pt.size && e.throughput >= pt.throughput));
                }
            }
            // The budget can also fire inside the bounds phase, where
            // nothing is salvageable.
            Err(e) => assert!(matches!(
                e,
                CsdfError::Analysis(AnalysisError::Cancelled { .. })
            )),
        }
    }

    #[test]
    fn threads_and_quantum_are_honored() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let sequential = csdf_explore(&g, &CsdfExploreOptions::default()).unwrap();
        let threaded = csdf_explore(
            &g,
            &CsdfExploreOptions {
                threads: 4,
                ..CsdfExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.pareto.points(), threaded.pareto.points());
        // Statistics are deterministic across thread counts.
        assert_eq!(sequential.stats, threaded.stats);
        // A coarse quantum collapses the front to at most a few points.
        let quantized = csdf_explore(
            &g,
            &CsdfExploreOptions {
                quantum: Some(Rational::new(1, 2)),
                ..CsdfExploreOptions::default()
            },
        )
        .unwrap();
        assert!(quantized.pareto.len() <= sequential.pareto.len());
        assert!(!quantized.pareto.is_empty());
    }
}
