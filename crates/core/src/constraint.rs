//! Minimal storage under a throughput constraint.
//!
//! The paper's headline question: *given a throughput constraint, what is
//! the smallest storage distribution under which the graph can be executed
//! with a schedule meeting it?* This module answers it directly — without
//! charting the whole Pareto space — by a binary search over the monotone
//! size dimension, deciding each size with an early-exit enumeration
//! (paper §9). Like the exploration drivers, the search runs for any
//! [`DataflowSemantics`] model and reports to
//! [`ExploreOptions::observer`].

use crate::enumerate::DistributionSpace;
use crate::error::ExploreError;
use crate::explore::{salvage, ExploreOptions, SKIP_COUNT_CAP};
use crate::pareto::ParetoPoint;
use crate::pipeline::EvalPipeline;
use crate::runtime::{Completeness, EvaluationFailure, Event, ExplorationStats, SearchPhase};
use buffy_analysis::{CancelReason, DataflowSemantics};
use buffy_graph::Rational;
use buffy_telemetry::{labeled, names};
use std::ops::ControlFlow;

/// Outcome of a constraint search ([`min_storage_for_throughput`]).
#[derive(Debug, Clone)]
pub struct ConstraintResult {
    /// The witnessing point: distribution, size, exact throughput (which
    /// may exceed the constraint). For truncated runs this is the best
    /// *sound* witness found — it meets the constraint, but undecided
    /// smaller sizes might too.
    pub point: ParetoPoint,
    /// Whether the minimality proof ran to completion.
    pub completeness: Completeness,
    /// Evaluations that panicked and were degraded to zero-throughput
    /// entries.
    pub failures: Vec<EvaluationFailure>,
    /// Evaluation statistics of the search.
    pub stats: ExplorationStats,
}

/// Finds a smallest storage distribution whose throughput is at least
/// `constraint`.
///
/// Returns the witnessing [`ParetoPoint`] (distribution, size, exact
/// throughput achieved — which may exceed the constraint) with the
/// search's statistics and completeness.
///
/// When a cancel token trips after a feasible witness is in hand, the
/// search stops and reports that witness with a truncated completeness
/// marker (sound, possibly not minimal). Cancellation before any witness
/// exists yields [`ExploreError::Cancelled`].
///
/// # Errors
///
/// - [`ExploreError::InfeasibleThroughput`] when the constraint exceeds
///   the maximal achievable throughput of the graph;
/// - analysis errors as in
///   [`explore_design_space`](crate::explore_design_space).
///
/// # Examples
///
/// ```
/// use buffy_core::{min_storage_for_throughput, ExploreOptions};
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
/// // Any positive throughput: the paper's ⟨4, 2⟩, size 6.
/// let r = min_storage_for_throughput(&g, Rational::new(1, 100), &ExploreOptions::default())?;
/// assert_eq!(r.point.size, 6);
/// // Throughput at least 1/6 needs size 8.
/// let r = min_storage_for_throughput(&g, Rational::new(1, 6), &ExploreOptions::default())?;
/// assert_eq!(r.point.size, 8);
/// # Ok(())
/// # }
/// ```
pub fn min_storage_for_throughput<M: DataflowSemantics + Sync>(
    model: &M,
    constraint: Rational,
    options: &ExploreOptions,
) -> Result<ConstraintResult, ExploreError> {
    assert!(
        constraint > Rational::ZERO,
        "throughput constraint must be positive"
    );
    let observed = options
        .observed
        .unwrap_or_else(|| model.default_observed_actor());
    let mut space = DistributionSpace::for_model(model);
    if let Some(caps) = &options.max_channel_caps {
        space = space.with_max_capacities(caps);
    }
    let eval = EvalPipeline::new(model, observed, options)?;
    let pruned_counter = buffy_telemetry::active().map(|r| {
        r.counter(
            &labeled(
                names::SIZES_PRUNED,
                "phase",
                SearchPhase::ConstraintSearch.name(),
            ),
            "Distribution sizes settled by interval collapse without any evaluation.",
        )
    });
    eval.emit(Event::Phase(SearchPhase::Bounds));
    let (ub_dist, thr_max) = eval.upper_bound()?;
    if constraint > thr_max {
        return Err(ExploreError::InfeasibleThroughput {
            requested: constraint.to_string(),
            maximal: thr_max.to_string(),
        });
    }
    eval.emit(Event::Phase(SearchPhase::ConstraintSearch));

    // Decide "size S meets the constraint" with early exit; remember the
    // best witness per feasible size. Candidates the prune oracle proves
    // strictly below the constraint are skipped without simulation —
    // infeasibility-only pruning, so the first feasible candidate (and
    // with it the witness) is exactly the one the unpruned search finds:
    // a sound proof of `t < constraint` can never exist for it.
    let decide = |size: u64| -> Result<Option<ParetoPoint>, ExploreError> {
        let mut hit: Option<ParetoPoint> = None;
        let mut error: Option<ExploreError> = None;
        space.for_each_of_size(size, |d| {
            if eval.prunes_below(&d, &constraint) {
                return ControlFlow::Continue(());
            }
            match eval.eval(&d) {
                Ok(t) if t >= constraint => {
                    hit = Some(eval.point(d, t));
                    ControlFlow::Break(())
                }
                Ok(_) => ControlFlow::Continue(()),
                Err(e) => {
                    error = Some(e);
                    ControlFlow::Break(())
                }
            }
        });
        match error {
            Some(e) => Err(e),
            None => Ok(hit),
        }
    };

    // Binary search the smallest feasible size in [lb, ub]. Without
    // channel constraints, ub is feasible by construction (it realizes the
    // maximal throughput ≥ constraint); with constraints, feasibility of
    // the largest admissible size must be established first.
    let lo = space.min_size();
    let mut best = match (decide(lo)?, &options.max_channel_caps) {
        (Some(p), _) => {
            eval.emit(Event::Accepted(&p));
            return Ok(ConstraintResult {
                point: p,
                completeness: Completeness::exact(),
                failures: eval.take_failures(),
                stats: eval.stats(),
            });
        }
        (None, None) => eval.point(ub_dist, thr_max),
        (None, Some(caps)) => {
            let top = ub_dist.size().max(lo).min(caps.size());
            match decide(top)? {
                Some(p) => p,
                None => {
                    return Err(ExploreError::InfeasibleThroughput {
                        requested: constraint.to_string(),
                        maximal: format!("(within the channel capacity constraints {caps})"),
                    })
                }
            }
        }
    };
    // Binary search the smallest feasible size strictly between the two
    // established bounds, probing realizable grid sizes only: a size in a
    // hole of the capacity grid holds no distributions, so `decide` would
    // report it infeasible and the search would wrongly discard every
    // smaller size with it.
    let sizes = space.sizes_in(lo + 1, best.size.saturating_sub(1));
    let (mut lo_i, mut hi_i) = (0, sizes.len());
    // Invariant: every realizable size below sizes[lo_i] is infeasible;
    // everything from sizes[hi_i] up is covered by `best`. With a feasible
    // witness in hand, cancellation degrades the run: `best` is returned
    // as-is, the still-undecided sizes are reported as skipped.
    let mut truncated: Option<CancelReason> = None;
    while lo_i < hi_i {
        let mid = lo_i + (hi_i - lo_i) / 2;
        match salvage(decide(sizes[mid]), &mut truncated)? {
            None => break,
            Some(Some(p)) => {
                best = p;
                // Each halving settles the discarded half without ever
                // enumerating it — that is the count worth observing.
                if let Some(c) = &pruned_counter {
                    c.add((hi_i - mid - 1) as u64);
                }
                hi_i = mid;
            }
            Some(None) => {
                if let Some(c) = &pruned_counter {
                    c.add((mid - lo_i) as u64);
                }
                lo_i = mid + 1;
            }
        }
    }
    let completeness = match truncated {
        None => Completeness::exact(),
        Some(reason) => {
            let mut total: u64 = 0;
            for &s in &sizes[lo_i..hi_i] {
                total = total.saturating_add(space.count_of_size_capped(s, SKIP_COUNT_CAP));
            }
            Completeness::truncated(reason, total)
        }
    };
    eval.emit(Event::Accepted(&best));
    Ok(ConstraintResult {
        point: best,
        completeness,
        failures: eval.take_failures(),
        stats: eval.stats(),
    })
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

    #[test]
    fn all_paper_levels() {
        let g = example();
        let opts = ExploreOptions::default();
        for (thr, size) in [
            (Rational::new(1, 7), 6),
            (Rational::new(1, 6), 8),
            (Rational::new(1, 5), 9),
            (Rational::new(1, 4), 10),
        ] {
            let p = min_storage_for_throughput(&g, thr, &opts).unwrap().point;
            assert_eq!(p.size, size, "constraint {thr}");
            assert!(p.throughput >= thr);
        }
        // A constraint strictly between two levels needs the higher level.
        let p = min_storage_for_throughput(&g, Rational::new(3, 20), &opts)
            .unwrap()
            .point;
        assert_eq!(p.size, 8);
    }

    #[test]
    fn pruning_preserves_the_witness_and_skips_work() {
        let g = example();
        for (thr, size) in [
            (Rational::new(1, 6), 8),
            (Rational::new(1, 4), 10),
            (Rational::new(3, 20), 8),
        ] {
            let pruned = min_storage_for_throughput(&g, thr, &ExploreOptions::default()).unwrap();
            let unpruned = min_storage_for_throughput(
                &g,
                thr,
                &ExploreOptions {
                    prune: false,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            // Identical witness point — same distribution, same exact
            // throughput — with provably less work.
            assert_eq!(pruned.point, unpruned.point, "constraint {thr}");
            assert_eq!(pruned.point.size, size);
            assert_eq!(unpruned.stats.dominance_prunes, 0);
            assert!(
                pruned.stats.dominance_prunes > 0,
                "constraint {thr}: oracle never fired: {:?}",
                pruned.stats
            );
            assert!(
                pruned.stats.evaluations < unpruned.stats.evaluations,
                "constraint {thr}: {} vs {}",
                pruned.stats.evaluations,
                unpruned.stats.evaluations
            );
        }
    }

    #[test]
    fn infeasible_constraint_rejected() {
        let g = example();
        let err = min_storage_for_throughput(&g, Rational::new(1, 2), &ExploreOptions::default())
            .unwrap_err();
        assert!(matches!(err, ExploreError::InfeasibleThroughput { .. }));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_constraint_panics() {
        let g = example();
        let _ = min_storage_for_throughput(&g, Rational::ZERO, &ExploreOptions::default());
    }

    #[test]
    fn observed_variant_reports_stats() {
        let g = example();
        let r = min_storage_for_throughput(&g, Rational::new(1, 6), &ExploreOptions::default())
            .unwrap();
        assert_eq!(r.point.size, 8);
        assert!(r.stats.evaluations > 0);
        assert!(r.stats.max_states > 0);
        assert!(r.completeness.exact);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn cancellation_degrades_to_a_sound_witness_or_a_clean_error() {
        use buffy_analysis::{CancelReason, CancelToken};
        use std::sync::Arc;

        let g = example();
        let constraint = Rational::new(1, 6);
        let exact = min_storage_for_throughput(&g, constraint, &ExploreOptions::default()).unwrap();
        let mut saw_partial = false;
        for budget in 1..exact.stats.evaluations {
            let opts = ExploreOptions {
                cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                ..ExploreOptions::default()
            };
            match min_storage_for_throughput(&g, constraint, &opts) {
                // No feasible witness yet: a clean error, not a bogus point.
                Err(ExploreError::Cancelled { reason }) => {
                    assert_eq!(reason, CancelReason::EvaluationBudget);
                }
                Err(e) => panic!("budget {budget}: unexpected error {e}"),
                Ok(r) => {
                    // Any returned witness meets the constraint; truncated
                    // runs may return a larger-than-minimal size.
                    assert!(r.point.throughput >= constraint, "budget {budget}");
                    if !r.completeness.exact {
                        saw_partial = true;
                        assert!(r.point.size >= exact.point.size, "budget {budget}");
                        assert_eq!(
                            r.completeness.truncated_by,
                            Some(CancelReason::EvaluationBudget)
                        );
                    } else {
                        assert_eq!(r.point.size, exact.point.size, "budget {budget}");
                    }
                }
            }
        }
        assert!(saw_partial, "no budget produced a truncated witness");
    }

    #[test]
    fn witness_meets_constraint_by_simulation() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let p = min_storage_for_throughput(&g, Rational::new(1, 5), &ExploreOptions::default())
            .unwrap()
            .point;
        let r = buffy_analysis::throughput(&g, &p.distribution, c).unwrap();
        assert_eq!(r.throughput, p.throughput);
        assert!(r.throughput >= Rational::new(1, 5));
    }
}
