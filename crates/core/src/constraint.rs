//! Minimal storage under a throughput constraint.
//!
//! The paper's headline question: *given a throughput constraint, what is
//! the smallest storage distribution under which the graph can be executed
//! with a schedule meeting it?* The dependency-guided search answers it
//! (`dependency.rs`): its frontier pops candidates in nondecreasing size,
//! so its first point that meets the constraint is a smallest one among
//! the distributions it reaches, and it stops there. That these include a
//! smallest distribution overall is tested, on both galleries and on
//! seeded random graphs with mixed channel steps, not proven.

use crate::dependency::guided_search;
use crate::error::ExploreError;
use crate::explore::ExploreOptions;
use crate::pareto::ParetoPoint;
use crate::runtime::{Completeness, EvaluationFailure, ExplorationStats};
use buffy_analysis::DataflowSemantics;
use buffy_graph::Rational;

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
/// search's statistics and completeness. The search honours `max_size` and
/// `max_channel_caps`; the throughput window and `quantum` do not apply.
///
/// When a cancel token trips before the constraint is met, the witness is
/// the bounds phase's upper-bound distribution, with a truncated
/// completeness marker (sound, possibly not minimal), if that phase probed
/// it (no `max_size`) and it fits the caps; otherwise the search yields
/// [`ExploreError::Cancelled`].
///
/// # Errors
///
/// - [`ExploreError::InfeasibleThroughput`] when the constraint exceeds
///   the maximal achievable throughput of the graph, or no distribution
///   within the caps reaches it;
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
    let caps = options.max_channel_caps.as_ref();
    let within: Vec<String> = [
        caps.map(|c| format!("the channel capacity constraints {c}")),
        options.max_size.map(|n| format!("the size cap {n}")),
    ]
    .into_iter()
    .flatten()
    .collect();
    let out_of_reach = || ExploreError::InfeasibleThroughput {
        requested: constraint.to_string(),
        maximal: format!("(within {})", within.join(" and ")),
    };
    let (run, bounds_point) = match guided_search(model, options, Some(constraint)) {
        // Only a cap leaves no distribution live.
        Err(ExploreError::NoPositiveThroughput) => return Err(out_of_reach()),
        other => other?,
    };
    let reached = run
        .pareto
        .points()
        .iter()
        .find(|p| p.throughput >= constraint)
        .cloned();
    let point = match (reached.or(bounds_point), run.completeness.truncated_by) {
        (Some(point), _) => point,
        (None, Some(reason)) => return Err(ExploreError::Cancelled { reason }),
        (None, None) => return Err(out_of_reach()),
    };
    Ok(ConstraintResult {
        point,
        completeness: run.completeness,
        failures: run.failures,
        stats: run.stats,
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
        // A budget of the run's own count leaves it exact.
        let opts = ExploreOptions {
            cancel: Some(Arc::new(
                CancelToken::new().with_eval_budget(exact.stats.evaluations),
            )),
            ..ExploreOptions::default()
        };
        let r = min_storage_for_throughput(&g, constraint, &opts).unwrap();
        assert!(r.completeness.exact);
        assert_eq!(r.point, exact.point);
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
