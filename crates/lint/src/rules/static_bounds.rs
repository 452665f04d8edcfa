//! B010/B011: static-certificate checks against a throughput constraint.
//!
//! Both rules reuse the capacity-aware cycle-ratio certificate
//! ([`buffy_analysis::StaticBounds`]): a sound per-distribution upper
//! bound on the exact throughput, computed without any state-space
//! simulation. B010 proves a supplied distribution infeasible (and names
//! the channel culprits); B011 detects the opposite degenerate case — the
//! constraint already holds at the §7 lower-bound distribution, so a
//! constrained exploration is trivially solvable.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::channels;
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::{throughput, DataflowSemantics, StaticBounds};
use buffy_graph::{ActorId, StorageDistribution};

/// The static capacity-aware cycle-ratio bounds of the model, when the
/// static pass can certify it (consistent and connected).
fn static_bounds(model: &dyn DataflowSemantics, observed: ActorId) -> Option<StaticBounds> {
    let bounds = StaticBounds::new(model, observed).ok()?;
    bounds.is_usable().then_some(bounds)
}

/// Flags distributions whose static throughput certificate falls below
/// the requested constraint — infeasibility proven without simulation.
///
/// Only active when the [`LintContext`] carries both a distribution and a
/// throughput constraint. Per-channel culprits use the relaxed
/// certificate that keeps only that channel's capacity (every other
/// channel unbounded): a relaxation is still a sound upper bound, so a
/// channel whose relaxed bound already misses the constraint saturates
/// the throughput on its own, whatever the other capacities are. When no
/// single channel is a culprit but the combined certificate still misses
/// the constraint, one graph-level diagnostic reports the distribution
/// as a whole.
pub struct StaticSaturation;

impl Rule for StaticSaturation {
    fn code(&self) -> &'static str {
        "B010"
    }

    fn name(&self) -> &'static str {
        "statically-saturated-capacity"
    }

    fn summary(&self) -> &'static str {
        "a channel capacity statically caps the throughput below the requested constraint"
    }

    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic> {
        let (Some(dist), Some(required)) = (&ctx.distribution, ctx.throughput_constraint) else {
            return Vec::new();
        };
        if dist.len() != model.num_channels() {
            return Vec::new(); // arity mismatch is B004's finding
        }
        let observed = ctx
            .observed
            .unwrap_or_else(|| model.default_observed_actor());
        let Some(bounds) = static_bounds(model, observed) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for c in channels(model) {
            let cap = dist.get(c);
            let Some(cert) = bounds.channel_bound(c, cap) else {
                continue;
            };
            if cert.bound >= required {
                continue;
            }
            let step = model.channel_step(c);
            let name = model.channel_name(c);
            out.push(
                Diagnostic::error(
                    self.code(),
                    Subject::Channel(name.to_string()),
                    format!(
                        "capacity {cap} statically caps the throughput of \
                         '{}' at {}, below the required {required} — \
                         infeasible whatever the other capacities are",
                        model.actor_name(observed),
                        cert.bound,
                    ),
                )
                .with_hint(format!(
                    "raise the capacity of '{}' (in steps of {step}) or \
                     relax the constraint to at most {}",
                    name, cert.bound,
                )),
            );
        }
        if out.is_empty() {
            if let Some(cert) = bounds.certificate(dist) {
                if cert.bound < required {
                    out.push(
                        Diagnostic::error(
                            self.code(),
                            Subject::Graph,
                            format!(
                                "the distribution's static certificate caps the \
                                 throughput of '{}' at {}, below the required \
                                 {required}",
                                model.actor_name(observed),
                                cert.bound,
                            ),
                        )
                        .with_hint(
                            "no single channel is the culprit; grow the \
                             capacities jointly (`buffy bounds` shows the \
                             per-channel certificates)",
                        ),
                    );
                }
            }
        }
        out
    }
}

/// Warns when the throughput constraint already holds at the §7
/// lower-bound distribution — the constrained exploration is trivially
/// solvable and every admissible distribution satisfies the constraint.
///
/// Only active when the [`LintContext`] carries a throughput constraint.
/// The static certificate screens first (when even the sound upper bound
/// at the lower-bound distribution misses the constraint, real search is
/// needed and the rule stays silent without simulating); one exact
/// analysis then confirms the constraint is genuinely met, so the
/// warning is never a false positive.
pub struct TriviallySatisfiable;

impl Rule for TriviallySatisfiable {
    fn code(&self) -> &'static str {
        "B011"
    }

    fn name(&self) -> &'static str {
        "trivially-satisfiable-constraint"
    }

    fn summary(&self) -> &'static str {
        "the throughput constraint already holds at the lower-bound distribution"
    }

    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic> {
        let Some(required) = ctx.throughput_constraint else {
            return Vec::new();
        };
        if required.is_zero() {
            return Vec::new();
        }
        let observed = ctx
            .observed
            .unwrap_or_else(|| model.default_observed_actor());
        let Some(bounds) = static_bounds(model, observed) else {
            return Vec::new();
        };
        let lb: StorageDistribution = channels(model)
            .map(|c| model.channel_lower_bound(c))
            .collect();
        // Static screen: a certificate below the constraint proves the
        // minimal distribution infeasible, so the search is not trivial.
        match bounds.certificate(&lb) {
            Some(cert) if cert.bound >= required => {}
            _ => return Vec::new(),
        }
        // Exact confirmation (one analysis; the screen above keeps this
        // off the common path where real exploration is needed).
        let Ok(exact) = throughput(model, &lb, observed).map(|r| r.throughput) else {
            return Vec::new();
        };
        if exact < required {
            return Vec::new();
        }
        vec![Diagnostic::warning(
            self.code(),
            Subject::Actor(model.actor_name(observed).to_string()),
            format!(
                "the required throughput {required} already holds at the \
                 lower-bound distribution {lb} (exact throughput {exact})",
            ),
        )
        .with_hint(
            "the constrained exploration is trivially solvable: by \
             monotonicity every admissible distribution satisfies the \
             constraint",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::{Rational, SdfGraph, StorageDistribution};

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
    fn b010_inactive_without_inputs() {
        let g = example();
        let m: &dyn DataflowSemantics = &g;
        assert!(StaticSaturation
            .check(m, &LintContext::default())
            .is_empty());
        // Distribution alone, constraint alone: still inactive.
        let only_dist = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![4, 2])),
            ..LintContext::default()
        };
        assert!(StaticSaturation.check(m, &only_dist).is_empty());
        let only_constraint = LintContext {
            throughput_constraint: Some(Rational::new(1, 4)),
            ..LintContext::default()
        };
        assert!(StaticSaturation.check(m, &only_constraint).is_empty());
    }

    #[test]
    fn b010_names_the_culprit_channel() {
        // ⟨4, 2⟩ runs at exactly 1/7; requiring 1/4 is statically
        // impossible, and the relaxed per-channel bounds (alpha alone at
        // capacity 4 caps it at 1/7, beta alone at 2 caps it at 1/6)
        // pin both channels as culprits.
        let g = example();
        let ctx = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![4, 2])),
            throughput_constraint: Some(Rational::new(1, 4)),
            ..LintContext::default()
        };
        let d = StaticSaturation.check(&g, &ctx);
        assert!(!d.is_empty());
        assert!(d.iter().all(|x| x.code == "B010"));
        assert!(d.iter().any(|x| matches!(&x.subject, Subject::Channel(_))));
    }

    #[test]
    fn b010_passes_a_feasible_distribution() {
        // ⟨7, 3⟩ achieves the maximal throughput 1/4.
        let g = example();
        let ctx = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![7, 3])),
            throughput_constraint: Some(Rational::new(1, 4)),
            ..LintContext::default()
        };
        assert!(StaticSaturation.check(&g, &ctx).is_empty());
    }

    #[test]
    fn b011_fires_when_the_lower_bound_meets_the_constraint() {
        // The lower-bound distribution ⟨4, 2⟩ runs at exactly 1/7.
        let g = example();
        let ctx = LintContext {
            throughput_constraint: Some(Rational::new(1, 7)),
            ..LintContext::default()
        };
        let d = TriviallySatisfiable.check(&g, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B011");
        assert!(d[0].message.contains("1/7"));
    }

    #[test]
    fn b011_silent_when_search_is_needed() {
        let g = example();
        let ctx = LintContext {
            throughput_constraint: Some(Rational::new(1, 6)),
            ..LintContext::default()
        };
        assert!(TriviallySatisfiable.check(&g, &ctx).is_empty());
        // And without a constraint at all.
        assert!(TriviallySatisfiable
            .check(&g, &LintContext::default())
            .is_empty());
    }
}
