//! B005: infeasible throughput constraint — the requested throughput
//! exceeds the maximal achievable throughput (the MCM upper bound, paper
//! §9), so no storage distribution can satisfy it.

use crate::diagnostic::{Diagnostic, Subject};
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::{maximal_throughput, DataflowSemantics};

/// Flags throughput constraints above the graph's maximal throughput.
///
/// Only active when the [`LintContext`] carries a constraint; silent when
/// the maximal-throughput analysis itself fails (those causes are flagged
/// by B001/B003).
pub struct InfeasibleConstraint;

impl Rule for InfeasibleConstraint {
    fn code(&self) -> &'static str {
        "B005"
    }

    fn name(&self) -> &'static str {
        "infeasible-throughput-constraint"
    }

    fn summary(&self) -> &'static str {
        "the required throughput exceeds the maximal achievable throughput"
    }

    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic> {
        let Some(required) = ctx.throughput_constraint else {
            return Vec::new();
        };
        let observed = ctx
            .observed
            .unwrap_or_else(|| model.default_observed_actor());
        let Ok(bound) = maximal_throughput(model, observed) else {
            return Vec::new();
        };
        if required <= bound {
            return Vec::new();
        }
        vec![Diagnostic::error(
            self.code(),
            Subject::Actor(model.actor_name(observed).to_string()),
            format!(
                "the required throughput {required} exceeds the maximal \
                 achievable throughput {bound}; no storage distribution can \
                 satisfy the constraint",
            ),
        )
        .with_hint(format!(
            "relax the constraint to at most {bound}, or shorten execution \
             times on the critical cycle",
        ))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::{Rational, SdfGraph};

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
    fn inactive_without_constraint() {
        let g = example();
        assert!(InfeasibleConstraint
            .check(&g, &LintContext::default())
            .is_empty());
    }

    #[test]
    fn flags_constraint_above_maximum() {
        // The example's maximal throughput at actor c is 1/4.
        let g = example();
        let ctx = LintContext {
            throughput_constraint: Some(Rational::new(1, 3)),
            ..LintContext::default()
        };
        let d = InfeasibleConstraint.check(&g, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B005");
        assert_eq!(d[0].subject, Subject::Actor("c".into()));
        assert!(d[0].message.contains("1/3"));
        assert!(d[0].message.contains("1/4"));
    }

    #[test]
    fn passes_feasible_constraint() {
        let g = example();
        let ctx = LintContext {
            throughput_constraint: Some(Rational::new(1, 4)),
            ..LintContext::default()
        };
        assert!(InfeasibleConstraint.check(&g, &ctx).is_empty());
    }

    #[test]
    fn silent_when_analysis_fails() {
        // Inconsistent graph: B001 reports it; B005 stays silent.
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 2, y, 1).unwrap();
        b.channel("bwd", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let ctx = LintContext {
            throughput_constraint: Some(Rational::ONE),
            ..LintContext::default()
        };
        assert!(InfeasibleConstraint.check(&g, &ctx).is_empty());
    }
}
