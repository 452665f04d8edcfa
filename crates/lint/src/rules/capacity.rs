//! B004: channel capacity below the §7 lower bound — under the supplied
//! storage distribution the channel can never sustain repeated firings,
//! so the execution is guaranteed to deadlock.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::channels;
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;

/// Flags channels whose supplied capacity is below their lower bound.
///
/// Only active when the [`LintContext`] carries a distribution.
pub struct CapacityBelowBound;

impl Rule for CapacityBelowBound {
    fn code(&self) -> &'static str {
        "B004"
    }

    fn name(&self) -> &'static str {
        "capacity-below-bound"
    }

    fn summary(&self) -> &'static str {
        "a supplied channel capacity is below the deadlock-free lower bound"
    }

    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic> {
        let Some(dist) = &ctx.distribution else {
            return Vec::new();
        };
        if dist.len() != model.num_channels() {
            return vec![Diagnostic::error(
                self.code(),
                Subject::Graph,
                format!(
                    "the distribution covers {} channel(s) but the graph has {}",
                    dist.len(),
                    model.num_channels(),
                ),
            )
            .with_hint("supply one capacity per channel, in channel order")];
        }
        let mut out = Vec::new();
        for c in channels(model) {
            let bound = model.channel_lower_bound(c);
            let cap = dist.get(c);
            if cap < bound {
                out.push(
                    Diagnostic::error(
                        self.code(),
                        Subject::Channel(model.channel_name(c).to_string()),
                        format!(
                            "capacity {cap} is below the lower bound {bound}; \
                             the channel can never sustain repeated firings",
                        ),
                    )
                    .with_hint(format!("raise the capacity to at least {bound}")),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::{SdfGraph, StorageDistribution};

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
    fn inactive_without_distribution() {
        let g = example();
        assert!(CapacityBelowBound
            .check(&g, &LintContext::default())
            .is_empty());
    }

    #[test]
    fn flags_capacities_below_bmlb() {
        // BMLB of alpha (2:3) is 4; of beta (1:2) is 2.
        let g = example();
        let ctx = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![3, 2])),
            ..LintContext::default()
        };
        let d = CapacityBelowBound.check(&g, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].subject, Subject::Channel("alpha".into()));
        assert!(d[0]
            .message
            .contains("capacity 3 is below the lower bound 4"));
    }

    #[test]
    fn passes_at_the_bound() {
        let g = example();
        let ctx = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![4, 2])),
            ..LintContext::default()
        };
        assert!(CapacityBelowBound.check(&g, &ctx).is_empty());
    }

    #[test]
    fn flags_arity_mismatch() {
        let g = example();
        let ctx = LintContext {
            distribution: Some(StorageDistribution::from_capacities(vec![4])),
            ..LintContext::default()
        };
        let d = CapacityBelowBound.check(&g, &ctx);
        assert_eq!(d.len(), 1);
        assert!(d[0]
            .message
            .contains("covers 1 channel(s) but the graph has 2"));
    }
}
