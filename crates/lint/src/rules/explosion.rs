//! B009: distribution-space explosion — the exploration grid is so large
//! that an unbounded `explore` run may effectively never finish. The
//! finding recommends the resilience options (`--timeout`, `--max-evals`,
//! `--checkpoint`) so a long run degrades to a sound partial front
//! instead of being killed.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::channels;
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;

/// Distribution spaces larger than this (candidate distributions in the
/// §8 exploration box, conservatively estimated) are flagged unless the
/// context overrides the threshold.
pub const DEFAULT_SPACE_THRESHOLD: u64 = 100_000;

/// Conservative estimate of the number of storage distributions in the
/// exploration box: per channel, capacities range from the §7 lower bound
/// to a cheap upper-bound heuristic — lower bound plus the tokens the
/// producer emits over one full graph iteration (the capacity at which
/// the channel can never be the bottleneck) — in steps of the channel's
/// quantum. Saturates at `u128::MAX`. Inconsistent graphs (no repetition
/// vector) estimate as 1; B001 owns that finding.
pub(crate) fn estimate_space(model: &dyn DataflowSemantics) -> u128 {
    let Ok(q) = model.repetition_cycles() else {
        return 1;
    };
    let mut total: u128 = 1;
    for c in channels(model) {
        let per_iteration = model
            .cycle_production(c)
            .saturating_mul(q[model.channel_source(c).index()]);
        let step = model.channel_step(c).max(1);
        let choices = u128::from(per_iteration / step) + 1;
        total = total.saturating_mul(choices);
    }
    total
}

/// Flags graphs whose exploration grid exceeds the configured threshold.
pub struct SpaceExplosion;

impl Rule for SpaceExplosion {
    fn code(&self) -> &'static str {
        "B009"
    }

    fn name(&self) -> &'static str {
        "space-explosion"
    }

    fn summary(&self) -> &'static str {
        "the storage distribution space is large enough that unbounded exploration may not finish"
    }

    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic> {
        let threshold = ctx.space_threshold.unwrap_or(DEFAULT_SPACE_THRESHOLD);
        let estimate = estimate_space(model);
        if estimate <= u128::from(threshold) {
            return Vec::new();
        }
        let shown = if estimate == u128::MAX {
            "more than 10^38".to_string()
        } else {
            format!("about {estimate}")
        };
        vec![Diagnostic::warning(
            self.code(),
            Subject::Graph,
            format!(
                "the exploration box holds {shown} candidate storage \
                 distributions (threshold {threshold}); an unbounded \
                 exploration of this graph may effectively never finish",
            ),
        )
        .with_hint(
            "bound the run with `explore --timeout SECS` or `--max-evals N` (the result \
             degrades to a sound partial front) and add `--checkpoint FILE` so progress \
             survives interruption and can be resumed with `--resume FILE`",
        )]
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

    #[test]
    fn small_graphs_pass_at_the_default_threshold() {
        let g = example();
        assert!(SpaceExplosion.check(&g, &LintContext::default()).is_empty());
    }

    #[test]
    fn a_tight_threshold_flags_the_same_graph() {
        let g = example();
        let ctx = LintContext {
            space_threshold: Some(1),
            ..LintContext::default()
        };
        let d = SpaceExplosion.check(&g, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B009");
        assert!(
            d[0].message.contains("candidate storage"),
            "{}",
            d[0].message
        );
        assert!(
            d[0].hint.as_deref().unwrap().contains("--checkpoint"),
            "{:?}",
            d[0].hint
        );
    }

    #[test]
    fn estimate_multiplies_per_channel_choices() {
        // example: q = [3, 2, 1]. alpha carries 2·3 = 6 tokens per
        // iteration at step 1 → 7 choices; beta carries 1·2 = 2 → 3
        // choices. The estimate is their product, far below the default.
        let g = example();
        let e = estimate_space(&g);
        assert!(e >= 2, "{e}");
        assert!(e < 100, "{e}");
    }

    #[test]
    fn wide_rates_push_the_estimate_over_the_default() {
        // A deliberately wide graph: co-prime rates of a few hundred give
        // each channel hundreds of capacity choices.
        let mut b = SdfGraph::builder("wide");
        let mut prev = b.actor("a0", 1);
        for i in 1..4 {
            let next = b.actor(format!("a{i}"), 1);
            b.channel(format!("c{i}"), prev, 211, next, 199).unwrap();
            prev = next;
        }
        let g = b.build().unwrap();
        let d = SpaceExplosion.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1, "estimate: {}", estimate_space(&g));
    }
}
