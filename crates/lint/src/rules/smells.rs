//! B008: modelling smells — constructs that are legal but almost always
//! mistakes: self-loops that starve partway through a phase cycle, and
//! cycles of zero-execution-time actors (which force the engines'
//! zero-time livelock guards to kick in).

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::{channels, edges, find_cycle};
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;
use buffy_graph::ActorId;

/// Flags starved self-loops and zero-execution-time cycles.
pub struct ModellingSmells;

impl Rule for ModellingSmells {
    fn code(&self) -> &'static str {
        "B008"
    }

    fn name(&self) -> &'static str {
        "modelling-smell"
    }

    fn summary(&self) -> &'static str {
        "legal but suspicious constructs: starved self-loops, zero-time cycles"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // Self-loops that stall partway through a phase cycle: tokens on a
        // self-loop change only through the actor itself, so simulating
        // one phase cycle is exact (capacity aside).
        for c in channels(model) {
            let actor = model.channel_source(c);
            let initial = model.initial_tokens(c);
            if actor != model.channel_target(c) || initial == 0 {
                // Token-free self-loops are B003's finding.
                continue;
            }
            let mut tokens = initial as i128;
            for k in 0..model.num_phases(actor) {
                let (p, co) = (model.production(c, k), model.consumption(c, k));
                if tokens < co as i128 {
                    out.push(
                        Diagnostic::warning(
                            self.code(),
                            Subject::Channel(model.channel_name(c).to_string()),
                            format!(
                                "the self-loop starves at firing {} of '{}': \
                                 {} token(s) available but {} needed — the \
                                 actor stalls forever",
                                k + 1,
                                model.actor_name(actor),
                                tokens,
                                co,
                            ),
                        )
                        .with_hint(format!(
                            "give the self-loop at least {} initial token(s)",
                            initial as i128 + co as i128 - tokens,
                        )),
                    );
                    break;
                }
                tokens = tokens - co as i128 + p as i128;
            }
        }

        // Cycles among actors whose every firing takes zero time: their
        // self-timed execution never advances the clock and trips the
        // engines' livelock caps.
        let zero: Vec<bool> = (0..model.num_actors())
            .map(ActorId::new)
            .map(|a| (0..model.num_phases(a)).all(|k| model.execution_time(a, k) == 0))
            .collect();
        let zero_time = edges(model, |c| {
            zero[model.channel_source(c).index()] && zero[model.channel_target(c).index()]
        });
        if let Some(cycle) = find_cycle(model.num_actors(), &zero_time) {
            let mut path: Vec<&str> = cycle.iter().map(|&a| model.actor_name(a)).collect();
            path.push(path[0]);
            out.push(
                Diagnostic::warning(
                    self.code(),
                    Subject::Graph,
                    format!(
                        "the cycle {} consists of zero-execution-time actors; \
                         its firings never advance the clock and the \
                         simulation may hit the zero-time livelock guard",
                        path.join(" -> "),
                    ),
                )
                .with_hint("give at least one actor on the cycle a positive execution time"),
            );
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn flags_starved_self_loop() {
        let mut b = SdfGraph::builder("sl");
        let x = b.actor("x", 1);
        b.channel_with_tokens("s", x, 2, x, 2, 1).unwrap();
        let g = b.build().unwrap();
        let d = ModellingSmells.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B008");
        assert!(d[0].message.contains("starves"));
        assert!(d[0].hint.as_deref().unwrap().contains("2 initial token(s)"));
    }

    #[test]
    fn passes_well_fed_self_loop() {
        let mut b = SdfGraph::builder("sl");
        let x = b.actor("x", 1);
        b.channel_with_tokens("s", x, 2, x, 2, 2).unwrap();
        let g = b.build().unwrap();
        assert!(ModellingSmells
            .check(&g, &LintContext::default())
            .is_empty());
    }

    #[test]
    fn flags_zero_time_cycle() {
        let mut b = SdfGraph::builder("zt");
        let x = b.actor("x", 0);
        let y = b.actor("y", 0);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        let d = ModellingSmells.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("zero-execution-time"));
    }

    #[test]
    fn mixed_cycle_passes() {
        // One actor on the cycle has positive time: no smell.
        let mut b = SdfGraph::builder("mixed");
        let x = b.actor("x", 0);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert!(ModellingSmells
            .check(&g, &LintContext::default())
            .is_empty());
    }

    #[test]
    fn zero_time_chain_without_cycle_passes() {
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 0);
        let y = b.actor("y", 0);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        assert!(ModellingSmells
            .check(&g, &LintContext::default())
            .is_empty());
    }
}
