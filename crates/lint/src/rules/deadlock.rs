//! B003: token-free cycle — a directed cycle whose channels all carry
//! zero initial tokens can never fire any of its actors, so the graph is
//! guaranteed to deadlock regardless of the storage distribution.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::{edges, find_cycle};
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;

/// Flags directed cycles with no initial tokens anywhere on them.
pub struct TokenFreeCycle;

impl Rule for TokenFreeCycle {
    fn code(&self) -> &'static str {
        "B003"
    }

    fn name(&self) -> &'static str {
        "token-free-cycle"
    }

    fn summary(&self) -> &'static str {
        "a cycle without initial tokens deadlocks every execution"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let token_free = edges(model, |c| model.initial_tokens(c) == 0);
        let Some(cycle) = find_cycle(model.num_actors(), &token_free) else {
            return Vec::new();
        };
        let mut path: Vec<&str> = cycle.iter().map(|&a| model.actor_name(a)).collect();
        path.push(path[0]);
        vec![Diagnostic::error(
            self.code(),
            Subject::Graph,
            format!(
                "the cycle {} carries no initial tokens; none of its actors \
                 can ever fire — the graph deadlocks for every storage \
                 distribution",
                path.join(" -> "),
            ),
        )
        .with_hint("place at least one initial token on some channel of the cycle")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn flags_token_free_two_cycle() {
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel("r", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let d = TokenFreeCycle.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B003");
        assert!(d[0].message.contains("x -> y -> x") || d[0].message.contains("y -> x -> y"));
    }

    #[test]
    fn passes_cycle_with_tokens() {
        let mut b = SdfGraph::builder("live");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert!(TokenFreeCycle.check(&g, &LintContext::default()).is_empty());
    }

    #[test]
    fn flags_token_free_self_loop() {
        let mut b = SdfGraph::builder("sl");
        let x = b.actor("x", 1);
        b.channel_with_tokens("s", x, 1, x, 1, 0).unwrap();
        let g = b.build().unwrap();
        let d = TokenFreeCycle.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("x -> x"));
    }

    #[test]
    fn passes_acyclic_graph() {
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        assert!(TokenFreeCycle.check(&g, &LintContext::default()).is_empty());
    }
}
