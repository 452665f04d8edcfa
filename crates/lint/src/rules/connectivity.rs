//! B002: disconnected graph — actors unreachable from the rest of the
//! dataflow usually indicate a modelling mistake, and per-component
//! throughputs are unrelated.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::unreachable_from_first;
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;

/// Flags graphs that are not weakly connected.
pub struct Disconnected;

impl Rule for Disconnected {
    fn code(&self) -> &'static str {
        "B002"
    }

    fn name(&self) -> &'static str {
        "disconnected-graph"
    }

    fn summary(&self) -> &'static str {
        "some actors are not connected to the rest of the dataflow"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let unreachable = unreachable_from_first(model);
        if unreachable.is_empty() {
            return Vec::new();
        }
        let names: Vec<&str> = unreachable
            .iter()
            .take(5)
            .map(|&a| model.actor_name(a))
            .collect();
        let suffix = if unreachable.len() > names.len() {
            format!(" (and {} more)", unreachable.len() - names.len())
        } else {
            String::new()
        };
        vec![Diagnostic::error(
            self.code(),
            Subject::Graph,
            format!(
                "the graph is not connected: actor(s) {}{} share no channel \
                 with the component of '{}'",
                names
                    .iter()
                    .map(|n| format!("'{n}'"))
                    .collect::<Vec<_>>()
                    .join(", "),
                suffix,
                model.actor_name(buffy_graph::ActorId::new(0)),
            ),
        )
        .with_hint(
            "connect every actor with at least one channel, or analyse the \
             components as separate graphs",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn flags_isolated_actor() {
        let mut b = SdfGraph::builder("islands");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.actor("z", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        let d = Disconnected.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B002");
        assert!(d[0].message.contains("'z'"));
    }

    #[test]
    fn passes_connected_graph() {
        let mut b = SdfGraph::builder("ok");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        assert!(Disconnected.check(&g, &LintContext::default()).is_empty());
    }

    #[test]
    fn single_actor_graph_is_connected() {
        let mut b = SdfGraph::builder("one");
        b.actor("only", 1);
        let g = b.build().unwrap();
        assert!(Disconnected.check(&g, &LintContext::default()).is_empty());
    }
}
