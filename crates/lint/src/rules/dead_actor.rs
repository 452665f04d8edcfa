//! B007: dead actor — an actor detached from the dataflow fires freely,
//! contributes nothing to any channel and distorts throughput readings
//! when observed.

use crate::diagnostic::{Diagnostic, Subject};
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::DataflowSemantics;
use buffy_graph::ActorId;

/// Flags actors with no channels at all (in graphs with more than one
/// actor) and — defensively — zero repetition entries.
pub struct DeadActor;

impl Rule for DeadActor {
    fn code(&self) -> &'static str {
        "B007"
    }

    fn name(&self) -> &'static str {
        "dead-actor"
    }

    fn summary(&self) -> &'static str {
        "an actor takes no part in the dataflow"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if model.num_actors() > 1 {
            for i in 0..model.num_actors() {
                let a = ActorId::new(i);
                if model.input_channels(a).is_empty() && model.output_channels(a).is_empty() {
                    out.push(
                        Diagnostic::warning(
                            self.code(),
                            Subject::Actor(model.actor_name(a).to_string()),
                            "the actor has no channels; it fires unboundedly \
                             often and takes no part in the dataflow",
                        )
                        .with_hint("remove the actor or connect it with a channel"),
                    );
                }
            }
        }
        if let Ok(q) = model.repetition_cycles() {
            for (i, &e) in q.iter().enumerate() {
                if e == 0 {
                    out.push(
                        Diagnostic::warning(
                            self.code(),
                            Subject::Actor(model.actor_name(ActorId::new(i)).to_string()),
                            "the actor's repetition entry is zero; it never \
                             fires in a periodic execution",
                        )
                        .with_hint("check the rates of its channels"),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn flags_channel_less_actor() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.actor("idle", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        let d = DeadActor.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B007");
        assert_eq!(d[0].subject, Subject::Actor("idle".into()));
    }

    #[test]
    fn single_actor_graph_is_fine() {
        let mut b = SdfGraph::builder("one");
        b.actor("only", 1);
        let g = b.build().unwrap();
        assert!(DeadActor.check(&g, &LintContext::default()).is_empty());
    }

    #[test]
    fn connected_actors_pass() {
        let mut b = SdfGraph::builder("ok");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 2, y, 3).unwrap();
        let g = b.build().unwrap();
        assert!(DeadActor.check(&g, &LintContext::default()).is_empty());
    }
}
