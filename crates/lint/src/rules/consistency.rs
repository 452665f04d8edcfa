//! B001: inconsistent graph — the balance equations admit only the
//! trivial solution, so the graph cannot execute indefinitely in bounded
//! memory (paper §3).

use crate::diagnostic::{Diagnostic, Subject};
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::{AnalysisError, DataflowSemantics};
use buffy_graph::GraphError;

/// Flags graphs whose repetition vector does not exist.
pub struct Inconsistent;

impl Rule for Inconsistent {
    fn code(&self) -> &'static str {
        "B001"
    }

    fn name(&self) -> &'static str {
        "inconsistent-graph"
    }

    fn summary(&self) -> &'static str {
        "the balance equations admit only the trivial solution"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let subject = match model.repetition_cycles() {
            // Overflow is B006's finding.
            Ok(_) | Err(AnalysisError::Graph(GraphError::RepetitionOverflow)) => return Vec::new(),
            Err(AnalysisError::Graph(GraphError::Inconsistent { channel })) => {
                Subject::Channel(channel)
            }
            Err(_) => Subject::Graph,
        };
        vec![Diagnostic::error(
            self.code(),
            subject,
            "the balance equations admit only the trivial solution; \
             the graph cannot run indefinitely in bounded memory",
        )
        .with_hint(
            "adjust the port rates so that q(src)·production = \
             q(dst)·consumption holds on every channel",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn flags_inconsistent_cycle() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 2, y, 1).unwrap();
        b.channel("bwd", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let d = Inconsistent.check(&g, &LintContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "B001");
        assert_eq!(d[0].subject, Subject::Channel("bwd".into()));
        assert!(d[0].hint.is_some());
    }

    #[test]
    fn passes_consistent_graph() {
        let mut b = SdfGraph::builder("ok");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 2, y, 3).unwrap();
        let g = b.build().unwrap();
        assert!(Inconsistent.check(&g, &LintContext::default()).is_empty());
    }
}
