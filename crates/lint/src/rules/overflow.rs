//! B006: arithmetic overflow risk — repetition-vector entries or
//! per-iteration token volumes large enough that the `u64`/`i128`
//! arithmetic of the analyses may overflow.

use crate::diagnostic::{Diagnostic, Subject};
use crate::model::channels;
use crate::rules::Rule;
use crate::LintContext;
use buffy_analysis::{AnalysisError, DataflowSemantics};
use buffy_graph::{ActorId, GraphError};

/// Entries above this make the rational (`i128`) clock arithmetic of the
/// simulation engines risky: products of three such factors overflow.
const HUGE_ENTRY: u64 = 1 << 32;

/// Flags repetition vectors that overflow or come close to overflowing.
pub struct OverflowRisk;

impl Rule for OverflowRisk {
    fn code(&self) -> &'static str {
        "B006"
    }

    fn name(&self) -> &'static str {
        "overflow-risk"
    }

    fn summary(&self) -> &'static str {
        "repetition-vector or token arithmetic may overflow"
    }

    fn check(&self, model: &dyn DataflowSemantics, _ctx: &LintContext) -> Vec<Diagnostic> {
        let q = match model.repetition_cycles() {
            Ok(q) => q,
            Err(AnalysisError::Graph(GraphError::RepetitionOverflow)) => {
                return vec![Diagnostic::error(
                    self.code(),
                    Subject::Graph,
                    "the repetition vector overflows u64; no analysis can \
                     run on this graph",
                )
                .with_hint("reduce the rate ratios — they force astronomically many firings")];
            }
            // Inconsistency is B001's finding.
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        for (i, &e) in q.iter().enumerate() {
            if e >= HUGE_ENTRY {
                out.push(
                    Diagnostic::warning(
                        self.code(),
                        Subject::Actor(model.actor_name(ActorId::new(i)).to_string()),
                        format!(
                            "repetition entry {e} is enormous; one graph \
                             iteration needs that many firing cycles and \
                             clock arithmetic may overflow",
                        ),
                    )
                    .with_hint("reduce the rate ratios on the adjacent channels"),
                );
            }
        }
        for c in channels(model) {
            let source = model.channel_source(c);
            let volume = q[source.index()] as u128 * model.cycle_production(c) as u128;
            if volume > u64::MAX as u128 {
                out.push(
                    Diagnostic::warning(
                        self.code(),
                        Subject::Channel(model.channel_name(c).to_string()),
                        format!(
                            "one iteration moves {volume} tokens through the \
                             channel, which overflows u64 token counting",
                        ),
                    )
                    .with_hint("reduce the production rate or the source's repetition count"),
                );
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
    fn passes_small_graph() {
        let mut b = SdfGraph::builder("ok");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 2, y, 3).unwrap();
        let g = b.build().unwrap();
        assert!(OverflowRisk.check(&g, &LintContext::default()).is_empty());
    }

    #[test]
    fn flags_huge_repetition_entries() {
        // A chain of extreme rate ratios: q(y) = 2^33 · q(x).
        let mut b = SdfGraph::builder("huge");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 1 << 33, y, 1).unwrap();
        let g = b.build().unwrap();
        let d = OverflowRisk.check(&g, &LintContext::default());
        assert!(!d.is_empty());
        assert!(d
            .iter()
            .any(|d| matches!(&d.subject, Subject::Actor(a) if a == "y")));
        assert!(d.iter().all(|d| d.code == "B006"));
    }

    #[test]
    fn silent_on_inconsistent_graphs() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 2, y, 1).unwrap();
        b.channel("bwd", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        assert!(OverflowRisk.check(&g, &LintContext::default()).is_empty());
    }
}
