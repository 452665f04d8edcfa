//! The rule trait and the registry of default rules.

mod capacity;
mod connectivity;
mod consistency;
mod dead_actor;
mod deadlock;
mod explosion;
mod overflow;
mod smells;
mod static_bounds;
mod throughput;

use crate::diagnostic::{Diagnostic, Report};
use crate::LintContext;
use buffy_analysis::DataflowSemantics;

pub use capacity::CapacityBelowBound;
pub use connectivity::Disconnected;
pub use consistency::Inconsistent;
pub use dead_actor::DeadActor;
pub use deadlock::TokenFreeCycle;
pub use explosion::{SpaceExplosion, DEFAULT_SPACE_THRESHOLD};
pub use overflow::OverflowRisk;
pub use smells::ModellingSmells;
pub use static_bounds::{StaticSaturation, TriviallySatisfiable};
pub use throughput::InfeasibleConstraint;

/// One static check over a model.
///
/// Rules are stateless: `check` inspects the model (and the optional
/// [`LintContext`] inputs) and returns zero or more diagnostics, all
/// carrying the rule's stable [`code`](Rule::code).
pub trait Rule {
    /// The stable diagnostic code (`B001`…) this rule emits.
    fn code(&self) -> &'static str;

    /// A short kebab-case rule name.
    fn name(&self) -> &'static str;

    /// One line describing what the rule finds.
    fn summary(&self) -> &'static str;

    /// Runs the check.
    fn check(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Vec<Diagnostic>;
}

/// An ordered collection of rules.
pub struct Registry {
    rules: Vec<Box<dyn Rule>>,
}

impl Registry {
    /// A registry with no rules; populate with [`Registry::push`].
    pub fn empty() -> Registry {
        Registry { rules: Vec::new() }
    }

    /// All built-in rules, in code order.
    pub fn with_default_rules() -> Registry {
        let mut r = Registry::empty();
        r.push(Box::new(Inconsistent));
        r.push(Box::new(Disconnected));
        r.push(Box::new(TokenFreeCycle));
        r.push(Box::new(CapacityBelowBound));
        r.push(Box::new(InfeasibleConstraint));
        r.push(Box::new(OverflowRisk));
        r.push(Box::new(DeadActor));
        r.push(Box::new(ModellingSmells));
        r.push(Box::new(SpaceExplosion));
        r.push(Box::new(StaticSaturation));
        r.push(Box::new(TriviallySatisfiable));
        r
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: Box<dyn Rule>) {
        self.rules.push(rule);
    }

    /// The registered rules, in execution order.
    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Runs every rule and collects the diagnostics into a [`Report`].
    pub fn run(&self, model: &dyn DataflowSemantics, ctx: &LintContext) -> Report {
        let mut diagnostics = Vec::new();
        for rule in &self.rules {
            let mut found = rule.check(model, ctx);
            debug_assert!(
                found.iter().all(|d| d.code == rule.code()),
                "rule {} emitted a foreign code",
                rule.name()
            );
            diagnostics.append(&mut found);
        }
        Report {
            graph: model.name().to_string(),
            kind: model.kind(),
            diagnostics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

    #[test]
    fn default_registry_covers_all_codes() {
        let r = Registry::with_default_rules();
        let codes: Vec<&str> = r.rules().iter().map(|rule| rule.code()).collect();
        assert_eq!(
            codes,
            vec![
                "B001", "B002", "B003", "B004", "B005", "B006", "B007", "B008", "B009", "B010",
                "B011"
            ]
        );
        // Codes are unique and names are non-empty.
        for rule in r.rules() {
            assert!(!rule.name().is_empty());
            assert!(!rule.summary().is_empty());
        }
    }

    #[test]
    fn clean_graph_yields_clean_report() {
        let mut b = SdfGraph::builder("ok");
        let a = b.actor("a", 1);
        let c = b.actor("c", 2);
        b.channel("ch", a, 2, c, 3).unwrap();
        let g = b.build().unwrap();
        let report = Registry::with_default_rules().run(&g, &LintContext::default());
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.graph, "ok");
        assert_eq!(report.kind, "sdf");
    }
}
