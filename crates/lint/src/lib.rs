//! # buffy-lint
//!
//! Static model verification for **buffy-rs**: a set of checks that run
//! over any [`DataflowSemantics`] model (an SDF or CSDF graph) *before*
//! any state-space exploration and report structured diagnostics — a
//! stable code (`B001`…), a severity, the offending actor or channel, and
//! a fix hint. The `buffy check` CLI subcommand renders the resulting
//! [`Report`] in human-readable or JSON form, and the analysis commands
//! use it as a preflight that refuses models with `Error`-level findings.
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | B001 | error    | inconsistent graph (balance equations unsolvable) |
//! | B002 | error    | disconnected graph |
//! | B003 | error    | token-free cycle — guaranteed deadlock |
//! | B004 | error    | channel capacity below the §7 lower bound |
//! | B005 | error    | throughput constraint above the maximal throughput |
//! | B006 | warning  | arithmetic overflow risk in the analyses |
//! | B007 | warning  | dead actor (detached from the dataflow) |
//! | B008 | warning  | modelling smell (starved self-loop, zero-time cycle) |
//! | B009 | warning  | distribution-space explosion — bound the exploration (`--timeout`, `--checkpoint`) |
//! | B010 | error    | channel capacity statically saturates the throughput below the requested constraint |
//! | B011 | warning  | constraint already met at the §7 lower-bound distribution — exploration trivially solvable |
//!
//! Each check is a separate [`Rule`] object that reads the model only
//! through the kernel's [`DataflowSemantics`] trait, so every rule is
//! written once for all model classes. [`Registry::with_default_rules`]
//! collects them all and [`lint`] runs the registry.
//!
//! ```
//! use buffy_graph::SdfGraph;
//! use buffy_lint::{lint, LintContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SdfGraph::builder("bad");
//! let x = b.actor("x", 1);
//! let y = b.actor("y", 1);
//! b.channel("fwd", x, 2, y, 1)?;
//! b.channel("bwd", y, 1, x, 1)?;
//! let g = b.build()?;
//!
//! let report = lint(&g, &LintContext::default());
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, "B001");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod diagnostic;
mod model;
mod rules;

pub use diagnostic::{Diagnostic, Report, Severity, Subject};
pub use rules::{Registry, Rule, DEFAULT_SPACE_THRESHOLD};

use buffy_analysis::DataflowSemantics;
use buffy_graph::{ActorId, Rational, StorageDistribution};

/// Optional inputs that sharpen the checks: a storage distribution makes
/// the capacity checks (B004) possible, a throughput constraint enables
/// the feasibility check (B005).
#[derive(Debug, Clone, Default)]
pub struct LintContext {
    /// The storage distribution the model is meant to run under.
    pub distribution: Option<StorageDistribution>,
    /// A required throughput for the observed actor.
    pub throughput_constraint: Option<Rational>,
    /// The actor whose throughput is constrained; defaults to the graph's
    /// default observed actor.
    pub observed: Option<ActorId>,
    /// Distribution-space size above which B009 warns (default:
    /// [`DEFAULT_SPACE_THRESHOLD`]).
    pub space_threshold: Option<u64>,
}

/// Runs every default rule over a model.
pub fn lint(model: &dyn DataflowSemantics, ctx: &LintContext) -> Report {
    Registry::with_default_rules().run(model, ctx)
}
