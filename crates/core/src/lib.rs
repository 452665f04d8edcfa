//! # buffy-core
//!
//! The primary contribution of Stuijk, Geilen & Basten, *"Exploring
//! Trade-Offs in Buffer Requirements and Throughput Constraints for
//! Synchronous Dataflow Graphs"* (DAC 2006): exact exploration of the
//! trade-off between channel storage (buffer capacities) and throughput
//! for SDF graphs.
//!
//! - [`lower_bound_distribution`] / [`upper_bound_distribution`]: the
//!   bounds boxing the design space (paper §8, Fig. 7);
//! - [`explore_design_space`]: the paper's exact exploration — divide and
//!   conquer over distribution sizes, monotonicity-seeded search in the
//!   throughput dimension, optional quantization and parallelism (§9–10);
//! - [`explore_dependency_guided`]: the storage-dependency-guided pruning
//!   the paper's conclusions call for (§12);
//! - [`min_storage_for_throughput`]: the headline question — minimal
//!   storage meeting a given throughput constraint, answered by the
//!   guided search, which stops at its first point that meets it (exact
//!   wherever the guided front is: tested, not proven);
//! - [`ParetoSet`] / [`ParetoPoint`]: the resulting front (Figs. 5, 13);
//! - [`Event`] / [`ExploreObserver`] / [`ExplorationStats`]: the
//!   exploration runtime's one event stream and the statistics folded
//!   from it — the observer set in [`ExploreOptions::observer`] receives
//!   every phase, evaluation, cache hit, failure and accepted Pareto
//!   point while a search runs.
//!
//! Each of these is a single function written once against the unified
//! kernel's [`DataflowSemantics`](buffy_analysis::DataflowSemantics)
//! trait, so it accepts an [`SdfGraph`](buffy_graph::SdfGraph) and a
//! cyclo-static `buffy_csdf::CsdfGraph` alike.
//!
//! # Quickstart
//!
//! ```
//! use buffy_core::{explore_design_space, ExploreOptions};
//! use buffy_graph::{Rational, SdfGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example (Fig. 1).
//! let mut b = SdfGraph::builder("example");
//! let a = b.actor("a", 1);
//! let bb = b.actor("b", 2);
//! let c = b.actor("c", 2);
//! b.channel("alpha", a, 2, bb, 3)?;
//! b.channel("beta", bb, 1, c, 2)?;
//! let graph = b.build()?;
//!
//! let result = explore_design_space(&graph, &ExploreOptions::default())?;
//! for point in result.pareto.points() {
//!     println!("{point}");
//! }
//! assert_eq!(result.pareto.minimal().unwrap().size, 6);   // ⟨4, 2⟩, thr 1/7
//! assert_eq!(result.pareto.maximal().unwrap().size, 10);  // thr 1/4
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod bound_table;
mod bounds;
mod checkpoint;
mod constraint;
mod dependency;
mod enumerate;
mod error;
mod explore;
mod fault;
mod live;
mod objective;
mod pareto;
mod pipeline;
mod runtime;

pub use bounds::{lower_bound_distribution, upper_bound_distribution};
pub use buffy_telemetry::json_escape;
pub use checkpoint::{Checkpoint, CheckpointEntry, CheckpointError, SalvageReport};
pub use constraint::{min_storage_for_throughput, ConstraintResult};
pub use dependency::explore_dependency_guided;
pub use enumerate::DistributionSpace;
pub use error::ExploreError;
pub use explore::{explore_design_space, ExplorationResult, ExploreOptions, WarmStart};
pub use fault::{FaultPlan, FaultSite, FAULT_SITES};
pub use live::{dist_json, EventRing, LiveStats, RingEntry, DEFAULT_RING_CAPACITY};
pub use objective::{ObjectiveKind, ObjectiveSpace, ObjectiveVector, ParseObjectivesError, Sense};
pub use pareto::{ParetoPoint, ParetoSet};
pub use runtime::{
    resolve_threads, Completeness, EvaluationFailure, Event, ExplorationStats, ExploreObserver,
    NoopObserver, SearchPhase, SkippedSize,
};

// Re-export the cooperative budget/cancellation types: callers construct a
// token once and hand it to both the analysis and exploration layers.
pub use buffy_analysis::{CancelReason, CancelToken};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use buffy_analysis as analysis;
pub use buffy_graph as graph;
