//! # buffy-analysis
//!
//! Timed analyses for Synchronous Dataflow graphs, implementing the
//! execution model and state-space machinery of Stuijk, Geilen & Basten,
//! *"Exploring Trade-Offs in Buffer Requirements and Throughput Constraints
//! for Synchronous Dataflow Graphs"* (DAC 2006):
//!
//! - [`DataflowSemantics`]: the model interface of the unified kernel —
//!   every analysis below is written once, generically, and instantiated
//!   for SDF here and for CSDF in `buffy-csdf`;
//! - [`Engine`]: the deterministic self-timed executor (paper §2, §6) with
//!   claim-space-at-start / release-at-end buffer semantics and no
//!   auto-concurrency — the SDF view of the generic [`DataflowEngine`];
//! - [`throughput`]: throughput of an actor under a storage distribution
//!   via the *reduced* state space (paper §7);
//! - [`explore`]: the full timed state space (paper §6, Fig. 3), used as a
//!   didactic view and cross-check;
//! - [`Schedule`]: extraction, validation and Gantt rendering of the
//!   self-timed schedule (paper §4, Table 1);
//! - [`Hsdf`] and [`maximal_throughput`]: homogeneous expansion and
//!   maximum-cycle-ratio analysis giving the graph's maximal achievable
//!   throughput (paper §9, \[GG93\]);
//! - [`graph_algos`]: strongly connected components and topological order.
//!
//! # Example
//!
//! ```
//! use buffy_analysis::{maximal_throughput, throughput};
//! use buffy_graph::{Rational, SdfGraph, StorageDistribution};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SdfGraph::builder("example");
//! let a = b.actor("a", 1);
//! let bb = b.actor("b", 2);
//! let c = b.actor("c", 2);
//! b.channel("alpha", a, 2, bb, 3)?;
//! b.channel("beta", bb, 1, c, 2)?;
//! let g = b.build()?;
//!
//! // Throughput under the paper's storage distribution ⟨4, 2⟩ …
//! let r = throughput(&g, &StorageDistribution::from_capacities(vec![4, 2]), c)?;
//! assert_eq!(r.throughput, Rational::new(1, 7));
//! // … and the maximal achievable throughput over all distributions.
//! assert_eq!(maximal_throughput(&g, c)?, Rational::new(1, 4));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod budget;
mod dependencies;
mod energy;
mod engine;
mod error;
pub mod graph_algos;
mod hsdf;
mod interner;
mod latency;
mod mcm;
mod memory;
mod schedule;
mod semantics;
mod state_space;
mod static_bounds;
mod throughput;
pub mod transform;

pub use budget::{CancelReason, CancelToken};
pub use dependencies::dependencies_from_run_for;
pub use energy::{schedule_energy_per_iteration, EnergyModel};
pub use engine::{
    Capacities, DataflowEngine, DataflowState, Engine, FiringEvents, FiringOutcome, SdfState,
};
pub use error::{AnalysisError, LimitKind};
pub use hsdf::{Hsdf, HsdfEdge, HsdfNode};
pub use interner::{
    fx_hash, FxBuildHasher, FxHasher, Interned, ProbeStats, StateStore, PROBE_BINS,
};
pub use latency::{latency, LatencyReport};
pub use mcm::{
    max_cycle_ratio, max_cycle_ratio_brute_force, maximal_throughput, RatioEdge, RatioGraph,
};
pub use memory::{shared_memory_peak, SharedMemoryReport};
pub use schedule::{Firing, Schedule, ScheduleViolation};
pub use semantics::{bmlb, rate_step, DataflowSemantics};
pub use state_space::{explore, explore_for, StateSpace};
pub use static_bounds::{BoundCertificate, StaticBounds};
pub use throughput::{
    throughput, throughput_analysis, throughput_for, AnalysisRequest, AnalysisWorkspace,
    ExplorationLimits, ThroughputAnalysis, ThroughputReport,
};
