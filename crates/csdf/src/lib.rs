//! # buffy-csdf
//!
//! Cyclo-Static Dataflow (CSDF) extension of **buffy-rs**.
//!
//! The paper's conclusions (§12) call for generalizing the exploration "to
//! more general dataflow models"; the authors' own follow-up work added
//! CSDF support to SDF3. This crate ports the machinery to the phased
//! model:
//!
//! - [`CsdfGraph`]: actors with cyclic phase sequences, per-phase
//!   execution times and per-phase port rates (zero rates allowed);
//! - [`CsdfRepetitionVector`]: consistency and cycle-level repetition
//!   vectors;
//! - [`csdf_maximal_throughput`] / [`csdf_ratio_graph`]: the homogeneous
//!   expansion and the maximal throughput over all storage distributions;
//! - the SDF3 CSDF dialect ([`xml`]) and a gallery of phased graphs
//!   ([`gallery`]).
//!
//! Everything else is the unified kernel's. The execution engine, the
//! throughput analysis and the exploration drivers are written once in
//! `buffy-analysis`/`buffy-core` against the
//! [`DataflowSemantics`](buffy_analysis::DataflowSemantics) trait, and
//! [`CsdfGraph`] implements the trait, phase-aware channel bounds
//! included: the throughput of a CSDF graph under a distribution is
//! `buffy_analysis::throughput(&graph, &dist, actor)` and its Pareto
//! exploration is `buffy_core::explore_design_space(&graph, &options)`,
//! the same calls as for an SDF graph.
//!
//! Every SDF graph embeds as a single-phase CSDF graph
//! ([`CsdfGraph::from_sdf`]); the test suite uses the embedding to
//! cross-validate this crate against the SDF analyses.
//!
//! # Example
//!
//! ```
//! use buffy_analysis::throughput;
//! use buffy_core::{explore_design_space, ExploreOptions};
//! use buffy_csdf::CsdfGraph;
//! use buffy_graph::{Rational, StorageDistribution};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A producer that bursts 2 tokens every other step.
//! let mut b = CsdfGraph::builder("updown");
//! let p = b.actor("p", vec![1, 1]);
//! let c = b.actor("c", vec![1]);
//! b.channel("d", p, vec![2, 0], c, vec![1], 0)?;
//! let g = b.build()?;
//!
//! let r = throughput(&g, &StorageDistribution::from_capacities(vec![4]), c)?;
//! assert_eq!(r.throughput, Rational::ONE);
//!
//! // Its buffer/throughput Pareto front, through the kernel's driver.
//! let front = explore_design_space(&g, &ExploreOptions::default())?;
//! assert_eq!(front.pareto.minimal().unwrap().size, 2); // the burst must fit
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod engine;
mod explore;
pub mod gallery;
mod hsdf;
mod model;
mod proptests;
mod repetition;
mod throughput;
pub mod xml;

pub use hsdf::{csdf_maximal_throughput, csdf_ratio_graph};
pub use model::{CsdfActor, CsdfChannel, CsdfError, CsdfGraph, CsdfGraphBuilder};
pub use repetition::{is_consistent, CsdfRepetitionVector};
