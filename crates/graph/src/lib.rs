//! # buffy-graph
//!
//! Synchronous Dataflow (SDF) graph modelling substrate for **buffy-rs**, a
//! reproduction of Stuijk, Geilen & Basten, *"Exploring Trade-Offs in Buffer
//! Requirements and Throughput Constraints for Synchronous Dataflow
//! Graphs"* (DAC 2006).
//!
//! This crate provides:
//!
//! - the immutable [`SdfGraph`] model (actors, channels, rates, initial
//!   tokens, execution times) with a validating [builder](SdfGraphBuilder);
//! - exact [`Rational`] arithmetic used for throughput values;
//! - [`RepetitionVector`] computation and [consistency](is_consistent)
//!   checking (paper §3, §5);
//! - [`StorageDistribution`], the per-channel buffer capacity assignment the
//!   paper's exploration optimizes (paper Defs. 1–2);
//! - SDF3-compatible [XML input/output](xml) and [DOT export](dot).
//!
//! # Example: the paper's running example (Fig. 1)
//!
//! ```
//! use buffy_graph::{SdfGraph, RepetitionVector, StorageDistribution};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SdfGraph::builder("example");
//! let a = b.actor("a", 1);
//! let bb = b.actor("b", 2);
//! let c = b.actor("c", 2);
//! b.channel("alpha", a, 2, bb, 3)?;
//! b.channel("beta", bb, 1, c, 2)?;
//! let graph = b.build()?;
//!
//! let q = RepetitionVector::compute(&graph)?;
//! assert_eq!(q.as_slice(), &[3, 2, 1]);
//!
//! let gamma = StorageDistribution::from_capacities(vec![4, 2]);
//! assert_eq!(gamma.size(), 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod builder;
mod distribution;
pub mod dot;
mod error;
mod graph;
mod ids;
mod rational;
mod repetition;
pub mod xml;

pub use builder::SdfGraphBuilder;
pub use distribution::StorageDistribution;
pub use error::GraphError;
pub use graph::{Actor, Channel, SdfGraph};
pub use ids::{ActorId, ChannelId};
pub use rational::{checked_lcm_u64, gcd_u128, gcd_u64, ParseRationalError, Rational};
pub use repetition::{is_consistent, solve_balance_equations, RepetitionVector};
