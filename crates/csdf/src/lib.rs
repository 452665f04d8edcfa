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
//! - the SDF3 CSDF dialect ([`xml`]) and a gallery of phased graphs
//!   ([`gallery`]).
//!
//! Everything else is the unified kernel's. The balance equations, the
//! homogeneous expansion, the execution engine, the throughput analysis
//! and the exploration drivers are written once in `buffy-graph`,
//! `buffy-analysis` and `buffy-core` against the
//! [`DataflowSemantics`](buffy_analysis::DataflowSemantics) trait, and
//! [`CsdfGraph`] implements the trait, phase-aware channel bounds
//! included. The cycle-level repetition vector of a CSDF graph is
//! `graph.repetition_cycles()`, its maximal throughput over all storage
//! distributions `buffy_analysis::maximal_throughput(&graph, actor)`, its
//! throughput under a distribution `buffy_analysis::throughput(&graph,
//! &dist, actor)` and its Pareto exploration
//! `buffy_core::explore_design_space(&graph, &options)`: the same calls
//! as for an SDF graph.
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
mod model;
mod proptests;
mod throughput;
pub mod xml;

pub use model::{CsdfActor, CsdfChannel, CsdfError, CsdfGraph, CsdfGraphBuilder};

/// The homogeneous expansion and the maximal throughput of phased graphs
/// are the kernel's ([`buffy_analysis::RatioGraph::expand`],
/// [`buffy_analysis::maximal_throughput`]); these tests pin them on CSDF
/// graphs.
#[cfg(test)]
mod hsdf {
    mod tests {
        use crate::CsdfGraph;
        use buffy_analysis::{maximal_throughput, throughput, AnalysisError, DataflowSemantics};
        use buffy_graph::{Rational, SdfGraph, StorageDistribution};

        #[test]
        fn matches_sdf_on_single_phase_embedding() {
            let mut b = SdfGraph::builder("example");
            let a = b.actor("a", 1);
            let bb = b.actor("b", 2);
            let c = b.actor("c", 2);
            b.channel("alpha", a, 2, bb, 3).unwrap();
            b.channel("beta", bb, 1, c, 2).unwrap();
            let sdf = b.build().unwrap();
            let csdf = CsdfGraph::from_sdf(&sdf);
            for name in ["a", "b", "c"] {
                let s = maximal_throughput(&sdf, sdf.actor_by_name(name).unwrap()).unwrap();
                let cs = maximal_throughput(&csdf, csdf.actor_by_name(name).unwrap()).unwrap();
                assert_eq!(s, cs, "actor {name}");
            }
        }

        #[test]
        fn bursty_producer_bound() {
            // p: phases (1,1), produce (2,0); c: 1 phase, consume 1, exec 1.
            // q = (1, 2) phase cycles: per iteration p runs 2 time units
            // producing 2 tokens, so c can fire at most 1 per time unit:
            // thr(c) ≤ 1 — and the ring of p (2 firings, 2 time units, 1
            // token) gives λ = 2, thr(c) = q_c·phases / λ = 2/2 = 1.
            let mut b = CsdfGraph::builder("updown");
            let p = b.actor("p", vec![1, 1]);
            let c = b.actor("c", vec![1]);
            b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
            let g = b.build().unwrap();
            assert_eq!(g.repetition_cycles().unwrap(), vec![1, 2]);
            assert_eq!(maximal_throughput(&g, c).unwrap(), Rational::ONE);
            // …and the simulation with generous buffers reaches it.
            let r = throughput(&g, &StorageDistribution::from_capacities(vec![8]), c).unwrap();
            assert_eq!(r.throughput, Rational::ONE);
        }

        #[test]
        fn phase_heavy_actor_limits_throughput() {
            // One actor, three phases with times (1, 2, 3): its own ring
            // bounds it at 3 firings per 6 time units.
            let mut b = CsdfGraph::builder("solo");
            let x = b.actor("x", vec![1, 2, 3]);
            b.channel("s", x, vec![1, 1, 1], x, vec![1, 1, 1], 1)
                .unwrap();
            let g = b.build().unwrap();
            assert_eq!(maximal_throughput(&g, x).unwrap(), Rational::new(1, 2));
        }

        #[test]
        fn token_free_cycle_rejected() {
            let mut b = CsdfGraph::builder("dead");
            let x = b.actor("x", vec![1]);
            let y = b.actor("y", vec![1]);
            b.channel("f", x, vec![1], y, vec![1], 0).unwrap();
            b.channel("r", y, vec![1], x, vec![1], 0).unwrap();
            let g = b.build().unwrap();
            assert_eq!(
                maximal_throughput(&g, x),
                Err(AnalysisError::NotLive),
                "the same error as the SDF analysis"
            );
        }

        #[test]
        fn simulation_never_exceeds_the_bound() {
            let mut b = CsdfGraph::builder("mix");
            let p = b.actor("p", vec![1, 2]);
            let c = b.actor("c", vec![2, 1]);
            b.channel("d", p, vec![3, 1], c, vec![2, 2], 0).unwrap();
            let g = b.build().unwrap();
            let c_id = g.actor_by_name("c").unwrap();
            let bound = maximal_throughput(&g, c_id).unwrap();
            for cap in 4..14u64 {
                let d = StorageDistribution::from_capacities(vec![cap]);
                let r = throughput(&g, &d, c_id).unwrap();
                assert!(
                    r.throughput <= bound,
                    "cap {cap}: {} > {bound}",
                    r.throughput
                );
            }
        }
    }
}
