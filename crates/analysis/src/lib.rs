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
//! - [`DataflowEngine`]: the deterministic self-timed executor (paper §2,
//!   §6) with claim-space-at-start / release-at-end buffer semantics and
//!   no auto-concurrency, for every model class;
//! - [`throughput`]: throughput of an actor under a storage distribution
//!   via the *reduced* state space (paper §7);
//! - [`explore`]: the full timed state space (paper §6, Fig. 3), used as a
//!   didactic view and cross-check;
//! - [`Schedule`]: extraction, validation and Gantt rendering of the
//!   self-timed schedule (paper §4, Table 1);
//! - [`latency`](fn@latency) and [`shared_memory_peak`]: the output
//!   latency and the shared-memory need of that execution; these two, the
//!   schedule and the full state space share one walk of it, one time
//!   unit at a time, to its first recurring state;
//! - [`RatioGraph::expand`] and [`maximal_throughput`]: the homogeneous
//!   expansion of any model class and the maximum-cycle-ratio analysis
//!   giving its maximal achievable throughput (paper §9, \[GG93\]);
//! - [`StaticBounds`]: the same expansion with capacity back-edges, a
//!   sound throughput certificate per storage distribution;
//! - [`PairBounds`]: a cheaper, coarser bound per channel and capacity,
//!   from the two-actor model of that channel alone.
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
mod interner;
mod latency;
mod mcm;
mod memory;
mod pair_bounds;
mod schedule;
mod semantics;
mod state_space;
mod static_bounds;
mod throughput;
pub mod transform;

pub use budget::{CancelReason, CancelToken};
pub use dependencies::dependencies_from_run_for;
pub use energy::{schedule_energy_per_iteration, EnergyModel};
pub use engine::{Capacities, DataflowEngine, DataflowState, FiringEvents, FiringOutcome};
pub use error::{AnalysisError, LimitKind};
pub use interner::{fx_hash, FxBuildHasher, FxHasher};
pub use latency::{latency, LatencyReport};
pub use mcm::{
    max_cycle_ratio, max_cycle_ratio_brute_force, maximal_throughput, RatioEdge, RatioGraph,
};
pub use memory::{shared_memory_peak, SharedMemoryReport};
pub use pair_bounds::{PairBound, PairBounds};
pub use schedule::{Firing, Schedule, ScheduleViolation};
pub use semantics::{bmlb, rate_step, DataflowSemantics};
pub use state_space::{explore, explore_for, StateSpace};
pub use static_bounds::{BoundCertificate, StaticBounds};
pub use throughput::{
    throughput, throughput_analysis, throughput_for, AnalysisRequest, AnalysisWorkspace,
    ExplorationLimits, ThroughputAnalysis, ThroughputReport,
};

/// Tests of the homogeneous (HSDF) expansion, [`RatioGraph::expand`], on
/// SDF graphs.
#[cfg(test)]
mod hsdf {
    mod tests {
        use crate::mcm::firing_offsets;
        use crate::{DataflowSemantics, RatioEdge, RatioGraph};
        use buffy_graph::{ActorId, SdfGraph};

        /// The expansion of `g` and its node numbering: firing `copy` of
        /// actor `a` is node `offsets[a] + copy`.
        fn expand(g: &SdfGraph) -> (RatioGraph, Vec<usize>) {
            let cycles = g.repetition_cycles().unwrap();
            (RatioGraph::expand(g, &cycles), firing_offsets(g, &cycles))
        }

        fn node(offsets: &[usize], actor: ActorId, copy: usize) -> usize {
            offsets[actor.index()] + copy
        }

        fn find(h: &RatioGraph, from: usize, to: usize) -> Option<&RatioEdge> {
            h.edges.iter().find(|e| e.from == from && e.to == to)
        }

        fn example() -> SdfGraph {
            let mut b = SdfGraph::builder("example");
            let a = b.actor("a", 1);
            let bb = b.actor("b", 2);
            let c = b.actor("c", 2);
            b.channel("alpha", a, 2, bb, 3).unwrap();
            b.channel("beta", bb, 1, c, 2).unwrap();
            b.build().unwrap()
        }

        #[test]
        fn expansion_counts() {
            let g = example();
            let (h, offsets) = expand(&g);
            assert_eq!(h.num_nodes, 6);
            // 3 + 2 + 1 copies, actors in id order.
            assert_eq!(offsets, vec![0, 3, 5, 6]);
            // Every edge leaving a copy of `a` weighs a's execution time.
            let a = g.actor_by_name("a").unwrap();
            for copy in 0..3 {
                let from = node(&offsets, a, copy);
                let out: Vec<_> = h.edges.iter().filter(|e| e.from == from).collect();
                assert!(!out.is_empty(), "copy {copy}");
                assert!(out.iter().all(|e| e.weight == 1), "copy {copy}");
            }
        }

        #[test]
        fn ordering_rings_present() {
            let g = example();
            let (h, offsets) = expand(&g);
            let a = g.actor_by_name("a").unwrap();
            let c = g.actor_by_name("c").unwrap();
            let n = |actor, copy| node(&offsets, actor, copy);
            // a's ring: a0->a1 (0), a1->a2 (0), a2->a0 (1).
            assert_eq!(find(&h, n(a, 0), n(a, 1)).unwrap().tokens, 0);
            assert_eq!(find(&h, n(a, 2), n(a, 0)).unwrap().tokens, 1);
            // Single-copy actor gets a 1-token self-loop.
            assert_eq!(find(&h, n(c, 0), n(c, 0)).unwrap().tokens, 1);
        }

        #[test]
        fn channel_dependencies_example_alpha() {
            // α: a --2:3--> b, no initial tokens, q_a=3, q_b=2.
            // Tokens 1..=6; consuming firings (0-based): ⌈t/3⌉-1 → tokens
            // 1-3 by b0, 4-6 by b1; all in iteration 0.
            let g = example();
            let (h, offsets) = expand(&g);
            let a = g.actor_by_name("a").unwrap();
            let b = g.actor_by_name("b").unwrap();
            let n = |actor, copy| node(&offsets, actor, copy);
            // a0 produces tokens 1,2 → b0; a1 produces 3 → b0 and 4 → b1;
            // a2 produces 5,6 → b1.
            assert_eq!(find(&h, n(a, 0), n(b, 0)).unwrap().tokens, 0);
            assert_eq!(find(&h, n(a, 1), n(b, 0)).unwrap().tokens, 0);
            assert_eq!(find(&h, n(a, 1), n(b, 1)).unwrap().tokens, 0);
            assert_eq!(find(&h, n(a, 2), n(b, 1)).unwrap().tokens, 0);
            assert!(find(&h, n(a, 0), n(b, 1)).is_none());
        }

        #[test]
        fn initial_tokens_shift_dependencies() {
            // x --1:1--> y with 1 initial token, q = (1, 1): the token
            // produced by x in iteration m is consumed by y in iteration
            // m+1.
            let mut b = SdfGraph::builder("shift");
            let x = b.actor("x", 1);
            let y = b.actor("y", 1);
            b.channel_with_tokens("c", x, 1, y, 1, 1).unwrap();
            let g = b.build().unwrap();
            let (h, offsets) = expand(&g);
            let e = find(&h, node(&offsets, x, 0), node(&offsets, y, 0)).unwrap();
            assert_eq!(e.tokens, 1);
        }

        #[test]
        fn homogeneous_graph_expands_to_itself_plus_rings() {
            let mut b = SdfGraph::builder("homog");
            let x = b.actor("x", 2);
            let y = b.actor("y", 3);
            b.channel("c", x, 1, y, 1).unwrap();
            let g = b.build().unwrap();
            let (h, offsets) = expand(&g);
            assert_eq!(h.num_nodes, 2);
            // Edges: x self-ring, x->y with 0 tokens, y self-ring.
            assert_eq!(h.edges.len(), 3);
            let e = find(&h, node(&offsets, x, 0), node(&offsets, y, 0)).unwrap();
            assert_eq!((e.weight, e.tokens), (2, 0));
        }

        #[test]
        fn adjacency_covers_all_edges() {
            // The flat out-edge index holds every edge once, each node's
            // edges in edge-list order, also when the list is unsorted
            // (here: the expansion followed by its reversed copy, as
            // capacity back-edges follow the fixed edges).
            let (mut h, _) = expand(&example());
            let reversed: Vec<RatioEdge> = h
                .edges
                .iter()
                .rev()
                .map(|e| RatioEdge {
                    tokens: e.tokens + 1,
                    ..*e
                })
                .collect();
            h.edges.extend(reversed);
            let index = crate::mcm::OutEdges::new(&h);
            let listed: Vec<RatioEdge> = (0..h.num_nodes)
                .flat_map(|v| {
                    index.of(v).iter().map(move |e| RatioEdge {
                        from: v,
                        to: e.to,
                        weight: e.weight,
                        tokens: e.tokens,
                    })
                })
                .collect();
            let mut in_order = h.edges.clone();
            in_order.sort_by_key(|e| e.from); // stable: keeps list order per node
            assert_eq!(listed, in_order);
        }
    }
}
