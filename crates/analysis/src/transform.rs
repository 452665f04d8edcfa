//! Graph transformations.
//!
//! [`capacities_as_channels`] encodes finite channel capacities as
//! ordinary backward channels — the classical modelling trick: a channel
//! `a → b` with capacity `γ` becomes the original channel plus a reverse
//! channel `b → a` whose tokens represent free space (initially
//! `γ − initial tokens`, returned by `b` when it consumes and claimed by
//! `a` when it produces). Under the paper's firing semantics
//! (claim space at start = check the reverse channel's tokens at start,
//! consume at the end) the transformed graph executed with *unbounded*
//! buffers behaves exactly like the original under the bounded
//! distribution; the test suite exploits this as an independent
//! cross-check of the engine's capacity handling.

use crate::error::AnalysisError;
use buffy_graph::{GraphError, SdfGraph, StorageDistribution};

/// Builds a graph whose unbounded execution equals `graph`'s execution
/// under the storage distribution `dist`.
///
/// Every channel `c: a → b` (rates `p : q`, `d` initial tokens) gains a
/// reverse channel `__space_c: b → a` with rates `q : p` and `γ(c) − d`
/// initial tokens.
///
/// # Errors
///
/// [`AnalysisError::Graph`] when some capacity is smaller than the
/// channel's initial tokens (the space channel would need negative
/// tokens), reported as an inconsistency on that channel.
pub fn capacities_as_channels(
    graph: &SdfGraph,
    dist: &StorageDistribution,
) -> Result<SdfGraph, AnalysisError> {
    assert_eq!(
        dist.len(),
        graph.num_channels(),
        "distribution must cover every channel"
    );
    let mut b = SdfGraph::builder(format!("{}-bounded", graph.name()));
    let ids: Vec<_> = graph
        .actors()
        .map(|(_, a)| b.actor(a.name(), a.execution_time()))
        .collect();
    for (cid, ch) in graph.channels() {
        let cap = dist.get(cid);
        if cap < ch.initial_tokens() {
            return Err(AnalysisError::Graph(GraphError::Inconsistent {
                channel: ch.name().to_string(),
            }));
        }
        b.channel_with_tokens(
            ch.name(),
            ids[ch.source().index()],
            ch.production(),
            ids[ch.target().index()],
            ch.consumption(),
            ch.initial_tokens(),
        )?;
        b.channel_with_tokens(
            format!("__space_{}", ch.name()),
            ids[ch.target().index()],
            ch.consumption(),
            ids[ch.source().index()],
            ch.production(),
            cap - ch.initial_tokens(),
        )?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Capacities;
    use crate::throughput::{throughput, throughput_for, ExplorationLimits};
    use buffy_graph::{is_consistent, Rational};

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
    fn structure_of_transformed_graph() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let t = capacities_as_channels(&g, &d).unwrap();
        assert_eq!(t.num_actors(), 3);
        assert_eq!(t.num_channels(), 4);
        let space = t.channel_by_name("__space_alpha").unwrap();
        let ch = t.channel(space);
        assert_eq!(ch.production(), 3);
        assert_eq!(ch.consumption(), 2);
        assert_eq!(ch.initial_tokens(), 4);
        assert!(is_consistent(&t));
    }

    #[test]
    fn transformed_unbounded_equals_original_bounded() {
        let g = example();
        let c_name = "c";
        for caps in [[4u64, 2], [5, 2], [6, 2], [6, 3], [7, 3], [4, 1], [10, 10]] {
            let d = StorageDistribution::from_capacities(caps.to_vec());
            let original = throughput(&g, &d, g.actor_by_name(c_name).unwrap()).unwrap();
            let t = capacities_as_channels(&g, &d).unwrap();
            let transformed = throughput_for(
                &t,
                Capacities::unbounded(t.num_channels()),
                t.actor_by_name(c_name).unwrap(),
                ExplorationLimits::default(),
            )
            .unwrap();
            assert_eq!(
                original.throughput, transformed.throughput,
                "γ = {d}: {} vs {}",
                original.throughput, transformed.throughput
            );
            assert_eq!(original.deadlocked, transformed.deadlocked, "γ = {d}");
        }
    }

    #[test]
    fn initial_tokens_reduce_space_tokens() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel_with_tokens("c", x, 1, y, 1, 3).unwrap();
        let g = b.build().unwrap();
        let t = capacities_as_channels(&g, &StorageDistribution::from_capacities(vec![5])).unwrap();
        let space = t.channel(t.channel_by_name("__space_c").unwrap());
        assert_eq!(space.initial_tokens(), 2);
    }

    #[test]
    fn capacity_below_initial_tokens_rejected() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel_with_tokens("c", x, 1, y, 1, 3).unwrap();
        let g = b.build().unwrap();
        let err =
            capacities_as_channels(&g, &StorageDistribution::from_capacities(vec![2])).unwrap_err();
        assert!(matches!(err, AnalysisError::Graph(_)));
    }

    #[test]
    fn transformed_graph_throughput_value() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let t = capacities_as_channels(&g, &d).unwrap();
        let r = throughput_for(
            &t,
            Capacities::unbounded(t.num_channels()),
            t.actor_by_name("c").unwrap(),
            ExplorationLimits::default(),
        )
        .unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
    }
}
