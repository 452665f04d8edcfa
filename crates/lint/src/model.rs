//! Graph helpers the rules share, written over the kernel's
//! [`DataflowSemantics`].
//!
//! Rules read a model only through that trait: per-phase rates, cycle
//! totals, repetition counts in phase cycles (for plain SDF a cycle is a
//! single firing) and the kernel's channel bounds. Each check is therefore
//! written once for every model class. The helpers here are the two graph
//! walks several rules need: weak connectivity and directed cycle search.

use buffy_analysis::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId};

/// The model's channels, in id order.
pub(crate) fn channels(model: &dyn DataflowSemantics) -> impl Iterator<Item = ChannelId> {
    (0..model.num_channels()).map(ChannelId::new)
}

/// The `(source, target)` pairs of the channels `keep` selects.
pub(crate) fn edges(
    model: &dyn DataflowSemantics,
    keep: impl Fn(ChannelId) -> bool,
) -> Vec<(ActorId, ActorId)> {
    channels(model)
        .filter(|&c| keep(c))
        .map(|c| (model.channel_source(c), model.channel_target(c)))
        .collect()
}

/// Actors not weakly reachable from actor 0 (empty when connected).
pub(crate) fn unreachable_from_first(model: &dyn DataflowSemantics) -> Vec<ActorId> {
    let n = model.num_actors();
    if n == 0 {
        return Vec::new();
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (s, t) in edges(model, |_| true) {
        adj[s.index()].push(t.index());
        adj[t.index()].push(s.index());
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for &j in &adj[i] {
            if !seen[j] {
                seen[j] = true;
                stack.push(j);
            }
        }
    }
    (0..n).filter(|&i| !seen[i]).map(ActorId::new).collect()
}

/// Finds a directed cycle in the sub-graph spanned by `edges`, returned
/// as the actor sequence around the cycle (first actor repeated at the
/// end is implied, not included). Deterministic: the lowest-numbered
/// cycle found by DFS in edge order.
pub(crate) fn find_cycle(num_actors: usize, edges: &[(ActorId, ActorId)]) -> Option<Vec<ActorId>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_actors];
    for &(s, t) in edges {
        adj[s.index()].push(t.index());
    }
    // Colors: 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; num_actors];
    let mut parent = vec![usize::MAX; num_actors];
    for start in 0..num_actors {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit (node, next-edge-index) stack.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            if top.1 < adj[node].len() {
                let succ = adj[node][top.1];
                top.1 += 1;
                match color[succ] {
                    0 => {
                        color[succ] = 1;
                        parent[succ] = node;
                        stack.push((succ, 0));
                    }
                    1 => {
                        // Found a back edge node → succ: unwind the path.
                        let mut cycle = vec![ActorId::new(node)];
                        let mut cur = node;
                        while cur != succ {
                            cur = parent[cur];
                            cycle.push(ActorId::new(cur));
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_analysis::AnalysisError;
    use buffy_csdf::CsdfGraph;
    use buffy_graph::{GraphError, SdfGraph};

    fn sdf_example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sdf_view_normalizes() {
        // What the rules read of an SDF graph: single-phase rates, the
        // ordinary repetition vector and the BMLB lower bound.
        let g = sdf_example();
        let m: &dyn DataflowSemantics = &g;
        assert_eq!((m.name(), m.kind()), ("example", "sdf"));
        assert_eq!(channels(m).count(), 2);
        let alpha = ChannelId::new(0);
        assert_eq!(
            (m.cycle_production(alpha), m.cycle_consumption(alpha)),
            (2, 3)
        );
        assert_eq!(m.repetition_cycles().unwrap(), vec![3, 2, 1]);
        assert!(unreachable_from_first(m).is_empty());
        assert_eq!(m.actor_name(m.channel_source(alpha)), "a");
        assert_eq!(
            edges(m, |c| c == alpha),
            vec![(ActorId::new(0), ActorId::new(1))]
        );
        assert!(buffy_analysis::maximal_throughput(m, m.default_observed_actor()).is_ok());
        assert_eq!(m.channel_lower_bound(alpha), 4);
    }

    #[test]
    fn csdf_view_uses_cycle_totals() {
        let mut b = CsdfGraph::builder("pc");
        let p = b.actor("p", vec![1, 2]);
        let c = b.actor("c", vec![1]);
        let d = b.channel("d", p, vec![1, 2], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let m: &dyn DataflowSemantics = &g;
        assert_eq!(m.kind(), "csdf");
        assert_eq!((m.cycle_production(d), m.cycle_consumption(d)), (3, 1));
        assert_eq!((m.production(d, 0), m.production(d, 1)), (1, 2));
        assert_eq!(m.repetition_cycles().unwrap(), vec![1, 3]);
    }

    #[test]
    fn inconsistency_is_reported_with_channel() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 2, y, 1).unwrap();
        b.channel("bwd", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let sdf = g.repetition_cycles().unwrap_err();
        assert_eq!(
            sdf,
            AnalysisError::Graph(GraphError::Inconsistent {
                channel: "bwd".to_string()
            })
        );
        // The CSDF embedding names the same channel the same way.
        assert_eq!(CsdfGraph::from_sdf(&g).repetition_cycles(), Err(sdf));
    }

    #[test]
    fn disconnected_actors_listed() {
        let mut b = SdfGraph::builder("islands");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.actor("z", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(unreachable_from_first(&g), vec![ActorId::new(2)]);
    }

    #[test]
    fn cycle_finder() {
        let e = |s: usize, t: usize| (ActorId::new(s), ActorId::new(t));
        assert_eq!(find_cycle(3, &[e(0, 1), e(1, 2)]), None);
        let cycle = find_cycle(3, &[e(0, 1), e(1, 2), e(2, 0)]).unwrap();
        assert_eq!(cycle.len(), 3);
        // Self-loop is a one-node cycle.
        assert_eq!(find_cycle(2, &[e(1, 1)]), Some(vec![ActorId::new(1)]));
        // Diamond without a cycle.
        assert_eq!(find_cycle(4, &[e(0, 1), e(0, 2), e(1, 3), e(2, 3)]), None);
    }
}
