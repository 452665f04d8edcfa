//! Homogeneous expansion and maximum cycle ratio analysis (maximal
//! throughput, paper §9 / \[GG93\]).
//!
//! Every consistent model has an equivalent *homogeneous* graph with one
//! node per firing in an iteration and token-level dependency edges
//! between producing and consuming firings — the classical construction
//! (Bhattacharyya–Murthy–Lee for SDF, Bilsen et al. for CSDF), built once
//! for every model class by [`RatioGraph::expand`]. The maximal achievable
//! throughput of the model — the upper bound of the paper's binary search
//! in the throughput dimension — is governed by the critical cycle of that
//! expansion: with per-edge delay `w` (execution time of the producing
//! firing) and token count `t`, the iteration period equals the *maximum
//! cycle ratio* `λ* = max over cycles Σw / Σt`, and an actor with `f`
//! firings per iteration then achieves throughput `f / λ*`.
//!
//! Two algorithms are provided: Howard's policy iteration
//! ([`max_cycle_ratio`]) for production use, and an exponential
//! simple-cycle enumeration ([`max_cycle_ratio_brute_force`]) used as a
//! test oracle.

use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId, Rational};

/// An edge of a cycle-ratio problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatioEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Delay contributed by the edge.
    pub weight: u64,
    /// Tokens on the edge.
    pub tokens: u64,
}

/// A directed graph with delay/token annotated edges.
#[derive(Debug, Clone, Default)]
pub struct RatioGraph {
    /// Number of nodes (indices `0..num_nodes`).
    pub num_nodes: usize,
    /// The edges.
    pub edges: Vec<RatioEdge>,
}

impl RatioGraph {
    /// The homogeneous expansion of `model`, whose actor `a` completes
    /// `cycles[a]` phase cycles per iteration (the solution of the
    /// balance equations, [`DataflowSemantics::repetition_cycles`]).
    ///
    /// Node `n` is one firing of an iteration: the `cycles[a] ·
    /// phases(a)` firings of actor `a` are numbered contiguously, actors
    /// in id order. The edges are
    ///
    /// - *firing-order rings* `a_0 → a_1 → … → a_0` whose closing edge
    ///   carries one token: they serialize the firings of one actor,
    ///   modelling the paper's exclusion of auto-concurrency;
    /// - *data edges* from each producing firing to every firing that
    ///   consumes one of its tokens, carrying the iteration distance
    ///   (firing `m + tokens` of the target depends on firing `m` of the
    ///   source).
    ///
    /// An edge weighs the execution time of its source firing. Parallel
    /// edges are reduced to the minimum token count (the strongest
    /// precedence) and the edges are sorted by `(from, to)`, so a model
    /// always hands Howard's iteration the same list. The data edges are
    /// found per consuming firing, not per token: the cost grows with the
    /// number of edges, not with the tokens an iteration moves.
    ///
    /// # Examples
    ///
    /// ```
    /// use buffy_analysis::{DataflowSemantics, RatioEdge, RatioGraph};
    /// use buffy_graph::SdfGraph;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = SdfGraph::builder("example");
    /// let a = b.actor("a", 1);
    /// let bb = b.actor("b", 2);
    /// let c = b.actor("c", 2);
    /// b.channel("alpha", a, 2, bb, 3)?;
    /// b.channel("beta", bb, 1, c, 2)?;
    /// let g = b.build()?;
    /// let cycles = g.repetition_cycles()?; // [3, 2, 1]
    /// let h = RatioGraph::expand(&g, &cycles);
    /// assert_eq!(h.num_nodes, 6); // a0 a1 a2 b0 b1 c0
    /// // a1 produces the 3rd and 4th token of α: b0 and b1 consume them.
    /// let edge = |from, to| h.edges.iter().find(|e| (e.from, e.to) == (from, to));
    /// assert_eq!(edge(1, 3), Some(&RatioEdge { from: 1, to: 3, weight: 1, tokens: 0 }));
    /// assert_eq!(edge(1, 4), Some(&RatioEdge { from: 1, to: 4, weight: 1, tokens: 0 }));
    /// # Ok(())
    /// # }
    /// ```
    pub fn expand<M: DataflowSemantics + ?Sized>(model: &M, cycles: &[u64]) -> RatioGraph {
        let offsets = firing_offsets(model, cycles);
        let mut edges = Vec::new();

        // Firing-order rings.
        for a in 0..model.num_actors() {
            let actor = ActorId::new(a);
            let (base, firings) = (offsets[a], offsets[a + 1] - offsets[a]);
            for i in 0..firings {
                let next = (i + 1) % firings;
                edges.push(RatioEdge {
                    from: base + i,
                    to: base + next,
                    weight: firing_time(model, actor, i),
                    tokens: u64::from(next == 0),
                });
            }
        }

        // Token-level data dependencies.
        for c in 0..model.num_channels() {
            let channel = ChannelId::new(c);
            let (src, dst) = (model.channel_source(channel), model.channel_target(channel));
            let src_base = offsets[src.index()];
            let dst_base = offsets[dst.index()];
            let cum_c = consumption_prefix(model, channel, offsets[dst.index() + 1] - dst_base);
            let per_iter = cum_c[cum_c.len() - 1];
            if per_iter == 0 {
                continue; // nothing is ever consumed: no dependencies
            }
            let src_phases = model.num_phases(src) as usize;
            let mut next_token = model.initial_tokens(channel) + 1;
            for i in 0..offsets[src.index() + 1] - src_base {
                let end = next_token + model.production(channel, (i % src_phases) as u32);
                // Token `t` (1-based, counted over the whole execution)
                // is consumed in iteration `k = (t − 1) / C` by the first
                // firing `m` whose cumulative consumption reaches
                // `t − k·C`; that firing takes every token up to
                // `k·C + cum_c[m + 1]`, so the walk jumps past them.
                let mut t = next_token;
                while t < end {
                    let k = (t - 1) / per_iter;
                    let m = cum_c.partition_point(|&x| x < t - k * per_iter) - 1;
                    edges.push(RatioEdge {
                        from: src_base + i,
                        to: dst_base + m,
                        weight: firing_time(model, src, i),
                        tokens: k,
                    });
                    t = k * per_iter + cum_c[m + 1] + 1;
                }
                next_token = end;
            }
        }

        edges.sort_unstable_by_key(|e| (e.from, e.to, e.tokens));
        edges.dedup_by_key(|e| (e.from, e.to));
        RatioGraph {
            num_nodes: offsets[model.num_actors()],
            edges,
        }
    }

    pub(crate) fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_nodes];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.from].push(i);
        }
        adj
    }
}

/// The node numbering of [`RatioGraph::expand`]: actor `a`'s firings are
/// nodes `offsets[a] .. offsets[a + 1]`.
pub(crate) fn firing_offsets<M: DataflowSemantics + ?Sized>(
    model: &M,
    cycles: &[u64],
) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(cycles.len() + 1);
    offsets.push(0);
    for (a, &q) in cycles.iter().enumerate() {
        let firings = q * u64::from(model.num_phases(ActorId::new(a)));
        offsets.push(offsets[a] + firings as usize);
    }
    offsets
}

/// Execution time of the `firing`-th firing of `actor` within an
/// iteration.
pub(crate) fn firing_time<M: DataflowSemantics + ?Sized>(
    model: &M,
    actor: ActorId,
    firing: usize,
) -> u64 {
    let phases = model.num_phases(actor) as usize;
    model.execution_time(actor, (firing % phases) as u32)
}

/// Cumulative consumption from `channel` over the first `m` of its
/// consumer's `firings` firings of an iteration, for `m` in
/// `0 ..= firings`.
pub(crate) fn consumption_prefix<M: DataflowSemantics + ?Sized>(
    model: &M,
    channel: ChannelId,
    firings: usize,
) -> Vec<u64> {
    let phases = model.num_phases(model.channel_target(channel)) as usize;
    let mut cum = Vec::with_capacity(firings + 1);
    cum.push(0u64);
    for m in 0..firings {
        cum.push(cum[m] + model.consumption(channel, (m % phases) as u32));
    }
    cum
}

/// Strongly connected components of an adjacency-list digraph (iterative
/// Tarjan; local helper, the public SCC API for SDF graphs lives in
/// [`crate::graph_algos`]).
fn sccs(num_nodes: usize, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut index = vec![usize::MAX; num_nodes];
    let mut lowlink = vec![0usize; num_nodes];
    let mut on_stack = vec![false; num_nodes];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut comps = Vec::new();

    for root in 0..num_nodes {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next;
                lowlink[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *pos < succ[v].len() {
                let w = succ[v][*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("non-empty");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
            }
        }
    }
    comps
}

/// Checks that no cycle is token-free (a token-free cycle deadlocks: no
/// firing on it can ever start).
fn check_live(g: &RatioGraph) -> Result<(), AnalysisError> {
    // Kahn's algorithm on the zero-token subgraph.
    let mut indeg = vec![0usize; g.num_nodes];
    let mut succ = vec![Vec::new(); g.num_nodes];
    for e in &g.edges {
        if e.tokens == 0 {
            indeg[e.to] += 1;
            succ[e.from].push(e.to);
        }
    }
    let mut queue: Vec<usize> = (0..g.num_nodes).filter(|&v| indeg[v] == 0).collect();
    let mut seen = 0;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &w in &succ[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    if seen == g.num_nodes {
        Ok(())
    } else {
        Err(AnalysisError::NotLive)
    }
}

/// Maximum cycle ratio `max over cycles Σweight / Σtokens` via Howard's
/// policy iteration, exact rational arithmetic.
///
/// Returns `Ok(None)` when the graph has no cycle at all.
///
/// # Errors
///
/// - [`AnalysisError::NotLive`] if some cycle carries no tokens;
/// - [`AnalysisError::McmDidNotConverge`] if policy iteration exceeds its
///   safety cap (indicates a bug or pathological input).
pub fn max_cycle_ratio(g: &RatioGraph) -> Result<Option<Rational>, AnalysisError> {
    check_live(g)?;
    let adj = g.adjacency();
    let comps = sccs(
        g.num_nodes,
        &adj.iter()
            .map(|es| es.iter().map(|&e| g.edges[e].to).collect())
            .collect::<Vec<_>>(),
    );

    let mut best: Option<Rational> = None;
    for comp in comps {
        if let Some(lambda) = howard_on_component(g, &adj, &comp)? {
            best = Some(match best {
                Some(b) => b.max(lambda),
                None => lambda,
            });
        }
    }
    Ok(best)
}

/// Runs Howard's algorithm on one strongly connected component; returns
/// `None` when the component contains no cycle (single node, no
/// self-edge).
fn howard_on_component(
    g: &RatioGraph,
    adj: &[Vec<usize>],
    comp: &[usize],
) -> Result<Option<Rational>, AnalysisError> {
    let mut in_comp = vec![false; g.num_nodes];
    for &v in comp {
        in_comp[v] = true;
    }
    // Out-edges staying inside the component.
    let out: Vec<(usize, Vec<usize>)> = comp
        .iter()
        .map(|&v| {
            (
                v,
                adj[v]
                    .iter()
                    .copied()
                    .filter(|&e| in_comp[g.edges[e].to])
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    if comp.len() == 1 && out[0].1.is_empty() {
        return Ok(None); // trivial component, no cycle
    }
    // Inside a non-trivial SCC every node has an out-edge within the SCC.
    debug_assert!(out.iter().all(|(_, es)| !es.is_empty()));

    // Dense local numbering.
    let mut local = vec![usize::MAX; g.num_nodes];
    for (i, &v) in comp.iter().enumerate() {
        local[v] = i;
    }
    let n = comp.len();
    let mut policy: Vec<usize> = out.iter().map(|(_, es)| es[0]).collect();
    let mut lambda: Vec<Rational> = vec![Rational::ZERO; n];
    let mut value: Vec<Rational> = vec![Rational::ZERO; n];

    let cap = 1000 + 20 * n * n.max(4);
    for _round in 0..cap {
        evaluate_policy(g, comp, &local, &policy, &mut lambda, &mut value);

        // Phase 1: improve the cycle ratio.
        let mut improved = false;
        for (i, (_, es)) in out.iter().enumerate() {
            for &e in es {
                let x = local[g.edges[e].to];
                if lambda[x] > lambda[i] && policy[i] != e {
                    policy[i] = e;
                    improved = true;
                    break;
                }
            }
        }
        if improved {
            continue;
        }
        // Phase 2: improve the value function at equal ratio. Compare
        // candidate edges against the candidate of the *current policy
        // edge* (not against `value[i]`): at a cycle root the normalized
        // value is 0 by convention and comparing against it would cause
        // spurious switches.
        for (i, (_, es)) in out.iter().enumerate() {
            let cand_of = |e: usize| {
                let edge = g.edges[e];
                let x = local[edge.to];
                Rational::from(edge.weight) - lambda[i] * Rational::from(edge.tokens) + value[x]
            };
            let current = cand_of(policy[i]);
            for &e in es {
                let x = local[g.edges[e].to];
                if lambda[x] != lambda[i] || policy[i] == e {
                    continue;
                }
                if cand_of(e) > current {
                    policy[i] = e;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            let best = lambda.iter().copied().max().expect("non-empty");
            return Ok(Some(best));
        }
    }
    Err(AnalysisError::McmDidNotConverge)
}

/// Computes per-node cycle ratio and value under the current policy (a
/// functional graph: each node has exactly one successor).
fn evaluate_policy(
    g: &RatioGraph,
    comp: &[usize],
    local: &[usize],
    policy: &[usize],
    lambda: &mut [Rational],
    value: &mut [Rational],
) {
    let n = comp.len();
    // 0 = unvisited, 1 = in current path, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Follow the policy path.
        let mut path = Vec::new();
        let mut u = start;
        while color[u] == 0 {
            color[u] = 1;
            path.push(u);
            u = local[g.edges[policy[u]].to];
        }
        if color[u] == 1 {
            // Found a new cycle; u is its entry within `path`.
            let pos = path.iter().position(|&x| x == u).expect("on path");
            let cycle = &path[pos..];
            let mut w_sum = Rational::ZERO;
            let mut t_sum = Rational::ZERO;
            for &v in cycle {
                let e = g.edges[policy[v]];
                w_sum += Rational::from(e.weight);
                t_sum += Rational::from(e.tokens);
            }
            debug_assert!(t_sum > Rational::ZERO, "liveness was checked");
            let lam = w_sum / t_sum;
            // Root value 0 at the cycle entry, then walk the cycle
            // backwards: v(u_i) = w - λt + v(u_{i+1}).
            lambda[cycle[0]] = lam;
            value[cycle[0]] = Rational::ZERO;
            for i in (1..cycle.len()).rev() {
                let v = cycle[i];
                let e = g.edges[policy[v]];
                let succ = cycle[(i + 1) % cycle.len()];
                lambda[v] = lam;
                value[v] = Rational::from(e.weight) - lam * Rational::from(e.tokens) + value[succ];
            }
            for &v in cycle {
                color[v] = 2;
            }
        }
        // Unwind the tree part of the path in reverse, propagating from
        // the (now evaluated) successor.
        for &v in path.iter().rev() {
            if color[v] == 2 {
                continue;
            }
            let e = g.edges[policy[v]];
            let succ = local[e.to];
            debug_assert_eq!(color[succ], 2);
            lambda[v] = lambda[succ];
            value[v] =
                Rational::from(e.weight) - lambda[v] * Rational::from(e.tokens) + value[succ];
            color[v] = 2;
        }
    }
}

/// Exponential-time oracle: enumerates all simple cycles by DFS and takes
/// the maximum ratio. Use only on small graphs (tests, cross-validation).
///
/// # Errors
///
/// [`AnalysisError::NotLive`] if some cycle carries no tokens.
pub fn max_cycle_ratio_brute_force(g: &RatioGraph) -> Result<Option<Rational>, AnalysisError> {
    check_live(g)?;
    let adj = g.adjacency();
    let mut best: Option<Rational> = None;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        g: &RatioGraph,
        adj: &[Vec<usize>],
        start: usize,
        v: usize,
        on_path: &mut Vec<bool>,
        w_sum: u64,
        t_sum: u64,
        best: &mut Option<Rational>,
    ) {
        for &e in &adj[v] {
            let edge = g.edges[e];
            let w = edge.to;
            if w < start {
                continue; // canonical: cycles rooted at their min node
            }
            if w == start {
                let ratio =
                    Rational::new((w_sum + edge.weight) as i128, (t_sum + edge.tokens) as i128);
                *best = Some(match *best {
                    Some(b) => b.max(ratio),
                    None => ratio,
                });
            } else if !on_path[w] {
                on_path[w] = true;
                dfs(
                    g,
                    adj,
                    start,
                    w,
                    on_path,
                    w_sum + edge.weight,
                    t_sum + edge.tokens,
                    best,
                );
                on_path[w] = false;
            }
        }
    }

    for start in 0..g.num_nodes {
        let mut on_path = vec![false; g.num_nodes];
        on_path[start] = true;
        dfs(g, &adj, start, start, &mut on_path, 0, 0, &mut best);
    }
    Ok(best)
}

/// The maximal achievable throughput of `observed` over all storage
/// distributions, in firings per time unit: `f / λ*`, with `f =
/// q(observed) · phases(observed)` the observed actor's firings per
/// iteration and `λ*` the maximum cycle ratio of the homogeneous expansion
/// ([`RatioGraph::expand`], paper §9, \[GG93\]). One function serves every
/// model class.
///
/// # Errors
///
/// - graph inconsistency ([`AnalysisError::Graph`]);
/// - [`AnalysisError::NotLive`] for token-free cycles;
/// - [`AnalysisError::ZeroPeriod`] when every critical cycle has zero
///   delay (throughput would be unbounded).
///
/// # Examples
///
/// The paper states the running example's throughput "can never go above
/// 0.25":
///
/// ```
/// use buffy_analysis::maximal_throughput;
/// use buffy_graph::{Rational, SdfGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
/// assert_eq!(maximal_throughput(&g, c)?, Rational::new(1, 4));
/// # Ok(())
/// # }
/// ```
pub fn maximal_throughput<M: DataflowSemantics + ?Sized>(
    model: &M,
    observed: ActorId,
) -> Result<Rational, AnalysisError> {
    let cycles = model.repetition_cycles()?;
    // The firing-order rings guarantee at least one cycle per actor.
    let lambda = max_cycle_ratio(&RatioGraph::expand(model, &cycles))?
        .expect("firing-order rings create cycles");
    if lambda.is_zero() {
        return Err(AnalysisError::ZeroPeriod);
    }
    let firings = cycles[observed.index()] * u64::from(model.num_phases(observed));
    Ok(Rational::from(firings) / lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::SdfGraph;

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
    fn example_maximal_throughput_is_quarter() {
        let g = example();
        for (name, expect) in [
            ("a", Rational::new(3, 4)),
            ("b", Rational::new(1, 2)),
            ("c", Rational::new(1, 4)),
        ] {
            let actor = g.actor_by_name(name).unwrap();
            assert_eq!(
                maximal_throughput(&g, actor).unwrap(),
                expect,
                "actor {name}"
            );
        }
    }

    #[test]
    fn single_cycle_ratio() {
        // Triangle with weights 2,3,4 and tokens 0,1,1: cycles: the
        // triangle (9/2) only.
        let g = RatioGraph {
            num_nodes: 3,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: 2,
                    tokens: 0,
                },
                RatioEdge {
                    from: 1,
                    to: 2,
                    weight: 3,
                    tokens: 1,
                },
                RatioEdge {
                    from: 2,
                    to: 0,
                    weight: 4,
                    tokens: 1,
                },
            ],
        };
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Rational::new(9, 2)));
        assert_eq!(
            max_cycle_ratio_brute_force(&g).unwrap(),
            Some(Rational::new(9, 2))
        );
    }

    #[test]
    fn picks_the_critical_cycle() {
        // Two cycles sharing node 0: 0→1→0 ratio (1+1)/1 = 2 and
        // 0→2→0 ratio (5+1)/2 = 3.
        let g = RatioGraph {
            num_nodes: 3,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: 1,
                    tokens: 0,
                },
                RatioEdge {
                    from: 1,
                    to: 0,
                    weight: 1,
                    tokens: 1,
                },
                RatioEdge {
                    from: 0,
                    to: 2,
                    weight: 5,
                    tokens: 1,
                },
                RatioEdge {
                    from: 2,
                    to: 0,
                    weight: 1,
                    tokens: 1,
                },
            ],
        };
        assert_eq!(
            max_cycle_ratio(&g).unwrap(),
            Some(Rational::from_integer(3))
        );
    }

    #[test]
    fn acyclic_graph_has_no_ratio() {
        let g = RatioGraph {
            num_nodes: 3,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: 1,
                    tokens: 1,
                },
                RatioEdge {
                    from: 1,
                    to: 2,
                    weight: 1,
                    tokens: 0,
                },
            ],
        };
        assert_eq!(max_cycle_ratio(&g).unwrap(), None);
        assert_eq!(max_cycle_ratio_brute_force(&g).unwrap(), None);
    }

    #[test]
    fn token_free_cycle_is_not_live() {
        let g = RatioGraph {
            num_nodes: 2,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: 1,
                    tokens: 0,
                },
                RatioEdge {
                    from: 1,
                    to: 0,
                    weight: 1,
                    tokens: 0,
                },
            ],
        };
        assert_eq!(max_cycle_ratio(&g).unwrap_err(), AnalysisError::NotLive);
        let mut b = SdfGraph::builder("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel("r", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            maximal_throughput(&g, x).unwrap_err(),
            AnalysisError::NotLive
        );
    }

    #[test]
    fn self_loop_ratio() {
        let g = RatioGraph {
            num_nodes: 1,
            edges: vec![RatioEdge {
                from: 0,
                to: 0,
                weight: 7,
                tokens: 2,
            }],
        };
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Rational::new(7, 2)));
    }

    #[test]
    fn howard_matches_brute_force_on_dense_graphs() {
        // Deterministic pseudo-random small graphs.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..60 {
            let n = 2 + (rng() % 5) as usize;
            let m = n + (rng() % (2 * n as u64)) as usize;
            let mut edges = Vec::new();
            for _ in 0..m {
                edges.push(RatioEdge {
                    from: (rng() % n as u64) as usize,
                    to: (rng() % n as u64) as usize,
                    weight: rng() % 10,
                    tokens: 1 + rng() % 3, // ≥1 token keeps every cycle live
                });
            }
            let g = RatioGraph {
                num_nodes: n,
                edges,
            };
            let howard = max_cycle_ratio(&g).unwrap();
            let brute = max_cycle_ratio_brute_force(&g).unwrap();
            assert_eq!(howard, brute, "case {case}: {g:?}");
        }
    }

    #[test]
    fn zero_execution_time_everywhere_is_zero_period() {
        let mut b = SdfGraph::builder("zero");
        let x = b.actor("x", 0);
        b.channel_with_tokens("s", x, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(
            maximal_throughput(&g, x).unwrap_err(),
            AnalysisError::ZeroPeriod
        );
    }

    #[test]
    fn cd2dat_maximal_throughput() {
        // Chain: no feedback cycles, so the bound comes from the
        // firing-order rings: λ* = max_a q(a)·t(a) = 160 (dat, exec 1) vs
        // 147 (cd/fir1) … = 160; thr(dat) = 160/160 = 1.
        let mut b = SdfGraph::builder("cd2dat");
        let cd = b.actor("cd", 1);
        let f1 = b.actor("fir1", 1);
        let f2 = b.actor("fir2", 1);
        let f3 = b.actor("fir3", 1);
        let f4 = b.actor("fir4", 1);
        let dat = b.actor("dat", 1);
        b.channel("c1", cd, 1, f1, 1).unwrap();
        b.channel("c2", f1, 2, f2, 3).unwrap();
        b.channel("c3", f2, 2, f3, 7).unwrap();
        b.channel("c4", f3, 8, f4, 7).unwrap();
        b.channel("c5", f4, 5, dat, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(maximal_throughput(&g, dat).unwrap(), Rational::ONE);
        assert_eq!(maximal_throughput(&g, cd).unwrap(), Rational::new(147, 160));
    }
}
