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
//! test oracle. Both read one flat out-edge index per call: an offsets
//! array and one packed array of out-edges, each node's in edge-list
//! order.
//!
//! Howard's iteration is integer-exact. A policy picks one out-edge per
//! node; each cycle it closes has one ratio `W/T`, normalised once, and
//! every node of the tree draining into that cycle carries it. A node's
//! value is an `i128` numerator over its ratio's denominator,
//! `v(u) = T·w(e) − W·tokens(e) + v(succ)`. The ratio phase compares
//! ratios as [`Rational`]s; the value phase compares a node's candidate
//! edges only when their targets carry the node's own ratio, so every
//! comparison there is between integers over one denominator. The
//! decisions, and with them the rounds and the result, are those of the
//! same iteration in normalised rational arithmetic (the unit tests keep
//! that iteration as their reference), with one gcd per policy cycle
//! instead of one per node and edge. Cycle sums are exact for any `u64`
//! weights and tokens; a node value that leaves `i128` is reported as
//! [`GraphError::ArithmeticOverflow`], never a panic.

use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId, GraphError, Rational};

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
        let num_nodes = offsets[model.num_actors()];
        let mut edges = sort_edges(num_nodes, expansion_edges(model, &offsets));
        edges.dedup_by_key(|e| (e.from, e.to));
        RatioGraph { num_nodes, edges }
    }
}

/// The unsorted edges of [`RatioGraph::expand`], parallel edges included,
/// over the node numbering `offsets` ([`firing_offsets`]).
fn expansion_edges<M: DataflowSemantics + ?Sized>(model: &M, offsets: &[usize]) -> Vec<RatioEdge> {
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
    edges
}

/// `edges` in the order of a stable sort by `(from, to, tokens)`: a
/// counting sort by `from` (every node below `num_nodes`), then each
/// node's edges by `(to, tokens)`. The expansion's edges of one node are
/// few, while a comparison sort of the whole list pays `log E` rounds over
/// all of them.
fn sort_edges(num_nodes: usize, edges: Vec<RatioEdge>) -> Vec<RatioEdge> {
    let Some(&first) = edges.first() else {
        return edges;
    };
    let mut starts = vec![0usize; num_nodes + 1];
    for e in &edges {
        starts[e.from + 1] += 1;
    }
    for v in 0..num_nodes {
        starts[v + 1] += starts[v];
    }
    let mut next = starts.clone();
    let mut sorted = vec![first; edges.len()];
    for e in edges {
        sorted[next[e.from]] = e;
        next[e.from] += 1;
    }
    for run in starts.windows(2) {
        sorted[run[0]..run[1]].sort_by_key(|e| (e.to, e.tokens));
    }
    sorted
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

/// One out-edge of the flat index: the target node and the edge's delay
/// and tokens.
#[derive(Clone, Copy)]
pub(crate) struct OutEdge {
    pub(crate) to: usize,
    pub(crate) weight: u64,
    pub(crate) tokens: u64,
}

/// The out-edges of a [`RatioGraph`] in one flat array: node `v`'s
/// out-edges are `edges[offsets[v] .. offsets[v + 1]]`, in edge-list
/// order (a stable counting sort by source). Howard's decisions follow
/// that order, so every consumer of the index sees the edges the way the
/// list states them.
pub(crate) struct OutEdges {
    offsets: Vec<usize>,
    edges: Vec<OutEdge>,
}

impl OutEdges {
    pub(crate) fn new(g: &RatioGraph) -> OutEdges {
        let mut offsets = vec![0usize; g.num_nodes + 1];
        for e in &g.edges {
            offsets[e.from + 1] += 1;
        }
        for v in 0..g.num_nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut edges = vec![
            OutEdge {
                to: 0,
                weight: 0,
                tokens: 0,
            };
            g.edges.len()
        ];
        for e in &g.edges {
            edges[fill[e.from]] = OutEdge {
                to: e.to,
                weight: e.weight,
                tokens: e.tokens,
            };
            fill[e.from] += 1;
        }
        OutEdges { offsets, edges }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The out-edges of node `v`, in edge-list order.
    pub(crate) fn of(&self, v: usize) -> &[OutEdge] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Checks that no cycle is token-free (a token-free cycle deadlocks: no
/// firing on it can ever start): Kahn's algorithm on the zero-token
/// edges.
fn check_live(index: &OutEdges) -> Result<(), AnalysisError> {
    let n = index.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in index.edges.iter().filter(|e| e.tokens == 0) {
        indeg[e.to] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut seen = 0;
    while let Some(v) = queue.pop() {
        seen += 1;
        for e in index.of(v).iter().filter(|e| e.tokens == 0) {
            indeg[e.to] -= 1;
            if indeg[e.to] == 0 {
                queue.push(e.to);
            }
        }
    }
    if seen == n {
        Ok(())
    } else {
        Err(AnalysisError::NotLive)
    }
}

/// The strongly connected components of the index (iterative Tarjan),
/// as contiguous runs of one array: component `c` is
/// `order[starts[c] .. starts[c + 1]]`, components and their nodes in
/// Tarjan's pop order. `position[v]` is `v`'s place in `order`.
struct Components {
    order: Vec<usize>,
    starts: Vec<usize>,
    position: Vec<usize>,
}

impl Components {
    fn new(index: &OutEdges) -> Components {
        const UNNUMBERED: usize = usize::MAX;
        let n = index.num_nodes();
        let mut number = vec![UNNUMBERED; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::with_capacity(n);
        // (node, next out-edge to follow)
        let mut call: Vec<(usize, usize)> = Vec::new();
        let mut order = Vec::with_capacity(n);
        let mut starts = vec![0];
        let mut position = vec![0usize; n];
        let mut next = 0usize;
        for root in 0..n {
            if number[root] != UNNUMBERED {
                continue;
            }
            number[root] = next;
            lowlink[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = true;
            call.push((root, index.offsets[root]));
            while let Some(&mut (v, ref mut at)) = call.last_mut() {
                if *at < index.offsets[v + 1] {
                    let w = index.edges[*at].to;
                    *at += 1;
                    if number[w] == UNNUMBERED {
                        number[w] = next;
                        lowlink[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, index.offsets[w]));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(number[w]);
                    }
                    continue;
                }
                if lowlink[v] == number[v] {
                    loop {
                        let w = stack.pop().expect("v is on the stack");
                        on_stack[w] = false;
                        position[w] = order.len();
                        order.push(w);
                        if w == v {
                            break;
                        }
                    }
                    starts.push(order.len());
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
            }
        }
        Components {
            order,
            starts,
            position,
        }
    }
}

/// Maximum cycle ratio `max over cycles Σweight / Σtokens` via Howard's
/// policy iteration, integer-exact (see the module docs): each policy
/// cycle's ratio `W/T` is one normalised [`Rational`], each node value
/// an `i128` numerator over its cycle's `T`, and the value phase only
/// compares candidates at the node's own ratio, so over one
/// denominator. The decisions are those of the iteration in normalised
/// rational arithmetic, taken in the same order: a node's edges in
/// edge-list order, the strongly connected components in Tarjan's pop
/// order.
///
/// Returns `Ok(None)` when the graph has no cycle at all.
///
/// # Errors
///
/// - [`AnalysisError::NotLive`] if some cycle carries no tokens;
/// - [`AnalysisError::McmDidNotConverge`] if policy iteration exceeds its
///   safety cap (indicates a bug or pathological input);
/// - [`AnalysisError::Graph`] with
///   [`GraphError::ArithmeticOverflow`] when a node value, a numerator
///   over its cycle's denominator, leaves the `i128` range. That takes
///   products of a weight or a token count with a ratio's numerator or
///   denominator near 2¹²⁷; cycle sums themselves are exact for any `u64`
///   weights and tokens.
pub fn max_cycle_ratio(g: &RatioGraph) -> Result<Option<Rational>, AnalysisError> {
    max_cycle_ratio_counted(g).map(|(ratio, _)| ratio)
}

/// [`max_cycle_ratio`] and the number of policy evaluations it ran,
/// summed over the components.
pub(crate) fn max_cycle_ratio_counted(
    g: &RatioGraph,
) -> Result<(Option<Rational>, usize), AnalysisError> {
    let index = OutEdges::new(g);
    check_live(&index)?;
    let comps = Components::new(&index);

    // The intra-component out-edges of every node, nodes in `order`,
    // targets as indices local to their component.
    let n = g.num_nodes;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut edges = Vec::with_capacity(g.edges.len());
    for run in comps.starts.windows(2) {
        let (start, end) = (run[0], run[1]);
        for &v in &comps.order[start..end] {
            for e in index.of(v) {
                let at = comps.position[e.to];
                if (start..end).contains(&at) {
                    edges.push(OutEdge {
                        to: at - start,
                        ..*e
                    });
                }
            }
            offsets.push(edges.len());
        }
    }

    let mut howard = Howard::new(n);
    let mut best: Option<Rational> = None;
    let mut rounds = 0;
    for run in comps.starts.windows(2) {
        let component = Component {
            offsets: &offsets[run[0]..=run[1]],
            edges: &edges,
        };
        if let Some(lambda) = howard.solve(&component, &mut rounds)? {
            best = Some(best.map_or(lambda, |b| b.max(lambda)));
        }
    }
    Ok((best, rounds))
}

/// One strongly connected component: local node `i`'s out-edges inside
/// the component are `edges[offsets[i] .. offsets[i + 1]]`.
struct Component<'a> {
    offsets: &'a [usize],
    edges: &'a [OutEdge],
}

impl Component<'_> {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Indices into `edges` of local node `i`'s out-edges.
    fn out(&self, i: usize) -> core::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }
}

/// The policy-iteration buffers, sized once per call for the whole graph
/// and reused by every component.
struct Howard {
    /// Each node's policy edge (an index into the component's edges).
    policy: Vec<usize>,
    /// Each node's policy cycle (an index into `ratios`).
    cycle: Vec<usize>,
    /// Each node's value, a numerator over its cycle ratio's denominator.
    value: Vec<i128>,
    /// `UNSEEN`, `ON_PATH`, `ROOT` (a cycle's entry, value 0 by
    /// convention) or `DONE`.
    colour: Vec<u8>,
    path: Vec<usize>,
    /// The normalised ratio of every cycle of the current policy.
    ratios: Vec<Rational>,
}

// The colours of a node in `Howard::evaluate`.
const UNSEEN: u8 = 0;
const ON_PATH: u8 = 1;
const ROOT: u8 = 2;
const DONE: u8 = 3;

impl Howard {
    fn new(num_nodes: usize) -> Howard {
        Howard {
            policy: vec![0; num_nodes],
            cycle: vec![0; num_nodes],
            value: vec![0; num_nodes],
            colour: vec![UNSEEN; num_nodes],
            path: Vec::with_capacity(num_nodes),
            ratios: Vec::with_capacity(num_nodes),
        }
    }

    /// Runs Howard's algorithm on one component and adds its policy
    /// evaluations to `rounds`; `None` when the component holds no cycle
    /// (one node without a self-edge).
    fn solve(
        &mut self,
        comp: &Component<'_>,
        rounds: &mut usize,
    ) -> Result<Option<Rational>, AnalysisError> {
        let n = comp.len();
        if n == 1 && comp.out(0).is_empty() {
            return Ok(None);
        }
        // Inside a non-trivial component every node has an out-edge
        // within it.
        debug_assert!((0..n).all(|i| !comp.out(i).is_empty()));
        for i in 0..n {
            self.policy[i] = comp.offsets[i];
        }
        let cap = 1000 + 20 * n * n.max(4);
        for _ in 0..cap {
            *rounds += 1;
            let improved = self
                .evaluate(comp)
                .and_then(|()| Some(self.improve_ratios(comp) || self.improve_values(comp)?));
            match improved {
                Some(true) => continue,
                Some(false) => return Ok(self.ratios.iter().copied().max()),
                None => {
                    return Err(AnalysisError::Graph(GraphError::ArithmeticOverflow {
                        operation: "cycle-ratio policy value".to_string(),
                    }))
                }
            }
        }
        Err(AnalysisError::McmDidNotConverge)
    }

    /// Computes each node's cycle ratio and value under the current
    /// policy (a functional graph: each node has exactly one successor);
    /// `None` when a value leaves `i128`.
    fn evaluate(&mut self, comp: &Component<'_>) -> Option<()> {
        let n = comp.len();
        self.colour[..n].fill(UNSEEN);
        self.ratios.clear();
        for start in 0..n {
            if self.colour[start] != UNSEEN {
                continue;
            }
            // Follow the policy path.
            self.path.clear();
            let mut u = start;
            while self.colour[u] == UNSEEN {
                self.colour[u] = ON_PATH;
                self.path.push(u);
                u = comp.edges[self.policy[u]].to;
            }
            let mut tree = self.path.len();
            if self.colour[u] == ON_PATH {
                // A new cycle, entered at `u`: its ratio, then root value
                // 0 at the entry and the cycle walked backwards.
                tree = self.path.iter().position(|&x| x == u).expect("on path");
                let (mut w, mut t) = (0i128, 0i128);
                for &v in &self.path[tree..] {
                    let e = comp.edges[self.policy[v]];
                    w += i128::from(e.weight);
                    t += i128::from(e.tokens);
                }
                debug_assert!(t > 0, "liveness was checked");
                let id = self.ratios.len();
                self.ratios.push(Rational::new(w, t));
                self.cycle[u] = id;
                self.value[u] = 0;
                self.colour[u] = ROOT;
                for at in (tree + 1..self.path.len()).rev() {
                    let v = self.path[at];
                    self.cycle[v] = id;
                    self.value[v] = self.candidate(comp, self.policy[v], id)?;
                    self.colour[v] = DONE;
                }
            }
            // Unwind the tree part of the path in reverse, each node
            // taking its (evaluated) successor's cycle.
            for at in (0..tree).rev() {
                let v = self.path[at];
                let id = self.cycle[comp.edges[self.policy[v]].to];
                self.cycle[v] = id;
                self.value[v] = self.candidate(comp, self.policy[v], id)?;
                self.colour[v] = DONE;
            }
        }
        Some(())
    }

    /// `T·w(e) − W·tokens(e) + v(target)` for edge `e` under the ratio
    /// `W/T` of cycle `id`: the value edge `e` gives its source, as a
    /// numerator over `T`; `None` outside `i128`.
    fn candidate(&self, comp: &Component<'_>, e: usize, id: usize) -> Option<i128> {
        let edge = comp.edges[e];
        let ratio = self.ratios[id];
        times(ratio.denom(), edge.weight)?
            .checked_sub(times(ratio.numer(), edge.tokens)?)?
            .checked_add(self.value[edge.to])
    }

    /// Phase 1: each node switches to its first out-edge whose target
    /// lies on a cycle of larger ratio. Whether any node switched.
    fn improve_ratios(&mut self, comp: &Component<'_>) -> bool {
        let mut improved = false;
        for i in 0..comp.len() {
            let own = self.cycle[i];
            for e in comp.out(i) {
                let x = self.cycle[comp.edges[e].to];
                if x != own && self.ratios[x] > self.ratios[own] && self.policy[i] != e {
                    self.policy[i] = e;
                    improved = true;
                    break;
                }
            }
        }
        improved
    }

    /// Phase 2, at equal ratio: each node switches to its first out-edge
    /// whose value beats its policy edge's. Whether any node switched;
    /// `None` when a value leaves `i128`.
    ///
    /// The policy edge's value is the node's own, except at a cycle root,
    /// whose value is 0 by convention (comparing against that would
    /// switch spuriously); there it is computed.
    fn improve_values(&mut self, comp: &Component<'_>) -> Option<bool> {
        let mut improved = false;
        for i in 0..comp.len() {
            let own = self.cycle[i];
            let current = if self.colour[i] == ROOT {
                self.candidate(comp, self.policy[i], own)?
            } else {
                self.value[i]
            };
            for e in comp.out(i) {
                let x = self.cycle[comp.edges[e].to];
                if (x != own && self.ratios[x] != self.ratios[own]) || self.policy[i] == e {
                    continue;
                }
                if self.candidate(comp, e, own)? > current {
                    self.policy[i] = e;
                    improved = true;
                    break;
                }
            }
        }
        Some(improved)
    }
}

/// `factor · x` for a non-negative `factor`, or `None` outside the
/// `i128` range. Below 2⁶⁴ the factor takes one widening multiplication.
fn times(factor: i128, x: u64) -> Option<i128> {
    match u64::try_from(factor) {
        Ok(f) => i128::try_from(u128::from(f) * u128::from(x)).ok(),
        Err(_) => factor.checked_mul(i128::from(x)),
    }
}

/// Exponential-time oracle: enumerates all simple cycles by DFS and takes
/// the maximum ratio. Use only on small graphs (tests, cross-validation).
///
/// # Errors
///
/// [`AnalysisError::NotLive`] if some cycle carries no tokens.
pub fn max_cycle_ratio_brute_force(g: &RatioGraph) -> Result<Option<Rational>, AnalysisError> {
    fn dfs(
        index: &OutEdges,
        start: usize,
        v: usize,
        on_path: &mut [bool],
        (w_sum, t_sum): (i128, i128),
        best: &mut Option<Rational>,
    ) {
        for e in index.of(v) {
            let sums = (w_sum + i128::from(e.weight), t_sum + i128::from(e.tokens));
            if e.to < start {
                continue; // canonical: cycles rooted at their min node
            }
            if e.to == start {
                let ratio = Rational::new(sums.0, sums.1);
                *best = Some(best.map_or(ratio, |b| b.max(ratio)));
            } else if !on_path[e.to] {
                on_path[e.to] = true;
                dfs(index, start, e.to, on_path, sums, best);
                on_path[e.to] = false;
            }
        }
    }

    let index = OutEdges::new(g);
    check_live(&index)?;
    let mut best: Option<Rational> = None;
    let mut on_path = vec![false; g.num_nodes];
    for start in 0..g.num_nodes {
        on_path[start] = true;
        dfs(&index, start, start, &mut on_path, (0, 0), &mut best);
        on_path[start] = false;
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

    /// The policy iteration in normalised `Rational` arithmetic, with its
    /// own adjacency lists, that [`max_cycle_ratio`] replaced: the
    /// reference for its decisions. Returns the result and the number of
    /// policy evaluations; `Rational` overflow panics.
    mod rational_howard {
        use super::*;

        pub(super) fn max_cycle_ratio(
            g: &RatioGraph,
        ) -> Result<(Option<Rational>, usize), AnalysisError> {
            check_live(g)?;
            let mut adj = vec![Vec::new(); g.num_nodes];
            for (i, e) in g.edges.iter().enumerate() {
                adj[e.from].push(i);
            }
            let succ: Vec<Vec<usize>> = adj
                .iter()
                .map(|es| es.iter().map(|&e| g.edges[e].to).collect())
                .collect();
            let mut best: Option<Rational> = None;
            let mut rounds = 0;
            for comp in sccs(g.num_nodes, &succ) {
                if let Some(lambda) = howard_on_component(g, &adj, &comp, &mut rounds)? {
                    best = Some(best.map_or(lambda, |b| b.max(lambda)));
                }
            }
            Ok((best, rounds))
        }

        fn check_live(g: &RatioGraph) -> Result<(), AnalysisError> {
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

        fn howard_on_component(
            g: &RatioGraph,
            adj: &[Vec<usize>],
            comp: &[usize],
            rounds: &mut usize,
        ) -> Result<Option<Rational>, AnalysisError> {
            let mut in_comp = vec![false; g.num_nodes];
            for &v in comp {
                in_comp[v] = true;
            }
            let out: Vec<Vec<usize>> = comp
                .iter()
                .map(|&v| {
                    adj[v]
                        .iter()
                        .copied()
                        .filter(|&e| in_comp[g.edges[e].to])
                        .collect()
                })
                .collect();
            if comp.len() == 1 && out[0].is_empty() {
                return Ok(None);
            }
            let mut local = vec![usize::MAX; g.num_nodes];
            for (i, &v) in comp.iter().enumerate() {
                local[v] = i;
            }
            let n = comp.len();
            let mut policy: Vec<usize> = out.iter().map(|es| es[0]).collect();
            let mut lambda = vec![Rational::ZERO; n];
            let mut value = vec![Rational::ZERO; n];
            let cap = 1000 + 20 * n * n.max(4);
            for _round in 0..cap {
                *rounds += 1;
                evaluate_policy(g, &local, &policy, &mut lambda, &mut value);
                let mut improved = false;
                for (i, es) in out.iter().enumerate() {
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
                for (i, es) in out.iter().enumerate() {
                    let cand_of = |e: usize| {
                        let edge = g.edges[e];
                        let x = local[edge.to];
                        Rational::from(edge.weight) - lambda[i] * Rational::from(edge.tokens)
                            + value[x]
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
                    return Ok(Some(lambda.iter().copied().max().expect("non-empty")));
                }
            }
            Err(AnalysisError::McmDidNotConverge)
        }

        fn evaluate_policy(
            g: &RatioGraph,
            local: &[usize],
            policy: &[usize],
            lambda: &mut [Rational],
            value: &mut [Rational],
        ) {
            let n = policy.len();
            let mut color = vec![0u8; n];
            for start in 0..n {
                if color[start] != 0 {
                    continue;
                }
                let mut path = Vec::new();
                let mut u = start;
                while color[u] == 0 {
                    color[u] = 1;
                    path.push(u);
                    u = local[g.edges[policy[u]].to];
                }
                if color[u] == 1 {
                    let pos = path.iter().position(|&x| x == u).expect("on path");
                    let cycle = &path[pos..];
                    let mut w_sum = Rational::ZERO;
                    let mut t_sum = Rational::ZERO;
                    for &v in cycle {
                        let e = g.edges[policy[v]];
                        w_sum += Rational::from(e.weight);
                        t_sum += Rational::from(e.tokens);
                    }
                    let lam = w_sum / t_sum;
                    lambda[cycle[0]] = lam;
                    value[cycle[0]] = Rational::ZERO;
                    for i in (1..cycle.len()).rev() {
                        let v = cycle[i];
                        let e = g.edges[policy[v]];
                        let succ = cycle[(i + 1) % cycle.len()];
                        lambda[v] = lam;
                        value[v] =
                            Rational::from(e.weight) - lam * Rational::from(e.tokens) + value[succ];
                    }
                    for &v in cycle {
                        color[v] = 2;
                    }
                }
                for &v in path.iter().rev() {
                    if color[v] == 2 {
                        continue;
                    }
                    let e = g.edges[policy[v]];
                    let succ = local[e.to];
                    lambda[v] = lambda[succ];
                    value[v] = Rational::from(e.weight) - lambda[v] * Rational::from(e.tokens)
                        + value[succ];
                    color[v] = 2;
                }
            }
        }
    }

    /// xorshift64, the generator of the random test graphs.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// The result and round count of [`max_cycle_ratio_counted`] on `g`,
    /// which must equal the `Rational` reference's (an overflow panic of
    /// the reference must be an overflow error of the kernel) and, on
    /// graphs small enough to enumerate, the brute force's result.
    fn same_decisions(g: &RatioGraph) -> Result<(Option<Rational>, usize), AnalysisError> {
        let new = max_cycle_ratio_counted(g);
        match std::panic::catch_unwind(|| rational_howard::max_cycle_ratio(g)) {
            Ok(old) => assert_eq!(new, old, "{g:?}"),
            Err(_) => assert!(
                matches!(
                    new,
                    Err(AnalysisError::Graph(GraphError::ArithmeticOverflow { .. }))
                ),
                "reference overflowed, kernel returned {new:?}: {g:?}"
            ),
        }
        if g.num_nodes <= 7 && g.edges.len() <= 14 {
            let brute = max_cycle_ratio_brute_force(g);
            match &new {
                Ok((ratio, _)) => assert_eq!(brute, Ok(*ratio), "{g:?}"),
                Err(AnalysisError::NotLive) => assert_eq!(brute, Err(AnalysisError::NotLive)),
                Err(AnalysisError::Graph(GraphError::ArithmeticOverflow { .. })) => {}
                Err(e) => panic!("{e:?} on an enumerable graph: {g:?}"),
            }
        }
        new
    }

    /// A random graph of `clusters` groups of nodes: unsorted edges,
    /// parallel edges, self-loops, zero weights, zero-token edges (so
    /// token-free cycles too) and cross edges from lower to higher
    /// groups, which keep the groups apart as components.
    fn random_ratio_graph(rng: &mut impl FnMut() -> u64, max_nodes: u64) -> RatioGraph {
        let n = 1 + (rng() % max_nodes) as usize;
        let clusters = 1 + (rng() % 3) as usize;
        let cluster = |v: usize| v * clusters / n;
        let mut edges = Vec::new();
        for _ in 0..n + (rng() % (2 * n as u64 + 1)) as usize {
            let from = (rng() % n as u64) as usize;
            let mut to = (rng() % n as u64) as usize;
            if cluster(to) < cluster(from) {
                to = from; // a self-loop instead of a back edge
            }
            let edge = RatioEdge {
                from,
                to,
                weight: if rng().is_multiple_of(5) {
                    0
                } else {
                    rng() % 10
                },
                tokens: rng() % 4 / 2 + rng() % 2, // 0 with probability 1/4
            };
            edges.push(edge);
            if rng().is_multiple_of(8) {
                edges.push(RatioEdge {
                    weight: rng() % 10,
                    tokens: rng() % 3,
                    ..edge
                });
            }
        }
        RatioGraph {
            num_nodes: n,
            edges,
        }
    }

    /// Whether some component of `g` needed more than one policy
    /// evaluation, i.e. the iteration switched a policy edge.
    fn switched(g: &RatioGraph, rounds: usize) -> bool {
        let index = OutEdges::new(g);
        let comps = Components::new(&index);
        let cyclic = comps
            .starts
            .windows(2)
            .filter(|run| {
                let first = comps.order[run[0]];
                run[1] - run[0] > 1 || index.of(first).iter().any(|e| e.to == first)
            })
            .count();
        rounds > cyclic
    }

    #[test]
    fn kernel_makes_the_rational_references_decisions_on_random_graphs() {
        let mut rng = xorshift(0x9e3779b97f4a7c15);
        let (mut live, mut dead, mut multi_round) = (0, 0, 0);
        for max_nodes in [7, 7, 7, 40] {
            for _ in 0..600 {
                let g = random_ratio_graph(&mut rng, max_nodes);
                match same_decisions(&g) {
                    Ok((_, rounds)) => {
                        live += 1;
                        multi_round += usize::from(switched(&g, rounds));
                    }
                    Err(AnalysisError::NotLive) => dead += 1,
                    Err(e) => panic!("{e:?}: {g:?}"),
                }
            }
        }
        // The family exercises both outcomes and repeated rounds.
        assert!(live > 500 && dead > 500, "{live} live, {dead} not live");
        assert!(multi_round > 200, "{multi_round}");
    }

    /// A random consistent SDF graph: a chain or tree of actors with
    /// mixed rates derived from a random repetition vector, plus extra
    /// channels (feedback ones with random initial tokens).
    fn random_sdf(rng: &mut impl FnMut() -> u64) -> SdfGraph {
        let actors = 2 + (rng() % 4) as usize;
        let q: Vec<u64> = (0..actors).map(|_| 1 + rng() % 4).collect();
        let mut b = SdfGraph::builder("random");
        let ids: Vec<ActorId> = (0..actors)
            .map(|a| b.actor(format!("a{a}"), rng() % 6))
            .collect();
        let mut count = 0;
        let mut channel = |b: &mut buffy_graph::SdfGraphBuilder, x: usize, y: usize, k: u64, t| {
            let g = buffy_graph::gcd_u64(q[x], q[y]);
            count += 1;
            b.channel_with_tokens(
                format!("c{count}"),
                ids[x],
                k * q[y] / g,
                ids[y],
                k * q[x] / g,
                t,
            )
            .unwrap();
        };
        for y in 1..actors {
            let x = (rng() % y as u64) as usize;
            channel(&mut b, x, y, 1 + rng() % 2, 0);
        }
        for _ in 0..rng() % 3 {
            let x = (rng() % actors as u64) as usize;
            let y = (rng() % actors as u64) as usize;
            let tokens = if y <= x { rng() % 12 } else { 0 };
            channel(&mut b, x, y, 1 + rng() % 2, tokens);
        }
        b.build().unwrap()
    }

    #[test]
    fn kernel_makes_the_rational_references_decisions_on_sdf_expansions() {
        let mut rng = xorshift(0x2545f4914f6cdd1d);
        let (mut live, mut dead, mut multi_round) = (0, 0, 0);
        for _ in 0..300 {
            let sdf = random_sdf(&mut rng);
            let cycles = sdf.repetition_cycles().unwrap();
            let mut g = RatioGraph::expand(&sdf, &cycles);
            for round in 0..2 {
                match same_decisions(&g) {
                    Ok((_, rounds)) => {
                        live += 1;
                        multi_round += usize::from(switched(&g, rounds));
                    }
                    Err(AnalysisError::NotLive) => dead += 1,
                    Err(e) => panic!("{e:?}: {g:?}"),
                }
                if round == 1 {
                    break;
                }
                // StaticBounds-shaped: capacity back-edges, consumer to
                // producer firing, appended after the sorted expansion
                // in reverse order.
                let back: Vec<RatioEdge> = g
                    .edges
                    .iter()
                    .rev()
                    .filter(|e| e.from != e.to)
                    .map(|e| RatioEdge {
                        from: e.to,
                        to: e.from,
                        weight: rng() % 6,
                        tokens: rng() % 3,
                    })
                    .collect();
                g.edges.extend(back);
            }
        }
        assert!(live > 200 && dead > 20, "{live} live, {dead} not live");
        assert!(multi_round > 30, "{multi_round}");
    }

    /// The counting sort of the expansion orders edges exactly like the
    /// comparison sort it replaced: on the raw expansion of every gallery
    /// graph, whose edges with equal `(from, to, tokens)` are identical
    /// (the weight is the source firing's time), and on random edge lists
    /// with parallel edges, self-loops and ties, against a stable sort.
    #[test]
    fn counting_sort_orders_edges_like_the_comparison_sort() {
        let mut graphs = buffy_gen::gallery::all();
        graphs.extend([
            buffy_gen::gallery::modem_power(),
            buffy_gen::gallery::cd2dat_power(),
            buffy_gen::gallery::h263_decoder_power(),
        ]);
        for g in &graphs {
            let offsets = firing_offsets(g, &g.repetition_cycles().unwrap());
            let raw = expansion_edges(g, &offsets);
            let mut old = raw.clone();
            old.sort_unstable_by_key(|e| (e.from, e.to, e.tokens));
            let sorted = sort_edges(*offsets.last().unwrap(), raw);
            assert_eq!(sorted, old, "{}", g.name());
        }
        let mut rng = xorshift(0x2545f4914f6cdd1d);
        for max_nodes in [1, 7, 40] {
            for _ in 0..300 {
                let g = random_ratio_graph(&mut rng, max_nodes);
                let mut old = g.edges.clone();
                old.sort_by_key(|e| (e.from, e.to, e.tokens));
                assert_eq!(sort_edges(g.num_nodes, g.edges), old);
            }
        }
        assert_eq!(sort_edges(3, Vec::new()), []);
    }

    #[test]
    fn cycle_sums_are_exact_for_u64_max_weights() {
        // Two u64::MAX weights on a one-token ring.
        let ring = |weights: [u64; 2]| RatioGraph {
            num_nodes: 2,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: weights[0],
                    tokens: 0,
                },
                RatioEdge {
                    from: 1,
                    to: 0,
                    weight: weights[1],
                    tokens: 1,
                },
            ],
        };
        let g = ring([u64::MAX; 2]);
        let twice = Rational::from_integer(2 * i128::from(u64::MAX));
        assert_eq!(max_cycle_ratio(&g), Ok(Some(twice)));
        assert_eq!(same_decisions(&g).unwrap().0, Some(twice));

        // Random graphs of huge weights and at most one token per edge:
        // exact, never an overflow, the reference's decisions.
        let mut rng = xorshift(0xd1b54a32d192ed03);
        let huge = [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1, u64::MAX / 3];
        let (mut live, mut multi_round) = (0, 0);
        for _ in 0..800 {
            let mut g = random_ratio_graph(&mut rng, 9);
            for e in &mut g.edges {
                e.weight = huge[(rng() % 4) as usize] - rng() % 3;
                e.tokens = e.tokens.min(1);
            }
            match same_decisions(&g) {
                Ok((_, rounds)) => {
                    live += 1;
                    multi_round += usize::from(switched(&g, rounds));
                }
                Err(AnalysisError::NotLive) => {}
                Err(e) => panic!("{e:?}: {g:?}"),
            }
        }
        assert!(live > 200 && multi_round > 50, "{live} live, {multi_round}");
    }

    #[test]
    fn value_overflow_is_an_error_not_a_panic() {
        // Ratio (2^65 − 3) / 2^64, already reduced: node 1's value, a
        // numerator of about 2^64 · 2^64 over 2^64, leaves i128; the
        // `Rational` reference panicked there.
        let g = RatioGraph {
            num_nodes: 2,
            edges: vec![
                RatioEdge {
                    from: 0,
                    to: 1,
                    weight: u64::MAX - 1,
                    tokens: u64::MAX,
                },
                RatioEdge {
                    from: 1,
                    to: 0,
                    weight: u64::MAX,
                    tokens: 1,
                },
            ],
        };
        let err = same_decisions(&g).unwrap_err();
        assert!(
            matches!(
                &err,
                AnalysisError::Graph(GraphError::ArithmeticOverflow { .. })
            ),
            "{err:?}"
        );
    }
}
