//! Static per-distribution throughput certificates (paper §9 extended).
//!
//! The exploration in `buffy-core` pays for a full state-space traversal
//! per storage distribution, yet a *sound upper bound* on the throughput
//! of one concrete distribution is available statically: modelling each
//! channel capacity as a reverse dependency carrying `capacity − tokens`
//! initial space turns the question into a maximum-cycle-ratio problem on
//! the homogeneous expansion — the same machinery behind
//! [`maximal_throughput`](crate::maximal_throughput), with extra
//! *back-edges* encoding the engine's claim-space-at-start /
//! release-at-end buffer protocol.
//!
//! [`StaticBounds`] precomputes everything distribution-independent (node
//! numbering, firing-order rings, token-level data edges, per-channel
//! back-edge templates) once per graph; [`StaticBounds::certificate`]
//! then instantiates the back-edges for a concrete
//! [`StorageDistribution`] and runs Howard's algorithm
//! ([`max_cycle_ratio`]) in exact rational arithmetic.
//!
//! # Soundness
//!
//! Every edge of the capacity-augmented ratio graph is an event-causal
//! necessity of the self-timed execution:
//!
//! - *ring edges* — an actor never auto-concurs, so firing `i+1` starts
//!   after firing `i` ends;
//! - *data edges* — a firing starts only when its input tokens exist,
//!   i.e. after the producing firing ends;
//! - *back-edges* — a firing claims its full output space when it
//!   *starts*: with `free₀ = capacity − initial_tokens`, the cumulative
//!   claim `n·C + t` of the producer's firing in iteration `n` needs
//!   `n·C + t − free₀` consumption events completed, which is a specific
//!   consumer firing of iteration `n − k` (the edge's `k` tokens).
//!
//! The maximum cycle ratio over necessary precedences lower-bounds the
//! iteration period, so `q(observed) / λ*` upper-bounds the exact
//! throughput; a token-free cycle is a circular same-iteration wait that
//! the engine can never resolve, so [`AnalysisError::NotLive`] proves a
//! genuine deadlock (throughput exactly zero). Both directions require a
//! *connected* graph: on a disconnected graph the global `λ*` may be set
//! by a component the observed actor never waits for, which would
//! *under*-bound it — [`StaticBounds`] therefore refuses to certify
//! disconnected models ([`StaticBounds::is_usable`] is `false`).

use crate::error::AnalysisError;
use crate::mcm::{max_cycle_ratio, RatioEdge, RatioGraph};
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use std::collections::BTreeMap;

/// A sound static throughput certificate for one storage distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundCertificate {
    /// Upper bound on the exact throughput of the observed actor under
    /// the certified distribution (firings per time unit).
    pub bound: Rational,
    /// The critical cycle ratio `λ*` of the capacity-augmented
    /// expansion; `None` when the distribution statically deadlocks.
    pub lambda: Option<Rational>,
    /// Whether the distribution is statically *proven* to deadlock (a
    /// token-free cycle in the augmented expansion); then `bound` is the
    /// exact throughput, zero.
    pub deadlocked: bool,
}

/// The distribution-independent part of one channel's back-edges.
#[derive(Debug, Clone)]
struct ChannelPlan {
    /// Tokens initially stored on the channel.
    initial_tokens: u64,
    /// Tokens transferred per graph iteration (`C`); zero means the
    /// channel is never written and needs no space.
    per_iter: u64,
    /// Per producer firing with non-zero production: its node index and
    /// the cumulative claim `t` after that firing (within one iteration).
    producers: Vec<(usize, u64)>,
    /// Cumulative consumption prefix over the consumer's firings
    /// (`cum_c[0] = 0`, length `firings + 1`).
    cum_c: Vec<u64>,
    /// Node index of each consumer firing.
    consumer_nodes: Vec<usize>,
    /// Execution time of each consumer firing (the back-edge weight).
    consumer_weights: Vec<u64>,
}

/// Precomputed capacity-augmented ratio-graph templates for one model.
///
/// Build once with [`StaticBounds::new`], then query
/// [`certificate`](StaticBounds::certificate) per distribution — the
/// per-call cost is one Howard run, no state-space simulation.
///
/// # Examples
///
/// ```
/// use buffy_analysis::StaticBounds;
/// use buffy_graph::{Rational, SdfGraph, StorageDistribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
///
/// let bounds = StaticBounds::new(&g, c)?;
/// let cert = bounds
///     .certificate(&StorageDistribution::from_capacities(vec![4, 2]))
///     .expect("connected graph");
/// assert!(cert.bound >= Rational::new(1, 7)); // never below the exact value
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaticBounds {
    num_nodes: usize,
    fixed: Vec<RatioEdge>,
    plans: Vec<ChannelPlan>,
    observed_firings: u64,
    usable: bool,
}

impl StaticBounds {
    /// Precomputes the ratio-graph templates of `model`, observing
    /// `observed`.
    ///
    /// # Errors
    ///
    /// An error when the model is inconsistent (no repetition vector).
    pub fn new<M: DataflowSemantics + ?Sized>(
        model: &M,
        observed: ActorId,
    ) -> Result<StaticBounds, AnalysisError> {
        let cycles = model.repetition_cycles()?;
        let na = model.num_actors();

        // Node numbering: firings of an actor occupy a contiguous block.
        let mut base = vec![0usize; na];
        let mut firings = vec![0u64; na];
        let mut num_nodes = 0usize;
        for a in 0..na {
            let aid = ActorId::new(a);
            let f = cycles[a] * model.num_phases(aid) as u64;
            base[a] = num_nodes;
            firings[a] = f;
            num_nodes += f as usize;
        }
        let phase_time = |a: ActorId, firing: u64| {
            let p = model.num_phases(a) as u64;
            model.execution_time(a, (firing % p) as u32)
        };

        // Keyed by `(from, to)` in a sorted map: the fixed edge list comes
        // out in the same order on every construction, so Howard's
        // iteration (whose round count follows edge order) is reproducible.
        let mut edges: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
        let mut add = |from: usize, to: usize, weight: u64, tokens: u64| {
            edges
                .entry((from, to))
                .and_modify(|e| {
                    if tokens < e.1 {
                        *e = (weight, tokens);
                    }
                })
                .or_insert((weight, tokens));
        };

        // Firing-order rings.
        for a in 0..na {
            let aid = ActorId::new(a);
            let f = firings[a];
            let b = base[a];
            for i in 0..f {
                let next = (i + 1) % f;
                add(
                    b + i as usize,
                    b + next as usize,
                    phase_time(aid, i),
                    u64::from(next == 0),
                );
            }
        }

        // Token-level data dependencies and per-channel back-edge plans.
        let mut plans = Vec::with_capacity(model.num_channels());
        for c in 0..model.num_channels() {
            let cid = ChannelId::new(c);
            let src = model.channel_source(cid);
            let dst = model.channel_target(cid);
            let fa = firings[src.index()];
            let fb = firings[dst.index()];
            let pa = model.num_phases(src) as u64;
            let pb = model.num_phases(dst) as u64;
            let d = model.initial_tokens(cid);

            let mut cum_c = Vec::with_capacity(fb as usize + 1);
            cum_c.push(0u64);
            for m in 0..fb {
                cum_c.push(cum_c[m as usize] + model.consumption(cid, (m % pb) as u32));
            }
            let per_iter = cum_c[fb as usize];

            let mut producers = Vec::new();
            let mut produced_before = 0u64;
            for i in 0..fa {
                let produced = model.production(cid, (i % pa) as u32);
                for k in 1..=produced {
                    let t = d + produced_before + k; // 1-based token index
                    let Some(full_iters) = (t - 1).checked_div(per_iter) else {
                        break; // nothing ever consumed: no consumption edges
                    };
                    let rem = t - full_iters * per_iter;
                    let m = cum_c.partition_point(|&x| x < rem) - 1;
                    add(
                        base[src.index()] + i as usize,
                        base[dst.index()] + m,
                        phase_time(src, i),
                        full_iters,
                    );
                }
                if produced > 0 {
                    producers.push((base[src.index()] + i as usize, produced_before + produced));
                }
                produced_before += produced;
            }
            debug_assert!(
                per_iter == produced_before,
                "consistent models balance every channel"
            );

            plans.push(ChannelPlan {
                initial_tokens: d,
                per_iter,
                producers,
                cum_c,
                consumer_nodes: (0..fb).map(|m| base[dst.index()] + m as usize).collect(),
                consumer_weights: (0..fb).map(|m| phase_time(dst, m)).collect(),
            });
        }

        // Connectivity (undirected, over channels): the global λ* is only
        // a sound per-actor bound when every actor shares the critical
        // cycle's component.
        let usable = is_connected(na, model);

        Ok(StaticBounds {
            num_nodes,
            fixed: edges
                .into_iter()
                .map(|((from, to), (weight, tokens))| RatioEdge {
                    from,
                    to,
                    weight,
                    tokens,
                })
                .collect(),
            plans,
            observed_firings: firings[observed.index()],
            usable,
        })
    }

    /// Whether certificates can be issued at all (the model is
    /// connected); when `false`, [`certificate`](StaticBounds::certificate)
    /// always returns `None`.
    pub fn is_usable(&self) -> bool {
        self.usable
    }

    /// Firings of the observed actor per graph iteration.
    pub fn observed_firings(&self) -> u64 {
        self.observed_firings
    }

    /// The sound throughput certificate of `dist`, or `None` when no
    /// finite certificate exists (disconnected model, a capacity below
    /// the channel's initial tokens, a zero-delay critical cycle, or a
    /// non-converging analysis).
    pub fn certificate(&self, dist: &StorageDistribution) -> Option<BoundCertificate> {
        if !self.usable || dist.len() != self.plans.len() {
            return None;
        }
        let mut edges = self.fixed.clone();
        for (idx, _) in self.plans.iter().enumerate() {
            if !self.append_back_edges(&mut edges, idx, dist.get(ChannelId::new(idx))) {
                return None;
            }
        }
        self.solve(edges)
    }

    /// The relaxed certificate keeping only `channel`'s capacity
    /// constraint (all other channels unbounded). A relaxation of the
    /// full problem, so still a sound upper bound — if it already falls
    /// below a required throughput, `channel` alone is a culprit.
    pub fn channel_bound(&self, channel: ChannelId, capacity: u64) -> Option<BoundCertificate> {
        if !self.usable || channel.index() >= self.plans.len() {
            return None;
        }
        let mut edges = self.fixed.clone();
        if !self.append_back_edges(&mut edges, channel.index(), capacity) {
            return None;
        }
        self.solve(edges)
    }

    /// Appends `channel`'s back-edges under `capacity`; `false` when the
    /// capacity cannot even hold the initial tokens (unsupported — the
    /// channel could never be written).
    fn append_back_edges(&self, edges: &mut Vec<RatioEdge>, channel: usize, capacity: u64) -> bool {
        let plan = &self.plans[channel];
        if plan.per_iter == 0 {
            return true; // never written: no space constraint
        }
        if capacity < plan.initial_tokens {
            return false;
        }
        let free0 = (capacity - plan.initial_tokens) as i128;
        let c = plan.per_iter as i128;
        for &(node, t) in &plan.producers {
            // The claim `n·C + t` needs consumption event `n·C + t − free₀`
            // done: consumer firing `j` of iteration `n − shift` with
            // `σ = s − shift·C ∈ [1, C]` its in-iteration event index.
            let s = t as i128 - free0;
            let shift = (s - 1).div_euclid(c); // ≤ 0 since t ≤ C
            let sigma = (s - shift * c) as u64;
            let j = plan.cum_c.partition_point(|&x| x < sigma) - 1;
            edges.push(RatioEdge {
                from: plan.consumer_nodes[j],
                to: node,
                weight: plan.consumer_weights[j],
                tokens: (-shift) as u64,
            });
        }
        true
    }

    fn solve(&self, edges: Vec<RatioEdge>) -> Option<BoundCertificate> {
        let rg = RatioGraph {
            num_nodes: self.num_nodes,
            edges,
        };
        match max_cycle_ratio(&rg) {
            Ok(Some(lambda)) if !lambda.is_zero() => Some(BoundCertificate {
                bound: Rational::from(self.observed_firings) / lambda,
                lambda: Some(lambda),
                deadlocked: false,
            }),
            // Zero-delay critical cycle: the bound would be infinite —
            // nothing worth certifying. (`None` cycles cannot happen: the
            // firing-order rings always close a cycle.)
            Ok(_) => None,
            Err(AnalysisError::NotLive) => Some(BoundCertificate {
                bound: Rational::ZERO,
                lambda: None,
                deadlocked: true,
            }),
            Err(_) => None,
        }
    }
}

/// Whether the undirected channel graph connects every actor.
fn is_connected<M: DataflowSemantics + ?Sized>(num_actors: usize, model: &M) -> bool {
    if num_actors <= 1 {
        return true;
    }
    let mut parent: Vec<usize> = (0..num_actors).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for c in 0..model.num_channels() {
        let cid = ChannelId::new(c);
        let a = find(&mut parent, model.channel_source(cid).index());
        let b = find(&mut parent, model.channel_target(cid).index());
        parent[a] = b;
    }
    let root = find(&mut parent, 0);
    (1..num_actors).all(|a| find(&mut parent, a) == root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{throughput_for, ExplorationLimits};
    use crate::Capacities;
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

    fn exact(g: &SdfGraph, caps: &[u64]) -> Rational {
        let c = g.actor_by_name("c").unwrap();
        throughput_for(
            g,
            Capacities::from_distribution(&StorageDistribution::from_capacities(caps.to_vec())),
            c,
            ExplorationLimits::default(),
        )
        .unwrap()
        .throughput
    }

    #[test]
    fn certificate_never_undercuts_the_exact_engine() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        assert!(bounds.is_usable());
        for a in 3..10u64 {
            for b in 1..6u64 {
                let dist = StorageDistribution::from_capacities(vec![a, b]);
                let cert = bounds.certificate(&dist).expect("certifiable");
                assert!(
                    cert.bound >= exact(&g, &[a, b]),
                    "<{a}, {b}>: bound {} < exact {}",
                    cert.bound,
                    exact(&g, &[a, b])
                );
            }
        }
    }

    #[test]
    fn certificates_are_tight_on_the_example() {
        // For SDF the capacity-augmented expansion models the engine's
        // buffer protocol exactly, so on live distributions of the
        // running example the certificate *equals* the exact throughput
        // (the paper's ⟨4, 2⟩ level 1/7 among them).
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        let cert = bounds
            .certificate(&StorageDistribution::from_capacities(vec![4, 2]))
            .unwrap();
        assert_eq!(cert.bound, Rational::new(1, 7));
        assert!(!cert.deadlocked);
        assert!(cert.lambda.is_some());
        for a in 4..10u64 {
            for b in 2..6u64 {
                let cert = bounds
                    .certificate(&StorageDistribution::from_capacities(vec![a, b]))
                    .unwrap();
                assert_eq!(cert.bound, exact(&g, &[a, b]), "<{a}, {b}>");
            }
        }
    }

    #[test]
    fn undersized_channel_is_proven_deadlocked() {
        // α capacity 3 < bmlb 4: the engine deadlocks; so does the
        // augmented expansion (a token-free cycle).
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        let cert = bounds
            .certificate(&StorageDistribution::from_capacities(vec![3, 2]))
            .unwrap();
        assert!(cert.deadlocked);
        assert_eq!(cert.bound, Rational::ZERO);
        assert_eq!(cert.lambda, None);
    }

    #[test]
    fn capacity_below_initial_tokens_is_uncertifiable() {
        let mut b = SdfGraph::builder("tok");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel_with_tokens("f", x, 1, y, 1, 3).unwrap();
        b.channel("r", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let bounds = StaticBounds::new(&g, y).unwrap();
        assert!(bounds
            .certificate(&StorageDistribution::from_capacities(vec![2, 1]))
            .is_none());
        assert!(bounds
            .certificate(&StorageDistribution::from_capacities(vec![3, 1]))
            .is_some());
    }

    #[test]
    fn disconnected_models_are_refused() {
        let mut b = SdfGraph::builder("two");
        let x = b.actor("x", 1);
        b.channel_with_tokens("sx", x, 1, x, 1, 1).unwrap();
        let y = b.actor("y", 5);
        b.channel_with_tokens("sy", y, 1, y, 1, 1).unwrap();
        let g = b.build().unwrap();
        let bounds = StaticBounds::new(&g, x).unwrap();
        assert!(!bounds.is_usable());
        assert!(bounds
            .certificate(&StorageDistribution::from_capacities(vec![4, 4]))
            .is_none());
        assert!(bounds.channel_bound(ChannelId::new(0), 4).is_none());
    }

    #[test]
    fn single_channel_bound_is_a_relaxation() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        let dist = StorageDistribution::from_capacities(vec![4, 2]);
        let full = bounds.certificate(&dist).unwrap();
        for ch in 0..2 {
            let cid = ChannelId::new(ch);
            let relaxed = bounds.channel_bound(cid, dist.get(cid)).unwrap();
            assert!(
                relaxed.bound >= full.bound,
                "channel {ch}: {} < {}",
                relaxed.bound,
                full.bound
            );
        }
    }

    #[test]
    fn generous_capacities_recover_the_maximal_throughput() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        let cert = bounds
            .certificate(&StorageDistribution::from_capacities(vec![100, 100]))
            .unwrap();
        assert_eq!(cert.bound, crate::mcm::maximal_throughput(&g, c).unwrap());
    }

    #[test]
    fn fixed_edges_come_out_in_the_same_order_every_time() {
        // A multirate chain with dozens of distinct ratio-graph edges:
        // two constructions must hand Howard the same edge list.
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        let z = b.actor("z", 3);
        let w = b.actor("w", 1);
        b.channel("xy", x, 3, y, 2).unwrap();
        b.channel("yz", y, 5, z, 3).unwrap();
        b.channel("zw", z, 2, w, 7).unwrap();
        let g = b.build().unwrap();
        let first = StaticBounds::new(&g, w).unwrap();
        let second = StaticBounds::new(&g, w).unwrap();
        assert!(first.fixed.len() > 30, "{} edges", first.fixed.len());
        assert_eq!(first.fixed, second.fixed);
    }

    #[test]
    fn monotone_in_pointwise_capacity() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let bounds = StaticBounds::new(&g, c).unwrap();
        let mut prev = Rational::ZERO;
        for cap in 4..12u64 {
            let cert = bounds
                .certificate(&StorageDistribution::from_capacities(vec![cap, 4]))
                .unwrap();
            assert!(cert.bound >= prev, "cap {cap}");
            prev = cert.bound;
        }
    }
}
