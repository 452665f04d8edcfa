//! CSDF → HSDF expansion and maximal throughput.
//!
//! Like the SDF case (Bilsen et al.), a consistent CSDF graph expands into
//! a homogeneous graph with one node per *firing* in an iteration
//! (`q(a) · phases(a)` nodes per actor), firing-order rings serializing
//! each actor, and token-level dependency edges. The maximum cycle ratio
//! of the expansion (delay = execution time of the producing phase) gives
//! the iteration period and hence the maximal achievable throughput over
//! all storage distributions — the upper bound the buffer/throughput
//! exploration prunes against.

use crate::model::CsdfGraph;
use crate::repetition::CsdfRepetitionVector;
use buffy_analysis::{max_cycle_ratio, AnalysisError, RatioEdge, RatioGraph};
use buffy_graph::{ActorId, Rational};
use std::collections::HashMap;

/// Builds the cycle-ratio instance of the homogeneous expansion of
/// `graph` under repetition vector `q`.
pub fn csdf_ratio_graph(graph: &CsdfGraph, q: &CsdfRepetitionVector) -> RatioGraph {
    // Node numbering: firings of actor a occupy a contiguous block.
    let mut base = vec![0usize; graph.num_actors()];
    let mut num_nodes = 0usize;
    let mut firings_of = vec![0u64; graph.num_actors()];
    for (aid, actor) in graph.actors() {
        base[aid.index()] = num_nodes;
        let f = q.cycles(aid) * actor.num_phases() as u64;
        firings_of[aid.index()] = f;
        num_nodes += f as usize;
    }
    let phase_time = |a: ActorId, firing: u64| {
        let p = graph.actor(a).num_phases() as u64;
        graph.actor(a).phase_times()[(firing % p) as usize]
    };

    let mut edges: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
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
    for aid in graph.actor_ids() {
        let f = firings_of[aid.index()];
        let b = base[aid.index()];
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

    // Token-level dependencies.
    for (_, ch) in graph.channels() {
        let src = ch.source();
        let dst = ch.target();
        let fa = firings_of[src.index()];
        let fb = firings_of[dst.index()];
        let pa = graph.actor(src).num_phases() as u64;
        let pb = graph.actor(dst).num_phases() as u64;
        // Cumulative consumption over one iteration of the target.
        let mut cum_c = Vec::with_capacity(fb as usize + 1);
        cum_c.push(0u64);
        for m in 0..fb {
            cum_c.push(cum_c[m as usize] + ch.consumption()[(m % pb) as usize]);
        }
        let per_iter_c = cum_c[fb as usize];
        debug_assert!(per_iter_c > 0);

        let d = ch.initial_tokens();
        let mut produced_before = 0u64;
        for i in 0..fa {
            let produced = ch.production()[(i % pa) as usize];
            for k in 1..=produced {
                let t = d + produced_before + k; // 1-based consumption index
                let full_iters = (t - 1) / per_iter_c;
                let rem = t - full_iters * per_iter_c;
                // Smallest m with cum_c[m+1] ≥ rem.
                let m = cum_c.partition_point(|&c| c < rem) - 1;
                add(
                    base[src.index()] + i as usize,
                    base[dst.index()] + m,
                    phase_time(src, i),
                    full_iters,
                );
            }
            produced_before += produced;
        }
    }

    RatioGraph {
        num_nodes,
        edges: edges
            .into_iter()
            .map(|((from, to), (weight, tokens))| RatioEdge {
                from,
                to,
                weight,
                tokens,
            })
            .collect(),
    }
}

/// The maximal achievable throughput of `observed` (in phase firings per
/// time unit) over all storage distributions.
///
/// # Errors
///
/// The errors of the SDF [`maximal_throughput`](buffy_analysis::maximal_throughput):
///
/// - [`AnalysisError::Graph`] for inconsistent graphs;
/// - [`AnalysisError::NotLive`] when a token-free cycle deadlocks the
///   graph;
/// - [`AnalysisError::ZeroPeriod`] when every critical cycle has zero
///   delay (unbounded throughput).
///
/// # Examples
///
/// A two-phase producer bursting 2 tokens every other step into a
/// unit-rate consumer: the consumer can fire every step, and the kernel's
/// throughput analysis reaches that bound under a capacity of 4.
///
/// ```
/// use buffy_analysis::throughput;
/// use buffy_csdf::{csdf_maximal_throughput, CsdfGraph};
/// use buffy_graph::{Rational, StorageDistribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CsdfGraph::builder("updown");
/// let p = b.actor("p", vec![1, 1]);
/// let c = b.actor("c", vec![1]);
/// b.channel("d", p, vec![2, 0], c, vec![1], 0)?;
/// let g = b.build()?;
/// assert_eq!(csdf_maximal_throughput(&g, c)?, Rational::ONE);
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![4]), c)?;
/// assert_eq!(r.throughput, Rational::ONE); // c fires every step at steady state
/// # Ok(())
/// # }
/// ```
pub fn csdf_maximal_throughput(
    graph: &CsdfGraph,
    observed: ActorId,
) -> Result<Rational, AnalysisError> {
    let q = CsdfRepetitionVector::compute(graph)?;
    let rg = csdf_ratio_graph(graph, &q);
    // The firing-order rings guarantee at least one cycle per actor.
    let lambda = max_cycle_ratio(&rg)?.expect("firing-order rings create cycles");
    if lambda.is_zero() {
        return Err(AnalysisError::ZeroPeriod);
    }
    Ok(Rational::from(q.firings(graph, observed)) / lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_analysis::{maximal_throughput as sdf_maximal_throughput, throughput};
    use buffy_graph::{SdfGraph, StorageDistribution};

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
            let s = sdf_maximal_throughput(&sdf, sdf.actor_by_name(name).unwrap()).unwrap();
            let cs = csdf_maximal_throughput(&csdf, csdf.actor_by_name(name).unwrap()).unwrap();
            assert_eq!(s, cs, "actor {name}");
        }
    }

    #[test]
    fn bursty_producer_bound() {
        // p: phases (1,1), produce (2,0); c: 1 phase, consume 1, exec 1.
        // q = (1, 2): per iteration p runs 2 time units producing 2 tokens,
        // so c can fire at most 1 per time unit: thr(c) ≤ 1 — and the ring
        // of p (2 firings, 2 time units, 1 token) gives λ = 2, thr(c) =
        // q_c·phases / λ = 2/2 = 1.
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(csdf_maximal_throughput(&g, c).unwrap(), Rational::ONE);
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
        assert_eq!(csdf_maximal_throughput(&g, x).unwrap(), Rational::new(1, 2));
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
            csdf_maximal_throughput(&g, x),
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
        let bound = csdf_maximal_throughput(&g, c_id).unwrap();
        for cap in 4..14u64 {
            let r = throughput(&g, &StorageDistribution::from_capacities(vec![cap]), c_id).unwrap();
            assert!(
                r.throughput <= bound,
                "cap {cap}: {} > {bound}",
                r.throughput
            );
        }
    }
}
