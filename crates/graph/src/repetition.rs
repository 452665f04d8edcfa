//! Repetition vectors and consistency checking.
//!
//! The *repetition vector* `q` of an SDF graph assigns to every actor the
//! (smallest, strictly positive) number of firings per graph iteration such
//! that every channel's token balance is restored: for a channel `a → b`
//! with production rate `p` and consumption rate `c`, `q(a)·p = q(b)·c`.
//! Graphs for which a non-trivial solution exists are *consistent*; only
//! consistent graphs can execute indefinitely in bounded memory (paper §3,
//! [Lee91]). Throughputs of any two actors are related by `q` (paper §5).

use crate::error::GraphError;
use crate::graph::SdfGraph;
use crate::ids::{ActorId, ChannelId};
use crate::rational::{gcd_u128, Rational};

/// The repetition vector of a consistent SDF graph.
///
/// Entries are normalized to the smallest positive integers, per weakly
/// connected component.
///
/// # Examples
///
/// ```
/// use buffy_graph::{SdfGraph, RepetitionVector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
/// let q = RepetitionVector::compute(&g)?;
/// assert_eq!(q[a], 3);
/// assert_eq!(q[bb], 2);
/// assert_eq!(q[c], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    entries: Vec<u64>,
}

impl RepetitionVector {
    /// Computes the repetition vector by solving the balance equations
    /// ([`solve_balance_equations`]).
    ///
    /// # Errors
    ///
    /// - [`GraphError::Inconsistent`] if the balance equations admit only
    ///   the trivial solution;
    /// - [`GraphError::RepetitionOverflow`] if an entry exceeds `u64`.
    pub fn compute(graph: &SdfGraph) -> Result<RepetitionVector, GraphError> {
        let channels: Vec<_> = graph
            .channels()
            .map(|(_, ch)| (ch.source(), ch.target(), ch.production(), ch.consumption()))
            .collect();
        let entries = solve_balance_equations(graph.num_actors(), &channels, |c| {
            graph.channel(c).name().to_string()
        })?;
        Ok(RepetitionVector { entries })
    }

    /// Number of firings of `actor` per graph iteration.
    pub fn get(&self, actor: ActorId) -> u64 {
        self.entries[actor.index()]
    }

    /// The entries as a slice, indexed by actor index.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Total number of actor firings in one graph iteration (the number of
    /// actors of the equivalent HSDF graph).
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Number of actors covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is empty (never true for a valid graph).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Solves the balance equations `q(src)·production = q(dst)·consumption`
/// over `num_actors` actors, one `(source, target, production,
/// consumption)` entry per channel in id order, and returns the smallest
/// positive integer solution of each weakly connected component.
///
/// The rates are whatever one repetition unit transfers: per firing for
/// SDF, per full phase cycle for cyclo-static models. Symbolic rates
/// propagate by depth-first search, which visits each actor's output
/// channels and then its input channels, in id order; the first channel
/// whose equation contradicts an assigned rate is the one reported, named
/// by `channel_name`.
///
/// # Errors
///
/// - [`GraphError::Inconsistent`] if the balance equations admit only the
///   trivial solution;
/// - [`GraphError::RepetitionOverflow`] if an entry exceeds `u64`.
///
/// # Examples
///
/// ```
/// use buffy_graph::{solve_balance_equations, ActorId};
///
/// let (a, b) = (ActorId::new(0), ActorId::new(1));
/// let q = solve_balance_equations(2, &[(a, b, 2, 3)], |c| c.to_string());
/// assert_eq!(q, Ok(vec![3, 2]));
/// ```
pub fn solve_balance_equations(
    num_actors: usize,
    channels: &[(ActorId, ActorId, u64, u64)],
    channel_name: impl Fn(ChannelId) -> String,
) -> Result<Vec<u64>, GraphError> {
    let n = num_actors;
    // Each actor's channels: outputs first, then inputs, in id order.
    let mut incident: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for (c, &(src, _, _, _)) in channels.iter().enumerate() {
        incident[src.index()].push((c, true));
    }
    for (c, &(_, dst, _, _)) in channels.iter().enumerate() {
        incident[dst.index()].push((c, false));
    }
    let mut rates: Vec<Option<Rational>> = vec![None; n];
    let mut component_of: Vec<usize> = vec![usize::MAX; n];
    let mut num_components = 0usize;

    // Propagate symbolic firing rates through each weakly connected
    // component with a DFS; detect contradictions against already
    // assigned rates.
    for start in 0..n {
        if rates[start].is_some() {
            continue;
        }
        let comp = num_components;
        num_components += 1;
        rates[start] = Some(Rational::ONE);
        component_of[start] = comp;
        let mut stack = vec![start];
        while let Some(actor) = stack.pop() {
            let r_actor = rates[actor].expect("visited actor has a rate");
            for &(c, outgoing) in &incident[actor] {
                let (src, dst, p, k) = channels[c];
                let (p, k) = (p as i128, k as i128);
                // For channel src --p:k--> dst: q(dst) = q(src) * p / k.
                let (other, expected) = if outgoing {
                    (dst, r_actor * Rational::new(p, k))
                } else {
                    (src, r_actor * Rational::new(k, p))
                };
                match rates[other.index()] {
                    None => {
                        rates[other.index()] = Some(expected);
                        component_of[other.index()] = comp;
                        stack.push(other.index());
                    }
                    Some(existing) if existing != expected => {
                        return Err(GraphError::Inconsistent {
                            channel: channel_name(ChannelId::new(c)),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // Scale each component to the smallest positive integer vector:
    // multiply through by the lcm of the denominators, then divide by the
    // gcd of the numerators.
    let mut entries = vec![0u64; n];
    for comp in 0..num_components {
        let members: Vec<usize> = (0..n).filter(|&i| component_of[i] == comp).collect();
        let rate = |i: usize| rates[i].expect("assigned");
        let mut lcm: u128 = 1;
        for &i in &members {
            let d = rate(i).denom().unsigned_abs();
            lcm = lcm
                .checked_mul(d / gcd_u128(lcm, d))
                .ok_or(GraphError::RepetitionOverflow)?;
        }
        let scaled: Vec<u128> = members
            .iter()
            .map(|&i| rate(i).numer().unsigned_abs() * (lcm / rate(i).denom().unsigned_abs()))
            .collect();
        let g = scaled.iter().fold(0, |g, &v| gcd_u128(g, v));
        debug_assert!(g > 0, "component has at least one member with rate 1");
        for (&i, &v) in members.iter().zip(&scaled) {
            entries[i] = u64::try_from(v / g).map_err(|_| GraphError::RepetitionOverflow)?;
        }
    }
    Ok(entries)
}

impl core::ops::Index<ActorId> for RepetitionVector {
    type Output = u64;
    fn index(&self, actor: ActorId) -> &u64 {
        &self.entries[actor.index()]
    }
}

/// Convenience: checks whether a graph is consistent (paper §3).
///
/// ```
/// use buffy_graph::{SdfGraph, is_consistent};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("bad");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel("fwd", x, 2, y, 1)?;
/// b.channel("bwd", y, 1, x, 1)?;
/// assert!(!is_consistent(&b.build()?));
/// # Ok(())
/// # }
/// ```
pub fn is_consistent(graph: &SdfGraph) -> bool {
    RepetitionVector::compute(graph).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraph;

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
    fn paper_example_vector() {
        let g = example();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[3, 2, 1]);
        assert_eq!(q.total_firings(), 6);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(is_consistent(&g));
    }

    #[test]
    fn cd2dat_vector() {
        // Classic CD (44.1 kHz) → DAT (48 kHz) sample-rate converter chain.
        let mut b = SdfGraph::builder("cd2dat");
        let cd = b.actor("cd", 1);
        let a = b.actor("fir1", 1);
        let bb = b.actor("fir2", 1);
        let c = b.actor("fir3", 1);
        let d = b.actor("fir4", 1);
        let dat = b.actor("dat", 1);
        b.channel("c1", cd, 1, a, 1).unwrap();
        b.channel("c2", a, 2, bb, 3).unwrap();
        b.channel("c3", bb, 2, c, 7).unwrap();
        b.channel("c4", c, 8, d, 7).unwrap();
        b.channel("c5", d, 5, dat, 1).unwrap();
        let g = b.build().unwrap();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[147, 147, 98, 28, 32, 160]);
    }

    #[test]
    fn inconsistent_cycle_detected() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 2, y, 1).unwrap();
        b.channel("bwd", y, 1, x, 1).unwrap();
        let g = b.build().unwrap();
        let err = RepetitionVector::compute(&g).unwrap_err();
        assert!(matches!(err, GraphError::Inconsistent { .. }));
        assert!(!is_consistent(&g));
    }

    #[test]
    fn consistent_cycle() {
        // x fires twice per y firing; back edge must carry 2:1 rates.
        let mut b = SdfGraph::builder("ring");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("fwd", x, 1, y, 2).unwrap();
        b.channel_with_tokens("bwd", y, 2, x, 1, 2).unwrap();
        let g = b.build().unwrap();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[2, 1]);
    }

    #[test]
    fn multiple_components_normalized_independently() {
        let mut b = SdfGraph::builder("islands");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        let z = b.actor("z", 1); // isolated actor
        b.channel("c", x, 4, y, 6).unwrap();
        let g = b.build().unwrap();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q[x], 3);
        assert_eq!(q[y], 2);
        assert_eq!(q[z], 1);
    }

    #[test]
    fn self_loop_is_consistent_iff_rates_match() {
        let mut b = SdfGraph::builder("sl");
        let x = b.actor("x", 1);
        b.channel_with_tokens("s", x, 2, x, 2, 2).unwrap();
        let g = b.build().unwrap();
        assert!(is_consistent(&g));

        let mut b = SdfGraph::builder("sl-bad");
        let x = b.actor("x", 1);
        b.channel_with_tokens("s", x, 2, x, 3, 6).unwrap();
        let g = b.build().unwrap();
        assert!(!is_consistent(&g));
    }

    #[test]
    fn single_actor_graph() {
        let mut b = SdfGraph::builder("one");
        b.actor("only", 5);
        let g = b.build().unwrap();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[1]);
    }

    #[test]
    fn two_phase_balance() {
        // Cyclo-static rates balance per full phase cycle: a producer with
        // phases producing (2, 0) moves 2 tokens per cycle into a consumer
        // taking 1 per firing, so q = (1, 2) cycles.
        let (p, c) = (ActorId::new(0), ActorId::new(1));
        let q = solve_balance_equations(2, &[(p, c, 2, 1)], |c| c.to_string());
        assert_eq!(q, Ok(vec![1, 2]));
    }

    #[test]
    fn inconsistent_cycle() {
        // x --2:1--> y --1:1--> x: the solver names the channel whose
        // equation contradicts the rates assigned so far.
        let (x, y) = (ActorId::new(0), ActorId::new(1));
        let names = ["f", "r"];
        let err = solve_balance_equations(2, &[(x, y, 2, 1), (y, x, 1, 1)], |c| {
            names[c.index()].to_string()
        })
        .unwrap_err();
        assert_eq!(
            err,
            GraphError::Inconsistent {
                channel: "r".to_string()
            }
        );
    }

    #[test]
    fn sdf_equivalence() {
        // Per-firing SDF rates are the single-phase case of the cycle-level
        // balance equations: the solver gives the paper's (3, 2, 1).
        let g = example();
        let channels: Vec<_> = g
            .channels()
            .map(|(_, ch)| (ch.source(), ch.target(), ch.production(), ch.consumption()))
            .collect();
        let q = solve_balance_equations(3, &channels, |c| c.to_string()).unwrap();
        assert_eq!(q, vec![3, 2, 1]);
        assert_eq!(q, RepetitionVector::compute(&g).unwrap().as_slice());
    }

    #[test]
    fn index_operator() {
        let g = example();
        let q = RepetitionVector::compute(&g).unwrap();
        assert_eq!(q[g.actor_by_name("a").unwrap()], 3);
    }
}
