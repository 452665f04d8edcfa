//! Pareto points and Pareto sets of the storage/throughput trade-off
//! space.
//!
//! A storage distribution is *minimal* when no smaller distribution
//! realizes at least the same throughput (paper §8). The set of minimal
//! distributions — one per achievable throughput level — forms the Pareto
//! front charted in the paper's Figures 5 and 13. Points are ranked on
//! size and throughput alone; report annotations such as energy and
//! latency are computed on the final front by the caller.

use buffy_graph::{Rational, StorageDistribution};
use core::fmt;

/// One point of the trade-off space: a distribution with its size and
/// throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint {
    /// The witnessing storage distribution.
    pub distribution: StorageDistribution,
    /// Its size `sz(γ)`.
    pub size: u64,
    /// The throughput of the observed actor under it.
    pub throughput: Rational,
}

impl ParetoPoint {
    /// Creates the point of `distribution` at `throughput`.
    pub fn new(distribution: StorageDistribution, throughput: Rational) -> ParetoPoint {
        let size = distribution.size();
        ParetoPoint {
            distribution,
            size,
            throughput,
        }
    }

    /// Weak dominance: no larger and no slower than `other`.
    fn dominates(&self, other: &ParetoPoint) -> bool {
        self.size <= other.size && self.throughput >= other.throughput
    }
}

impl fmt::Display for ParetoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "size {:>4}  throughput {:>8}  γ = {}",
            self.size,
            self.throughput.to_string(),
            self.distribution
        )
    }
}

/// A dominance-filtered set of [`ParetoPoint`]s, kept sorted by size
/// (ascending) with strictly increasing throughput.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParetoSet {
    points: Vec<ParetoPoint>,
}

impl ParetoSet {
    /// Creates an empty set.
    pub fn new() -> ParetoSet {
        ParetoSet::default()
    }

    /// Inserts a candidate point, dropping it if dominated and evicting
    /// points it dominates. Returns whether the point was kept.
    ///
    /// Dominance is the weak product order: `(s, t)` dominates `(s', t')`
    /// when `s ≤ s'` and `t ≥ t'`. Zero-throughput points are never kept
    /// (a deadlocked distribution is not a trade-off). When a candidate
    /// ties an incumbent on both size and throughput, the point with the
    /// lexicographically smaller distribution wins — a deterministic
    /// choice independent of insertion order, so parallel merges produce
    /// byte-identical fronts.
    pub fn insert(&mut self, point: ParetoPoint) -> bool {
        if point.throughput.is_zero() {
            return false;
        }
        if let Some(incumbent) = self
            .points
            .iter_mut()
            .find(|p| (p.size, p.throughput) == (point.size, point.throughput))
        {
            if point.distribution.as_slice() < incumbent.distribution.as_slice() {
                *incumbent = point;
                return true;
            }
            return false;
        }
        if self.points.iter().any(|p| p.dominates(&point)) {
            return false;
        }
        self.points.retain(|p| !point.dominates(p));
        let pos = self
            .points
            .partition_point(|p| (p.size, p.throughput) < (point.size, point.throughput));
        self.points.insert(pos, point);
        #[cfg(feature = "strict-invariants")]
        self.assert_antichain();
        true
    }

    /// Hard invariant check compiled in by the `strict-invariants`
    /// feature: the front is an antichain, so sizes and throughputs both
    /// strictly increase along it.
    #[cfg(feature = "strict-invariants")]
    fn assert_antichain(&self) {
        for w in self.points.windows(2) {
            assert!(
                w[0].size < w[1].size && w[0].throughput < w[1].throughput,
                "Pareto antichain violated: ({}, {}) next to ({}, {})",
                w[0].size,
                w[0].throughput,
                w[1].size,
                w[1].throughput
            );
        }
    }

    /// The points, sorted by size ascending (throughput strictly
    /// increasing).
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of Pareto points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The smallest point whose throughput is at least `throughput` — the
    /// answer to the paper's core question: *the minimal storage needed to
    /// meet a throughput constraint*.
    pub fn min_size_for_throughput(&self, throughput: Rational) -> Option<&ParetoPoint> {
        self.points.iter().find(|p| p.throughput >= throughput)
    }

    /// The highest-throughput point with size at most `size`.
    pub fn max_throughput_for_size(&self, size: u64) -> Option<&ParetoPoint> {
        self.points.iter().rev().find(|p| p.size <= size)
    }

    /// The point realizing the maximal throughput (the right end of the
    /// front).
    pub fn maximal(&self) -> Option<&ParetoPoint> {
        self.points.last()
    }

    /// The smallest positive-throughput point (the left end of the front).
    pub fn minimal(&self) -> Option<&ParetoPoint> {
        self.points.first()
    }
}

impl IntoIterator for ParetoSet {
    type Item = ParetoPoint;
    type IntoIter = std::vec::IntoIter<ParetoPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl<'a> IntoIterator for &'a ParetoSet {
    type Item = &'a ParetoPoint;
    type IntoIter = std::slice::Iter<'a, ParetoPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl Extend<ParetoPoint> for ParetoSet {
    fn extend<T: IntoIterator<Item = ParetoPoint>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl FromIterator<ParetoPoint> for ParetoSet {
    fn from_iter<T: IntoIterator<Item = ParetoPoint>>(iter: T) -> Self {
        let mut s = ParetoSet::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(caps: &[u64], thr: Rational) -> ParetoPoint {
        ParetoPoint::new(StorageDistribution::from_capacities(caps.to_vec()), thr)
    }

    #[test]
    fn insert_keeps_front_sorted_and_strict() {
        let mut s = ParetoSet::new();
        assert!(s.insert(pt(&[4, 2], Rational::new(1, 7))));
        assert!(s.insert(pt(&[7, 3], Rational::new(1, 4))));
        assert!(s.insert(pt(&[6, 2], Rational::new(1, 6))));
        assert!(s.insert(pt(&[6, 3], Rational::new(1, 5))));
        assert_eq!(s.len(), 4);
        let sizes: Vec<u64> = s.points().iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![6, 8, 9, 10]);
        let thr: Vec<Rational> = s.points().iter().map(|p| p.throughput).collect();
        assert!(thr.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dominated_points_rejected_and_evicted() {
        let mut s = ParetoSet::new();
        assert!(s.insert(pt(&[4, 2], Rational::new(1, 7))));
        // ⟨5,2⟩ same throughput, bigger: dominated (the paper's example of
        // a non-minimal distribution).
        assert!(!s.insert(pt(&[5, 2], Rational::new(1, 7))));
        // A better point at the same size evicts the old one.
        assert!(s.insert(pt(&[3, 3], Rational::new(1, 6))));
        assert_eq!(s.len(), 1);
        assert_eq!(s.points()[0].throughput, Rational::new(1, 6));
        // Equal size and throughput: the lexicographically smaller
        // distribution wins, whichever arrives first.
        assert!(s.insert(pt(&[2, 4], Rational::new(1, 6))));
        assert_eq!(s.points()[0].distribution.as_slice(), &[2, 4]);
        assert!(!s.insert(pt(&[3, 3], Rational::new(1, 6))));
        assert_eq!(s.points()[0].distribution.as_slice(), &[2, 4]);
    }

    #[test]
    fn equal_objective_tie_break_is_insertion_order_independent() {
        let candidates = [
            pt(&[3, 3], Rational::new(1, 6)),
            pt(&[2, 4], Rational::new(1, 6)),
            pt(&[4, 2], Rational::new(1, 6)),
        ];
        let forward: ParetoSet = candidates.iter().cloned().collect();
        let backward: ParetoSet = candidates.iter().rev().cloned().collect();
        assert_eq!(forward, backward);
        assert_eq!(forward.points()[0].distribution.as_slice(), &[2, 4]);
    }

    #[test]
    fn zero_throughput_never_kept() {
        let mut s = ParetoSet::new();
        assert!(!s.insert(pt(&[1, 1], Rational::ZERO)));
        assert!(s.is_empty());
    }

    #[test]
    fn queries() {
        let s: ParetoSet = [
            pt(&[4, 2], Rational::new(1, 7)),
            pt(&[6, 2], Rational::new(1, 6)),
            pt(&[6, 3], Rational::new(1, 5)),
            pt(&[7, 3], Rational::new(1, 4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            s.min_size_for_throughput(Rational::new(1, 6)).unwrap().size,
            8
        );
        assert_eq!(
            s.min_size_for_throughput(Rational::new(3, 20))
                .unwrap()
                .size,
            8
        );
        assert!(s.min_size_for_throughput(Rational::new(1, 2)).is_none());
        assert_eq!(
            s.max_throughput_for_size(9).unwrap().throughput,
            Rational::new(1, 5)
        );
        assert!(s.max_throughput_for_size(5).is_none());
        assert_eq!(s.maximal().unwrap().throughput, Rational::new(1, 4));
        assert_eq!(s.minimal().unwrap().size, 6);
    }

    #[test]
    fn display_is_informative() {
        let p = pt(&[4, 2], Rational::new(1, 7));
        let s = p.to_string();
        assert!(s.contains("1/7"));
        assert!(s.contains("<4, 2>"));
    }

    #[test]
    fn iteration() {
        let s: ParetoSet = [pt(&[4, 2], Rational::new(1, 7))].into_iter().collect();
        assert_eq!((&s).into_iter().count(), 1);
        assert_eq!(s.into_iter().count(), 1);
    }
}
