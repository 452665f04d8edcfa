//! The prune oracle: monotone dominance records.
//!
//! Every query answers a question the exact engine would answer the same
//! way — the oracle only *skips work*, it never changes a result. Its one
//! proof source is monotonicity: throughput is monotone in pointwise
//! capacity (paper §9), so a *genuinely evaluated* distribution `r` with
//! throughput `t(r)` proves `t(d) ≤ t(r)` for every `d ≤ r` and
//! `t(d) ≥ t(r)` for every `d ≥ r`.
//!
//! The static cycle-ratio certificates of `buffy-analysis` are
//! deliberately *not* consulted: one certificate (a Howard run on the
//! capacity-augmented expansion) costs tens of state-space analyses on
//! the multirate gallery graphs and saved no analysis in the guided
//! search, so certificates back only `buffy bounds` and the B010/B011
//! lints.
//!
//! Records are kept per throughput level as antichains: for
//! upper-bound queries (`r ≥ d` wanted) only pointwise-*maximal*
//! records matter, for lower-bound queries (`r ≤ d` wanted) only
//! pointwise-*minimal* ones — insertion filters both ways, keeping the
//! stores small.
//!
//! Determinism: records are inserted while workers evaluate (any order —
//! the stores are order-insensitive sets), and queried only between
//! evaluation chunks, after workers joined. Prune decisions therefore
//! depend only on the chunk-aligned evaluation history, which is itself
//! identical across thread counts.
//!
//! # Soundness under the energy objective
//!
//! Dominance bounds only the *throughput* axis, yet it remains sound
//! when the exploration also tracks energy
//! ([`ObjectiveKind::Energy`](crate::ObjectiveKind::Energy)). Energy per
//! iteration is a function of throughput alone — `E(t) = W + I·f/t`
//! with model constants `W, I, f ≥ 0` (see `buffy_analysis::EnergyModel`)
//! — and is monotone non-increasing in `t`. A distribution pruned
//! because its throughput cannot beat an evaluated point therefore also
//! cannot offer strictly lower energy at comparable throughput: every
//! point the oracle skips is dominated in the extended space exactly
//! when it is dominated in the storage/throughput plane.

use buffy_graph::{Rational, StorageDistribution};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One throughput level's antichain of distributions.
type Levels = BTreeMap<Rational, Vec<StorageDistribution>>;

/// The oracle threaded through the exploration drivers.
///
/// Constructed once per search; shared by reference, internally
/// synchronized.
#[derive(Debug)]
pub(crate) struct PruneOracle {
    /// `false` for the `static_prune: false` escape hatch: every query
    /// answers "no proof" and nothing is recorded.
    enabled: bool,
    /// Pointwise-maximal records per level: answers "some record ≥ d".
    maximal: Mutex<Levels>,
    /// Pointwise-minimal records per level: answers "some record ≤ d".
    minimal: Mutex<Levels>,
}

impl PruneOracle {
    /// An oracle with no records yet.
    pub(crate) fn new() -> PruneOracle {
        PruneOracle {
            enabled: true,
            maximal: Mutex::new(BTreeMap::new()),
            minimal: Mutex::new(BTreeMap::new()),
        }
    }

    /// An oracle that never prunes (the `static_prune: false` escape
    /// hatch; fronts are byte-identical either way, by construction).
    pub(crate) fn disabled() -> PruneOracle {
        PruneOracle {
            enabled: false,
            ..PruneOracle::new()
        }
    }

    /// Records a *genuine* analysis result (a fresh evaluation or a
    /// warm-start replay of one — never a panic-degraded zero).
    pub(crate) fn record(&self, dist: &StorageDistribution, throughput: Rational) {
        if !self.enabled {
            return;
        }
        {
            let mut levels = self.maximal.lock().unwrap();
            let level = levels.entry(throughput).or_default();
            if !level.iter().any(|r| r.dominates(dist)) {
                level.retain(|r| !dist.dominates(r));
                level.push(dist.clone());
            }
        }
        let mut levels = self.minimal.lock().unwrap();
        let level = levels.entry(throughput).or_default();
        if !level.iter().any(|r| dist.dominates(r)) {
            level.retain(|r| !r.dominates(dist));
            level.push(dist.clone());
        }
    }

    /// Whether a record proves `t(dist) ≤ limit`.
    pub(crate) fn proves_at_most(&self, dist: &StorageDistribution, limit: &Rational) -> bool {
        self.dominated_upper(dist, |level| level <= limit)
    }

    /// Whether a record proves `t(dist) < limit` (strictly).
    pub(crate) fn proves_below(&self, dist: &StorageDistribution, limit: &Rational) -> bool {
        self.dominated_upper(dist, |level| level < limit)
    }

    /// Whether a record proves `t(dist) = 0`.
    pub(crate) fn proves_zero(&self, dist: &StorageDistribution) -> bool {
        self.proves_at_most(dist, &Rational::ZERO)
    }

    /// Whether a record proves `t(dist) > 0` (a positive record
    /// pointwise below `dist`).
    pub(crate) fn proves_positive(&self, dist: &StorageDistribution) -> bool {
        let levels = self.minimal.lock().unwrap();
        levels
            .iter()
            .rev()
            .take_while(|(level, _)| **level > Rational::ZERO)
            .any(|(_, records)| records.iter().any(|r| dist.dominates(r)))
    }

    /// Whether some record at an accepted level dominates `dist`.
    fn dominated_upper(
        &self,
        dist: &StorageDistribution,
        accept: impl Fn(&Rational) -> bool,
    ) -> bool {
        let levels = self.maximal.lock().unwrap();
        levels
            .iter()
            .take_while(|(level, _)| accept(level))
            .any(|(_, records)| records.iter().any(|r| r.dominates(dist)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(caps: &[u64]) -> StorageDistribution {
        StorageDistribution::from_capacities(caps.to_vec())
    }

    #[test]
    fn dominance_proofs_follow_monotonicity() {
        let o = PruneOracle::new();
        o.record(&d(&[5, 3]), Rational::new(1, 6));
        o.record(&d(&[4, 2]), Rational::new(1, 7));

        // ⟨4, 3⟩ ≤ ⟨5, 3⟩: throughput at most 1/6.
        assert!(o.proves_at_most(&d(&[4, 3]), &Rational::new(1, 6)));
        // …but nothing proves it below 1/7.
        assert!(!o.proves_below(&d(&[4, 3]), &Rational::new(1, 7)));
        // ⟨6, 3⟩ ≥ ⟨4, 2⟩ (positive record): provably positive.
        assert!(o.proves_positive(&d(&[6, 3])));
        // ⟨3, 1⟩ has no record below it.
        assert!(!o.proves_positive(&d(&[3, 1])));
        // Incomparable to all records: no upper proof either.
        assert!(!o.proves_at_most(&d(&[9, 1]), &Rational::new(1, 6)));
    }

    #[test]
    fn zero_records_prove_deadlock_downward() {
        let o = PruneOracle::new();
        o.record(&d(&[5, 2]), Rational::ZERO);
        assert!(o.proves_zero(&d(&[4, 2])));
        assert!(!o.proves_zero(&d(&[5, 3])));
    }

    #[test]
    fn antichain_insertion_filters_redundant_records() {
        let o = PruneOracle::new();
        let t = Rational::new(1, 4);
        o.record(&d(&[4, 2]), t);
        o.record(&d(&[5, 3]), t); // dominates ⟨4,2⟩: replaces it in `maximal`
        o.record(&d(&[4, 2]), t); // re-insert: redundant there, kept in `minimal`
        {
            let max = o.maximal.lock().unwrap();
            assert_eq!(max[&t], vec![d(&[5, 3])]);
            let min = o.minimal.lock().unwrap();
            assert_eq!(min[&t], vec![d(&[4, 2])]);
        }
        // Incomparable records coexist at one level.
        o.record(&d(&[2, 9]), t);
        assert_eq!(o.maximal.lock().unwrap()[&t].len(), 2);
        assert_eq!(o.minimal.lock().unwrap()[&t].len(), 2);
    }

    #[test]
    fn disabled_oracle_never_prunes_at_all() {
        let o = PruneOracle::disabled();
        // Records are dropped: no proofs come back.
        o.record(&d(&[5, 3]), Rational::new(1, 6));
        o.record(&d(&[0, 0]), Rational::ZERO);
        assert!(!o.proves_zero(&d(&[0, 0])));
        assert!(!o.proves_at_most(&d(&[4, 3]), &Rational::ONE));
        assert!(!o.proves_positive(&d(&[9, 9])));
    }
}
