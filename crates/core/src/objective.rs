//! The declared objective space of an exploration and the per-point
//! objective vectors ranked by Pareto dominance.
//!
//! The paper's trade-off space is two-dimensional — storage size against
//! throughput — but nothing in dominance filtering is specific to that
//! pair. [`ObjectiveKind`] names the axes the engine knows how to
//! compute, each with a fixed optimization [`Sense`]; [`ObjectiveSpace`]
//! declares which axes one exploration ranks (always including the
//! paper's pair); and [`ObjectiveVector`] carries the exact
//! [`Rational`] value of every declared axis for one evaluated
//! distribution. [`ParetoSet`](crate::ParetoSet) compares points solely
//! through [`ObjectiveVector::dominates`], so adding an axis never
//! touches the front machinery.
//!
//! The energy axis is derived from the throughput axis through the
//! precomputed [`EnergyModel`](buffy_analysis::EnergyModel) and is
//! monotone non-increasing in it; consequently the default
//! storage/throughput fronts are unchanged by the refactor, and the
//! searches' throughput-only skips (the per-size ceiling, interval
//! collapse, the guided ceiling drain) stay sound under it: a candidate
//! that cannot beat a point's throughput cannot beat its energy either.
//! Latency can be declared for reporting; it is
//! annotated onto the finished front by the CLI rather than evaluated
//! per candidate, and never participates in dominance.

use buffy_graph::Rational;
use core::fmt;
use std::str::FromStr;

/// Whether larger or smaller values of an axis are preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Smaller values dominate (storage, energy, latency).
    Minimize,
    /// Larger values dominate (throughput).
    Maximize,
}

/// An axis of the objective space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveKind {
    /// Total storage size `sz(γ)` of the distribution (minimized).
    Storage,
    /// Throughput of the observed actor (maximized).
    Throughput,
    /// Exact energy per graph iteration under the actor power model
    /// (minimized).
    Energy,
    /// Initial output latency of the observed actor (minimized;
    /// reporting-only, never ranked).
    Latency,
}

impl ObjectiveKind {
    /// The fixed optimization sense of this axis.
    pub fn sense(self) -> Sense {
        match self {
            ObjectiveKind::Throughput => Sense::Maximize,
            _ => Sense::Minimize,
        }
    }

    /// The axis name used by `--objectives` and the reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::Storage => "storage",
            ObjectiveKind::Throughput => "throughput",
            ObjectiveKind::Energy => "energy",
            ObjectiveKind::Latency => "latency",
        }
    }
}

impl fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an `--objectives` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseObjectivesError {
    message: String,
}

impl fmt::Display for ParseObjectivesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseObjectivesError {}

/// The ordered set of axes one exploration computes and reports.
///
/// The paper's storage/throughput pair is always present; extra axes are
/// kept in the canonical order storage, throughput, energy, latency so a
/// declaration is independent of the order the user listed the names in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSpace {
    kinds: Vec<ObjectiveKind>,
}

impl ObjectiveSpace {
    /// The paper's default space: storage and throughput.
    pub fn default_2d() -> ObjectiveSpace {
        ObjectiveSpace {
            kinds: vec![ObjectiveKind::Storage, ObjectiveKind::Throughput],
        }
    }

    /// The default space extended with the energy axis.
    pub fn with_energy() -> ObjectiveSpace {
        ObjectiveSpace {
            kinds: vec![
                ObjectiveKind::Storage,
                ObjectiveKind::Throughput,
                ObjectiveKind::Energy,
            ],
        }
    }

    /// The declared axes, in canonical order.
    pub fn kinds(&self) -> &[ObjectiveKind] {
        &self.kinds
    }

    /// Whether `kind` is declared.
    pub fn has(&self, kind: ObjectiveKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Whether this is exactly the paper's default storage/throughput
    /// space — the fast path every existing driver stays on.
    pub fn is_default(&self) -> bool {
        self.kinds == [ObjectiveKind::Storage, ObjectiveKind::Throughput]
    }
}

impl Default for ObjectiveSpace {
    fn default() -> ObjectiveSpace {
        ObjectiveSpace::default_2d()
    }
}

impl fmt::Display for ObjectiveSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

impl FromStr for ObjectiveSpace {
    type Err = ParseObjectivesError;

    /// Parses a comma-separated axis list, e.g.
    /// `storage,throughput,energy`. Both paper axes must be present;
    /// duplicates are rejected; the result is in canonical order
    /// regardless of the input order.
    fn from_str(s: &str) -> Result<ObjectiveSpace, ParseObjectivesError> {
        let mut seen = Vec::new();
        for name in s.split(',') {
            let name = name.trim();
            let kind = match name {
                "storage" => ObjectiveKind::Storage,
                "throughput" => ObjectiveKind::Throughput,
                "energy" => ObjectiveKind::Energy,
                "latency" => ObjectiveKind::Latency,
                other => {
                    return Err(ParseObjectivesError {
                        message: format!(
                            "unknown objective {other:?} (expected storage, throughput, energy or latency)"
                        ),
                    })
                }
            };
            if seen.contains(&kind) {
                return Err(ParseObjectivesError {
                    message: format!("objective {kind} listed twice"),
                });
            }
            seen.push(kind);
        }
        for required in [ObjectiveKind::Storage, ObjectiveKind::Throughput] {
            if !seen.contains(&required) {
                return Err(ParseObjectivesError {
                    message: format!("objective space must include {required}"),
                });
            }
        }
        let kinds = [
            ObjectiveKind::Storage,
            ObjectiveKind::Throughput,
            ObjectiveKind::Energy,
            ObjectiveKind::Latency,
        ]
        .into_iter()
        .filter(|k| seen.contains(k))
        .collect();
        Ok(ObjectiveSpace { kinds })
    }
}

/// The exact objective values of one evaluated distribution, one entry
/// per declared axis in the space's canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveVector {
    entries: Vec<(ObjectiveKind, Rational)>,
}

impl ObjectiveVector {
    /// The paper's 2D vector: storage size and throughput.
    pub fn pair(size: u64, throughput: Rational) -> ObjectiveVector {
        ObjectiveVector {
            entries: vec![
                (ObjectiveKind::Storage, Rational::new(size as i128, 1)),
                (ObjectiveKind::Throughput, throughput),
            ],
        }
    }

    /// The 3D vector extending [`pair`](Self::pair) with an energy value.
    pub fn triple(size: u64, throughput: Rational, energy: Rational) -> ObjectiveVector {
        ObjectiveVector {
            entries: vec![
                (ObjectiveKind::Storage, Rational::new(size as i128, 1)),
                (ObjectiveKind::Throughput, throughput),
                (ObjectiveKind::Energy, energy),
            ],
        }
    }

    /// The entries, in the space's canonical axis order.
    pub fn entries(&self) -> &[(ObjectiveKind, Rational)] {
        &self.entries
    }

    /// The value of `kind`, if that axis is present.
    pub fn get(&self, kind: ObjectiveKind) -> Option<Rational> {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
    }

    /// Drops the given axis (used by projection tests and reports).
    pub fn without(&self, kind: ObjectiveKind) -> ObjectiveVector {
        ObjectiveVector {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| *k != kind)
                .copied()
                .collect(),
        }
    }

    /// Weak Pareto dominance: `self` is no worse than `other` on every
    /// axis, each compared under its own sense. Equal vectors dominate
    /// each other; [`ParetoSet`](crate::ParetoSet) breaks that tie on the
    /// witnessing distributions.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both vectors declare the same axes in the same
    /// order — comparing points from different spaces is a logic error.
    pub fn dominates(&self, other: &ObjectiveVector) -> bool {
        debug_assert!(
            self.entries.len() == other.entries.len()
                && self
                    .entries
                    .iter()
                    .zip(&other.entries)
                    .all(|((a, _), (b, _))| a == b),
            "dominance across different objective spaces"
        );
        self.entries
            .iter()
            .zip(&other.entries)
            .all(|((kind, a), (_, b))| match kind.sense() {
                Sense::Minimize => a <= b,
                Sense::Maximize => a >= b,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_accepts_any_order_and_canonicalizes() {
        let s: ObjectiveSpace = "energy,storage,throughput".parse().unwrap();
        assert_eq!(s, ObjectiveSpace::with_energy());
        assert_eq!(s.to_string(), "storage,throughput,energy");
        assert!(s.has(ObjectiveKind::Energy));
        assert!(!s.is_default());
        let d: ObjectiveSpace = "throughput,storage".parse().unwrap();
        assert!(d.is_default());
        assert_eq!(d, ObjectiveSpace::default());
        let l: ObjectiveSpace = "storage,throughput,energy,latency".parse().unwrap();
        assert_eq!(l.kinds().len(), 4);
        assert_eq!(l.to_string(), "storage,throughput,energy,latency");
    }

    #[test]
    fn parsing_rejects_bad_declarations() {
        assert!("storage,throughput,bogus"
            .parse::<ObjectiveSpace>()
            .is_err());
        assert!("storage,storage,throughput"
            .parse::<ObjectiveSpace>()
            .is_err());
        assert!("storage,energy".parse::<ObjectiveSpace>().is_err());
        assert!("energy".parse::<ObjectiveSpace>().is_err());
    }

    #[test]
    fn senses_are_fixed_per_axis() {
        assert_eq!(ObjectiveKind::Storage.sense(), Sense::Minimize);
        assert_eq!(ObjectiveKind::Throughput.sense(), Sense::Maximize);
        assert_eq!(ObjectiveKind::Energy.sense(), Sense::Minimize);
        assert_eq!(ObjectiveKind::Latency.sense(), Sense::Minimize);
    }

    #[test]
    fn dominance_respects_sense_per_axis() {
        let a = ObjectiveVector::pair(6, Rational::new(1, 7));
        let b = ObjectiveVector::pair(8, Rational::new(1, 7));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        let c = ObjectiveVector::pair(6, Rational::new(1, 4));
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
        // Equal vectors weakly dominate each other.
        assert!(a.dominates(&a.clone()));

        // In 3D a worse energy blocks dominance that held in 2D.
        let x = ObjectiveVector::triple(6, Rational::new(1, 7), Rational::new(50, 1));
        let y = ObjectiveVector::triple(8, Rational::new(1, 7), Rational::new(40, 1));
        assert!(!x.dominates(&y));
        assert!(!y.dominates(&x));
    }

    #[test]
    fn vector_accessors() {
        let v = ObjectiveVector::triple(6, Rational::new(1, 7), Rational::new(73, 1));
        assert_eq!(v.get(ObjectiveKind::Storage), Some(Rational::new(6, 1)));
        assert_eq!(v.get(ObjectiveKind::Energy), Some(Rational::new(73, 1)));
        assert_eq!(v.get(ObjectiveKind::Latency), None);
        let projected = v.without(ObjectiveKind::Energy);
        assert_eq!(projected, ObjectiveVector::pair(6, Rational::new(1, 7)));
        assert_eq!(v.entries().len(), 3);
    }
}
