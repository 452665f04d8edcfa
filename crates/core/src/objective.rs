//! The declared objective space of an exploration: the axes a run
//! reports.
//!
//! The paper's trade-off space is two-dimensional — storage size against
//! throughput — and the searches rank points on exactly that pair
//! ([`ParetoSet`](crate::ParetoSet)). [`ObjectiveKind`] names the axes a
//! report can carry; [`ObjectiveSpace`] is the parsed `--objectives`
//! declaration (always including the paper's pair), which checkpoints
//! record. Energy and latency are annotations of the final front, computed
//! by the caller for each reported point (the CLI does so); neither moves
//! the front nor costs the search an evaluation.

use core::fmt;
use std::str::FromStr;

/// An axis of the objective space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveKind {
    /// Total storage size `sz(γ)` of the distribution (minimized).
    Storage,
    /// Throughput of the observed actor (maximized).
    Throughput,
    /// Exact energy per graph iteration under the actor power model
    /// (a report annotation, never ranked).
    Energy,
    /// Initial output latency of the observed actor (a report
    /// annotation, never ranked).
    Latency,
}

impl ObjectiveKind {
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

/// The ordered set of axes one exploration reports.
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

    /// The declared axes, in canonical order.
    pub fn kinds(&self) -> &[ObjectiveKind] {
        &self.kinds
    }

    /// Whether `kind` is declared.
    pub fn has(&self, kind: ObjectiveKind) -> bool {
        self.kinds.contains(&kind)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_accepts_any_order_and_canonicalizes() {
        let s: ObjectiveSpace = "energy,storage,throughput".parse().unwrap();
        assert_eq!(
            s.kinds(),
            [
                ObjectiveKind::Storage,
                ObjectiveKind::Throughput,
                ObjectiveKind::Energy
            ]
        );
        assert_eq!(s.to_string(), "storage,throughput,energy");
        assert!(s.has(ObjectiveKind::Energy));
        assert_ne!(s, ObjectiveSpace::default());
        let d: ObjectiveSpace = "throughput,storage".parse().unwrap();
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
}
