//! Checkpointing of exploration runs.
//!
//! A checkpoint is the portable part of an exploration's memoized state:
//! the set of completed throughput evaluations (distribution → throughput
//! and reduced-state count). Restoring it via
//! [`ExploreOptions::warm_start`](crate::ExploreOptions::warm_start)
//! replays each entry as a recorded evaluation on first request, so a
//! resumed run reproduces the Pareto front *and* the statistics of an
//! uninterrupted one byte for byte.
//!
//! The on-disk format is a versioned, checksummed text file:
//!
//! ```text
//! buffy-checkpoint v3
//! fingerprint 00f3a6e2d1c4b597
//! channels 2
//! objectives storage,throughput
//! entries 2
//! 4 2 1/7 42 0d8b2f1a3c4e5f60
//! 5 3 1/6 57 7a1b2c3d4e5f6071
//! checksum 8c1d2e3f4a5b6078
//! ```
//!
//! The fingerprint identifies the graph the entries belong to (callers
//! hash a canonical rendering of the model); the trailing checksum is the
//! [`fx_hash`] of everything above it, so truncated or corrupted files are
//! detected instead of silently poisoning a resumed run. Writes go through
//! a temporary file renamed into place, so a crash mid-write never leaves
//! a half-written checkpoint at the target path.
//!
//! Version 3 adds a per-record checksum column — the [`fx_hash`] of the
//! rest of the entry line — so a torn or truncated file is *salvageable*:
//! [`Checkpoint::salvage`] recovers the longest prefix of records whose
//! checksums verify, instead of rejecting the whole file the way the
//! strict [`Checkpoint::parse`] does. Only corruption *inside* a record
//! loses that record; everything before it warm-starts the resumed run.
//!
//! Version 2 added the `objectives` header declaring the objective space
//! the run explored; v1 lacked it. Both legacy versions are still read
//! (v1 defaults to the paper's storage/throughput space), but only v3
//! files carry record checksums and thus only v3 files can be salvaged.

use crate::explore::WarmStart;
use crate::fault::{FaultPlan, FaultSite};
use crate::objective::ObjectiveSpace;
use buffy_analysis::fx_hash;
use buffy_graph::{Rational, StorageDistribution};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Magic first line identifying the format and its version.
const MAGIC: &str = "buffy-checkpoint v3";

/// Previous format versions, still accepted by [`Checkpoint::parse`]:
/// v2 lacks the per-record checksums, v1 additionally lacks the
/// `objectives` header.
const MAGIC_V2: &str = "buffy-checkpoint v2";
const MAGIC_V1: &str = "buffy-checkpoint v1";

/// One completed evaluation: a storage distribution with its analysed
/// throughput and the size of the reduced state space the analysis stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The per-channel capacities of the distribution.
    pub capacities: Vec<u64>,
    /// The analysed throughput.
    pub throughput: Rational,
    /// Reduced states stored by the analysis (replayed into the
    /// `max_states` statistic on resume).
    pub states: u64,
}

/// A checkpoint: the completed evaluations of one exploration run, tagged
/// with a fingerprint of the graph they belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the model (callers hash a canonical rendering);
    /// resuming against a different graph is refused by the CLI.
    pub fingerprint: u64,
    /// Number of channels (length of every entry's capacity vector).
    pub channels: usize,
    /// The objective space the checkpointed run explored (v1 files
    /// default to the paper's storage/throughput pair).
    pub objectives: ObjectiveSpace,
    /// The completed evaluations.
    pub entries: Vec<CheckpointEntry>,
}

/// What [`Checkpoint::salvage`] recovered from a damaged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageReport {
    /// Entries the header declared.
    pub declared: usize,
    /// Entries whose record checksums verified (the salvaged prefix).
    pub salvaged: usize,
    /// Whether the file was in fact intact (strict parse succeeded, so
    /// nothing was lost).
    pub complete: bool,
}

/// Errors loading or saving a [`Checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file is not a valid checkpoint (bad magic, malformed line,
    /// checksum mismatch, truncation).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn corrupt(m: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(m.into())
}

/// Parses the header lines shared by every version. Returns the parsed
/// fields and the remaining line iterator positioned at the first entry.
struct Header {
    fingerprint: u64,
    channels: usize,
    objectives: ObjectiveSpace,
    count: usize,
}

fn parse_header(magic: &str, lines: &mut std::str::Lines<'_>) -> Result<Header, CheckpointError> {
    let field = |line: Option<&str>, name: &str| -> Result<String, CheckpointError> {
        let line = line.ok_or_else(|| corrupt(format!("missing {name} line")))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| corrupt(format!("malformed {name} line {line:?}")))
    };
    let fingerprint = u64::from_str_radix(&field(lines.next(), "fingerprint")?, 16)
        .map_err(|_| corrupt("malformed fingerprint"))?;
    let channels: usize = field(lines.next(), "channels")?
        .parse()
        .map_err(|_| corrupt("malformed channel count"))?;
    let objectives = if magic == MAGIC_V1 {
        ObjectiveSpace::default_2d()
    } else {
        field(lines.next(), "objectives")?
            .parse()
            .map_err(|e| corrupt(format!("malformed objectives line: {e}")))?
    };
    let count: usize = field(lines.next(), "entries")?
        .parse()
        .map_err(|_| corrupt("malformed entry count"))?;
    Ok(Header {
        fingerprint,
        channels,
        objectives,
        count,
    })
}

/// Parses the version-independent payload of an entry line
/// (`cap... throughput states`).
fn parse_entry_fields(payload: &str, channels: usize) -> Result<CheckpointEntry, CheckpointError> {
    let fields: Vec<&str> = payload.split_whitespace().collect();
    if fields.len() != channels + 2 {
        return Err(corrupt(format!("malformed entry line {payload:?}")));
    }
    let capacities = fields[..channels]
        .iter()
        .map(|f| f.parse::<u64>())
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|_| corrupt(format!("malformed capacity in {payload:?}")))?;
    let throughput: Rational = fields[channels]
        .parse()
        .map_err(|_| corrupt(format!("malformed throughput in {payload:?}")))?;
    let states: u64 = fields[channels + 1]
        .parse()
        .map_err(|_| corrupt(format!("malformed state count in {payload:?}")))?;
    Ok(CheckpointEntry {
        capacities,
        throughput,
        states,
    })
}

/// Parses and checksum-verifies one v3 entry line
/// (`cap... throughput states recordhash`).
fn parse_entry_v3(line: &str, channels: usize) -> Result<CheckpointEntry, CheckpointError> {
    let (payload, declared) = line
        .rsplit_once(' ')
        .ok_or_else(|| corrupt(format!("malformed entry line {line:?}")))?;
    if declared.len() != 16 {
        return Err(corrupt(format!("malformed record checksum in {line:?}")));
    }
    let declared =
        u64::from_str_radix(declared, 16).map_err(|_| corrupt("malformed record checksum"))?;
    let actual = fx_hash(payload);
    if declared != actual {
        return Err(corrupt(format!(
            "record checksum mismatch in {line:?}: declared {declared:016x}, payload hashes to {actual:016x}"
        )));
    }
    parse_entry_fields(payload, channels)
}

impl Checkpoint {
    /// An empty checkpoint for a graph with `channels` channels, in the
    /// default objective space (set [`objectives`](Self::objectives) for
    /// an extended run).
    pub fn new(fingerprint: u64, channels: usize) -> Checkpoint {
        Checkpoint {
            fingerprint,
            channels,
            objectives: ObjectiveSpace::default_2d(),
            entries: Vec::new(),
        }
    }

    /// Renders the checkpoint in its on-disk text format (v3), including
    /// per-record checksums and the trailing whole-file checksum line.
    pub fn render(&self) -> String {
        let mut body = String::new();
        let _ = writeln!(body, "{MAGIC}");
        let _ = writeln!(body, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(body, "channels {}", self.channels);
        let _ = writeln!(body, "objectives {}", self.objectives);
        let _ = writeln!(body, "entries {}", self.entries.len());
        let mut payload = String::new();
        for e in &self.entries {
            debug_assert_eq!(e.capacities.len(), self.channels);
            payload.clear();
            for c in &e.capacities {
                let _ = write!(payload, "{c} ");
            }
            let _ = write!(payload, "{} {}", e.throughput, e.states);
            let _ = writeln!(body, "{payload} {:016x}", fx_hash(&payload));
        }
        let checksum = fx_hash(&body);
        let _ = writeln!(body, "checksum {checksum:016x}");
        body
    }

    /// Parses the on-disk text format strictly, verifying magic, counts,
    /// record checksums (v3) and the whole-file checksum. Accepts v1, v2
    /// and v3 files.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] on any malformation. For a damaged v3
    /// file, [`Checkpoint::salvage`] can recover the valid prefix instead.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let idx = text
            .rfind("\nchecksum ")
            .ok_or_else(|| corrupt("missing checksum line"))?;
        let body = &text[..idx + 1];
        let declared = text[idx + "\nchecksum ".len()..].trim();
        let declared =
            u64::from_str_radix(declared, 16).map_err(|_| corrupt("malformed checksum"))?;
        let actual = fx_hash(body);
        if declared != actual {
            return Err(corrupt(format!(
                "checksum mismatch: file says {declared:016x}, content hashes to {actual:016x}"
            )));
        }

        let mut lines = body.lines();
        let magic = lines.next().ok_or_else(|| corrupt("empty file"))?;
        if magic != MAGIC && magic != MAGIC_V2 && magic != MAGIC_V1 {
            return Err(corrupt(format!(
                "unsupported header {magic:?} (expected {MAGIC:?})"
            )));
        }
        let header = parse_header(magic, &mut lines)?;

        let mut entries = Vec::with_capacity(header.count);
        for _ in 0..header.count {
            let line = lines
                .next()
                .ok_or_else(|| corrupt("fewer entries than declared"))?;
            let entry = if magic == MAGIC {
                parse_entry_v3(line, header.channels)?
            } else {
                parse_entry_fields(line, header.channels)?
            };
            entries.push(entry);
        }
        if lines.next().is_some() {
            return Err(corrupt("more entries than declared"));
        }
        Ok(Checkpoint {
            fingerprint: header.fingerprint,
            channels: header.channels,
            objectives: header.objectives,
            entries,
        })
    }

    /// Recovers the longest valid prefix of a damaged v3 checkpoint.
    ///
    /// Tries the strict [`parse`](Checkpoint::parse) first; when that
    /// fails on a v3 file with an intact header, entry lines are accepted
    /// for as long as their per-record checksums verify, and the first
    /// torn, truncated or corrupted record stops the scan. The salvaged
    /// prefix warm-starts a resumed run that completes byte-identically
    /// to one resumed from the full file's prefix.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the header itself is damaged, or
    /// when the file is a legacy v1/v2 checkpoint (no record checksums to
    /// verify a prefix against).
    pub fn salvage(text: &str) -> Result<(Checkpoint, SalvageReport), CheckpointError> {
        let strict = match Checkpoint::parse(text) {
            Ok(cp) => {
                let n = cp.entries.len();
                return Ok((
                    cp,
                    SalvageReport {
                        declared: n,
                        salvaged: n,
                        complete: true,
                    },
                ));
            }
            Err(e) => e,
        };

        let mut lines = text.lines();
        let magic = lines.next().ok_or_else(|| corrupt("empty file"))?;
        if magic != MAGIC {
            // Legacy files carry no record checksums: a damaged prefix
            // cannot be verified, so the strict error stands.
            return Err(strict);
        }
        let header = parse_header(magic, &mut lines)?;

        let mut entries = Vec::new();
        for line in lines {
            if entries.len() == header.count || line.starts_with("checksum ") {
                break;
            }
            match parse_entry_v3(line, header.channels) {
                Ok(entry) => entries.push(entry),
                Err(_) => break,
            }
        }
        let salvaged = entries.len();
        Ok((
            Checkpoint {
                fingerprint: header.fingerprint,
                channels: header.channels,
                objectives: header.objectives,
                entries,
            },
            SalvageReport {
                declared: header.count,
                salvaged,
                complete: false,
            },
        ))
    }

    /// Writes the checkpoint to `path` atomically: the rendering goes to a
    /// sibling temporary file first and is renamed into place, so an
    /// interrupted write never leaves a torn checkpoint at the target.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when writing or renaming fails.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(path, None)
    }

    /// [`save`](Checkpoint::save) with an optional fault plan injecting
    /// torn writes ([`FaultSite::CheckpointWrite`]: only a prefix of the
    /// rendering reaches the temp file) and failed renames
    /// ([`FaultSite::CheckpointRename`]: the temp file is written but
    /// never published). Both surface as [`CheckpointError::Io`], exactly
    /// like the real failures they model.
    pub fn save_with(
        &self,
        path: &Path,
        faults: Option<&FaultPlan>,
    ) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let text = self.render();
        if let Some(plan) = faults {
            if plan.should_inject(FaultSite::CheckpointWrite) {
                // A torn write: two thirds of the bytes land, then the
                // "device" gives up.
                let torn = &text[..text.len() * 2 / 3];
                let _ = std::fs::write(&tmp, torn);
                return Err(CheckpointError::Io(format!(
                    "injected torn write to {}",
                    tmp.display()
                )));
            }
        }
        std::fs::write(&tmp, &text)
            .map_err(|e| CheckpointError::Io(format!("cannot write {}: {e}", tmp.display())))?;
        if let Some(plan) = faults {
            if plan.should_inject(FaultSite::CheckpointRename) {
                return Err(CheckpointError::Io(format!(
                    "injected rename failure for {}",
                    tmp.display()
                )));
            }
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            CheckpointError::Io(format!(
                "cannot rename {} to {}: {e}",
                tmp.display(),
                path.display()
            ))
        })
    }

    /// Loads and strictly verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when reading fails,
    /// [`CheckpointError::Corrupt`] when verification does.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("cannot read {}: {e}", path.display())))?;
        Checkpoint::parse(&text)
    }

    /// Loads a checkpoint from `path`, salvaging the longest valid prefix
    /// when the file is a damaged v3 checkpoint
    /// (see [`salvage`](Checkpoint::salvage)).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when reading fails,
    /// [`CheckpointError::Corrupt`] when not even a prefix is recoverable.
    pub fn load_salvaged(path: &Path) -> Result<(Checkpoint, SalvageReport), CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("cannot read {}: {e}", path.display())))?;
        Checkpoint::salvage(&text)
    }

    /// The warm-start map this checkpoint restores
    /// ([`ExploreOptions::warm_start`](crate::ExploreOptions::warm_start)).
    pub fn warm_start_map(&self) -> WarmStart {
        self.entries
            .iter()
            .map(|e| {
                (
                    StorageDistribution::from_capacities(e.capacities.clone()),
                    (e.throughput, e.states),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0x00f3_a6e2_d1c4_b597,
            channels: 2,
            objectives: ObjectiveSpace::default_2d(),
            entries: vec![
                CheckpointEntry {
                    capacities: vec![4, 2],
                    throughput: Rational::new(1, 7),
                    states: 42,
                },
                CheckpointEntry {
                    capacities: vec![5, 3],
                    throughput: Rational::new(1, 6),
                    states: 57,
                },
            ],
        }
    }

    /// Renders `cp` the way a legacy v1/v2 writer did: no record
    /// checksums, and for v1 no objectives header.
    fn render_legacy(cp: &Checkpoint, magic: &str) -> String {
        let mut body = String::new();
        let _ = writeln!(body, "{magic}");
        let _ = writeln!(body, "fingerprint {:016x}", cp.fingerprint);
        let _ = writeln!(body, "channels {}", cp.channels);
        if magic != MAGIC_V1 {
            let _ = writeln!(body, "objectives {}", cp.objectives);
        }
        let _ = writeln!(body, "entries {}", cp.entries.len());
        for e in &cp.entries {
            for c in &e.capacities {
                let _ = write!(body, "{c} ");
            }
            let _ = writeln!(body, "{} {}", e.throughput, e.states);
        }
        let checksum = fx_hash(&body);
        let _ = writeln!(body, "checksum {checksum:016x}");
        body
    }

    #[test]
    fn render_parse_round_trips() {
        let cp = sample();
        let text = cp.render();
        assert!(text.starts_with(MAGIC));
        assert!(text.ends_with('\n'));
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, cp);
        let empty = Checkpoint::new(7, 3);
        assert_eq!(Checkpoint::parse(&empty.render()).unwrap(), empty);
    }

    #[test]
    fn warm_start_map_restores_entries() {
        let map = sample().warm_start_map();
        assert_eq!(map.len(), 2);
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        assert_eq!(map.get(&d), Some(&(Rational::new(1, 7), 42)));
    }

    #[test]
    fn corruption_is_rejected() {
        let text = sample().render();
        // Flip one capacity digit: the checksums no longer match.
        let tampered = text.replacen("4 2 1/7", "9 2 1/7", 1);
        assert!(matches!(
            Checkpoint::parse(&tampered),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncation loses the checksum line entirely.
        let truncated = &text[..text.len() / 2];
        assert!(Checkpoint::parse(truncated).is_err());
        // A different version tag is refused even with a valid checksum.
        let other = text.replacen("v3", "v9", 1);
        assert!(Checkpoint::parse(&other).is_err());
        // Entry count mismatch.
        let short = text.replacen("entries 2", "entries 3", 1);
        assert!(Checkpoint::parse(&short).is_err());
    }

    #[test]
    fn legacy_v1_files_parse_with_default_objectives() {
        let cp = sample();
        let text = render_legacy(&cp, MAGIC_V1);
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.objectives, ObjectiveSpace::default_2d());
    }

    #[test]
    fn legacy_v2_files_parse() {
        let mut cp = sample();
        cp.objectives = "storage,throughput,energy".parse().unwrap();
        let text = render_legacy(&cp, MAGIC_V2);
        assert!(text.contains("objectives storage,throughput,energy\n"));
        assert_eq!(Checkpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn legacy_files_cannot_be_salvaged() {
        let cp = sample();
        let text = render_legacy(&cp, MAGIC_V2);
        // Damage an entry: strict parse fails, and salvage refuses too
        // (no record checksums to trust a prefix by).
        let tampered = text.replacen("4 2 1/7", "9 2 1/7", 1);
        assert!(Checkpoint::salvage(&tampered).is_err());
        // An intact legacy file still loads through the salvage path.
        let (back, report) = Checkpoint::salvage(&text).unwrap();
        assert_eq!(back, cp);
        assert!(report.complete);
    }

    #[test]
    fn extended_objectives_round_trip() {
        let mut cp = sample();
        cp.objectives = "storage,throughput,energy".parse().unwrap();
        let text = cp.render();
        assert!(text.contains("objectives storage,throughput,energy\n"));
        assert_eq!(Checkpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn salvage_recovers_prefix_at_any_record_boundary() {
        let cp = sample();
        let text = cp.render();
        let header_end = {
            // Byte offset just past the "entries N" line.
            let idx = text.find("entries 2\n").unwrap();
            idx + "entries 2\n".len()
        };
        let line_ends: Vec<usize> = text[header_end..]
            .match_indices('\n')
            .take(cp.entries.len())
            .map(|(i, _)| header_end + i + 1)
            .collect();
        for (k, &end) in line_ends.iter().enumerate() {
            let truncated = &text[..end];
            assert!(Checkpoint::parse(truncated).is_err());
            let (salv, report) = Checkpoint::salvage(truncated).unwrap();
            assert_eq!(salv.entries, cp.entries[..k + 1]);
            assert_eq!(report.declared, 2);
            assert_eq!(report.salvaged, k + 1);
            assert!(!report.complete);
            assert_eq!(salv.fingerprint, cp.fingerprint);
            assert_eq!(salv.objectives, cp.objectives);
        }
        // Truncating into the middle of record 2 keeps record 1 only.
        let mid = (line_ends[0] + line_ends[1]) / 2;
        let (salv, report) = Checkpoint::salvage(&text[..mid]).unwrap();
        assert_eq!(salv.entries, cp.entries[..1]);
        assert_eq!(report.salvaged, 1);
    }

    #[test]
    fn salvage_rejects_only_the_corrupt_record() {
        let text = sample().render();
        // Corrupt the *second* record's payload: its record checksum no
        // longer matches, so salvage keeps exactly the first record.
        let tampered = text.replacen("5 3 1/6", "5 9 1/6", 1);
        assert!(Checkpoint::parse(&tampered).is_err());
        let (salv, report) = Checkpoint::salvage(&tampered).unwrap();
        assert_eq!(report.salvaged, 1);
        assert_eq!(salv.entries, sample().entries[..1]);
        // Corrupting the *first* record salvages an empty (but valid)
        // checkpoint: header metadata survives, entries do not.
        let tampered = text.replacen("4 2 1/7", "9 2 1/7", 1);
        let (salv, report) = Checkpoint::salvage(&tampered).unwrap();
        assert_eq!(report.salvaged, 0);
        assert!(salv.entries.is_empty());
        assert_eq!(salv.fingerprint, sample().fingerprint);
        // A damaged header is beyond salvage.
        let tampered = text.replacen("channels 2", "channels x", 1);
        assert!(Checkpoint::salvage(&tampered).is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "buffy-checkpoint-test-{}-{:x}",
            std::process::id(),
            fx_hash(&"save_and_load_round_trip")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        // Overwriting is atomic-by-rename: the temporary never lingers.
        cp.save(&path).unwrap();
        assert!(!dir.join("run.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_save_faults_surface_as_io_errors() {
        let dir = std::env::temp_dir().join(format!(
            "buffy-checkpoint-test-{}-{:x}",
            std::process::id(),
            fx_hash(&"injected_save_faults")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cp = sample();

        // Torn write: the target is never created, the temp file holds a
        // prefix that still salvages.
        let path = dir.join("torn.ckpt");
        let plan = FaultPlan::new(0).with_rate(FaultSite::CheckpointWrite, 1, 1);
        assert!(matches!(
            cp.save_with(&path, Some(&plan)),
            Err(CheckpointError::Io(_))
        ));
        assert!(!path.exists());
        let torn = std::fs::read_to_string(dir.join("torn.ckpt.tmp")).unwrap();
        assert!(Checkpoint::parse(&torn).is_err());
        let (salv, report) = Checkpoint::salvage(&torn).unwrap();
        assert!(!report.complete);
        assert!(salv.entries.len() < cp.entries.len() || report.salvaged < report.declared);

        // Failed rename: the temp file is complete but unpublished.
        let path = dir.join("rename.ckpt");
        let plan = FaultPlan::new(0).with_rate(FaultSite::CheckpointRename, 1, 1);
        assert!(matches!(
            cp.save_with(&path, Some(&plan)),
            Err(CheckpointError::Io(_))
        ));
        assert!(!path.exists());
        assert_eq!(
            Checkpoint::parse(&std::fs::read_to_string(dir.join("rename.ckpt.tmp")).unwrap())
                .unwrap(),
            cp
        );

        // A quiet plan leaves saves untouched.
        let path = dir.join("quiet.ckpt");
        let plan = FaultPlan::new(0);
        cp.save_with(&path, Some(&plan)).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
