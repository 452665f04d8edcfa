//! Progress reporting, JSON-lines tracing and checkpointing for the
//! exploration commands.
//!
//! [`CliObserver`] implements the kernel's
//! [`ExploreObserver`](buffy_core::ExploreObserver) and fans each event out
//! to up to three sinks:
//!
//! - `--progress`: human-readable status on **stderr** (phase transitions,
//!   evaluation counts, accepted Pareto points) — stdout stays reserved
//!   for the command's actual output. High-frequency lines are throttled
//!   to roughly ten per second on a monotonic clock so a fast exploration
//!   cannot flood the terminal; phase transitions, failures and the final
//!   summary always print. Each line carries the evaluation rate, and —
//!   when the command pre-counted the realizable
//!   [`DistributionSpace`](buffy_core::DistributionSpace) — the percent
//!   of that space already covered (evaluated, cache-answered or pruned)
//!   plus an ETA extrapolated from the coverage rate;
//! - `--trace-json <file>`: one JSON object per line (JSON-lines). Every
//!   event leads with `elapsed_us`, microseconds on the monotonic clock
//!   since the observer (and hence the run) was created. Each line is
//!   written with a single `write_all` call as it happens, so an
//!   interrupted or failing run never leaves a truncated object behind,
//!   and [`CliObserver::finish`] appends a final
//!   `{"event":"end","reason":…}` record on every exit path;
//! - `--checkpoint <file>`: the completed evaluations accumulate into a
//!   [`Checkpoint`] that is re-saved (atomically, via a temporary file)
//!   every [`CHECKPOINT_EVERY`] evaluations and once more at `finish`.
//!
//! The trace vocabulary (the `event` field): `phase`, `evaluation`,
//! `cache-hit`, `pruned`, `pareto`, `evaluation-failed`, `end`. All values are
//! numbers, fixed enum names, rationals rendered as `"p/q"`, or
//! JSON-escaped strings.

use buffy_core::{
    Checkpoint, CheckpointEntry, ExploreObserver, FaultPlan, ObjectiveSpace, ParetoPoint,
    SearchPhase,
};
use buffy_graph::{Rational, StorageDistribution};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimum spacing between throttled `--progress` lines, in microseconds
/// of monotonic time (~10 lines per second).
const PROGRESS_INTERVAL_US: u64 = 100_000;

/// How many evaluations between periodic checkpoint saves.
const CHECKPOINT_EVERY: u64 = 64;

/// Save attempts per checkpoint before giving up (transient I/O errors —
/// a full disk clearing, a journald fsync stall — often resolve within a
/// retry or two; persistent ones never will).
const SAVE_ATTEMPTS: u32 = 3;

/// Backoff between checkpoint save attempts, doubled each retry.
const SAVE_BACKOFF: Duration = Duration::from_millis(10);

/// Where and what to checkpoint (`--checkpoint`).
pub struct CheckpointConfig {
    /// Target file.
    pub path: PathBuf,
    /// Fingerprint of the graph under exploration.
    pub fingerprint: u64,
    /// Channel count of the graph (arity of every entry).
    pub channels: usize,
    /// Objective space of the run, recorded in the checkpoint header so a
    /// resume can refuse a mismatched `--objectives`.
    pub objectives: ObjectiveSpace,
    /// Deterministic fault schedule for the save path (torn writes,
    /// failed renames); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

struct CheckpointSink {
    path: PathBuf,
    checkpoint: Checkpoint,
    since_save: u64,
    faults: Option<Arc<FaultPlan>>,
    /// Set after a save exhausts its retries: the run continues
    /// uncheckpointed, and no further saves are attempted.
    disabled: bool,
}

impl CheckpointSink {
    /// Saves the checkpoint with bounded retry-with-backoff. A save that
    /// exhausts its attempts does NOT abort the exploration: the sink
    /// disables itself, warns once on stderr, and bumps the
    /// `buffy_checkpoint_save_failures_total` counter. Returns whether
    /// the checkpoint reached disk.
    fn save(&mut self) -> bool {
        if self.disabled {
            return false;
        }
        self.since_save = 0;
        let mut backoff = SAVE_BACKOFF;
        let mut last_error = String::new();
        for attempt in 0..SAVE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            match self
                .checkpoint
                .save_with(&self.path, self.faults.as_deref())
            {
                Ok(()) => return true,
                Err(e) => last_error = e.to_string(),
            }
        }
        self.disabled = true;
        eprintln!(
            "[buffy] warning: checkpoint save to {} failed after {SAVE_ATTEMPTS} attempts \
             ({last_error}); continuing uncheckpointed",
            self.path.display()
        );
        if let Some(recorder) = buffy_telemetry::active() {
            recorder
                .counter(
                    buffy_telemetry::names::CHECKPOINT_SAVE_FAILURES,
                    "Checkpoint saves that failed after exhausting the retry budget.",
                )
                .inc();
        }
        false
    }
}

/// Observer wired to the `--progress`, `--trace-json` and `--checkpoint`
/// options.
pub struct CliObserver {
    progress: bool,
    /// Run-start instant: origin of every `elapsed_us` trace field and of
    /// the progress throttle.
    start: Instant,
    /// Monotonic micros of the last throttled progress line
    /// (`u64::MAX` = none emitted yet).
    progress_last_us: AtomicU64,
    evaluations: AtomicU64,
    cache_hits: AtomicU64,
    prunes: AtomicU64,
    /// Total realizable candidates in the search window, when the command
    /// pre-counted them (`--progress` only): the denominator of the
    /// percent-covered and ETA annotations.
    space_total: Option<u64>,
    trace: Option<Mutex<File>>,
    checkpoint: Option<Mutex<CheckpointSink>>,
    /// Whether [`finish`](CliObserver::finish) ran. The [`Drop`] guard
    /// checks it so the trace gets its final `end` record on *every*
    /// exit path, including panics unwinding past the observer.
    finished: AtomicBool,
}

impl CliObserver {
    /// Builds the observer from the parsed options.
    ///
    /// # Errors
    ///
    /// Returns a message when the `--trace-json` path cannot be created
    /// (missing directory, no permission, …) — the command refuses to run
    /// rather than silently dropping the trace.
    pub fn from_options(
        progress: bool,
        trace_path: Option<&str>,
        checkpoint: Option<CheckpointConfig>,
    ) -> Result<CliObserver, String> {
        let trace = match trace_path {
            None => None,
            Some(path) => {
                let file = File::create(path)
                    .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
                Some(Mutex::new(file))
            }
        };
        let checkpoint = checkpoint.map(|config| {
            let mut checkpoint = Checkpoint::new(config.fingerprint, config.channels);
            checkpoint.objectives = config.objectives;
            Mutex::new(CheckpointSink {
                path: config.path,
                checkpoint,
                since_save: 0,
                faults: config.faults,
                disabled: false,
            })
        });
        Ok(CliObserver {
            progress,
            start: Instant::now(),
            progress_last_us: AtomicU64::new(u64::MAX),
            evaluations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            prunes: AtomicU64::new(0),
            space_total: None,
            trace,
            checkpoint,
            finished: AtomicBool::new(false),
        })
    }

    /// An observer with every output disabled: no progress, no trace, no
    /// checkpoint. Used for reference runs (e.g. `buffy chaos`) that only
    /// need the exploration result.
    pub fn quiet() -> CliObserver {
        CliObserver::from_options(false, None, None)
            .expect("an output-free observer cannot fail to build")
    }

    /// Attaches the pre-counted size of the realizable candidate space,
    /// enabling the percent-covered and ETA progress annotations.
    pub fn with_space_total(mut self, total: Option<u64>) -> CliObserver {
        self.space_total = total;
        self
    }

    /// The dynamic tail of a progress line: evaluation rate, and — when
    /// the candidate space was pre-counted — percent covered plus an ETA
    /// extrapolated from the coverage rate (evaluations, cache hits and
    /// prunes all cover candidates).
    fn progress_suffix(&self) -> String {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-6);
        let evals = self.evaluations.load(Ordering::Relaxed);
        let mut out = format!(", {:.0} evals/s", evals as f64 / elapsed);
        if let Some(total) = self.space_total {
            let covered = evals
                + self.cache_hits.load(Ordering::Relaxed)
                + self.prunes.load(Ordering::Relaxed);
            let pct = if total == 0 {
                100.0
            } else {
                100.0 * covered.min(total) as f64 / total as f64
            };
            let _ = write!(out, ", {pct:.1}% of space");
            let rate = covered as f64 / elapsed;
            // No ETA once the run is over (the final summary reuses this
            // suffix) or before any candidate was covered.
            if covered > 0 && covered < total && !self.finished.load(Ordering::Relaxed) {
                let eta = (total - covered) as f64 / rate;
                let _ = write!(out, ", ETA {eta:.0}s");
            }
        }
        out
    }

    /// Whether a throttled progress line may print now. Lossy under
    /// contention by design: when two threads race the interval, one line
    /// wins and the other is simply skipped.
    fn progress_tick(&self) -> bool {
        if !self.progress {
            return false;
        }
        let now = self.start.elapsed().as_micros() as u64;
        let last = self.progress_last_us.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < PROGRESS_INTERVAL_US {
            return false;
        }
        self.progress_last_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    fn trace_line(&self, line: std::fmt::Arguments<'_>) {
        if let Some(trace) = &self.trace {
            // One write_all per complete line: a crash between events never
            // leaves a JSON object cut in half. Every event object leads
            // with the run's monotonic clock.
            let body = line.to_string();
            let rest = body.strip_prefix('{').unwrap_or(&body);
            let text = format!(
                "{{\"elapsed_us\":{},{rest}\n",
                self.start.elapsed().as_micros() as u64
            );
            if let Ok(mut writer) = trace.lock() {
                let _ = writer.write_all(text.as_bytes());
            }
        }
    }

    /// Closes the run: appends the trace's final
    /// `{"event":"end","reason":…}` record and saves the checkpoint one
    /// last time. Call exactly once, on every exit path — `reason` is
    /// `"exact"` for complete runs, the cancellation reason's name for
    /// truncated ones, `"error"` when the run failed. Exit paths that
    /// never reach an explicit `finish` (a panic unwinding past the
    /// observer) are covered by the [`Drop`] guard, which closes the
    /// trace with reason `"aborted"`.
    ///
    /// # Errors
    ///
    /// Returns a message when the trace cannot be written. A failing
    /// checkpoint save is NOT an error: the sink has already retried
    /// with backoff, warned on stderr and counted the failure — an
    /// exploration's results must not be discarded because its
    /// checkpoint could not be.
    pub fn finish(&self, reason: &str) -> Result<(), String> {
        self.finished.store(true, Ordering::Relaxed);
        if self.progress {
            // The final summary is never throttled.
            eprintln!(
                "[buffy] finished ({reason}): {} analyses, {} cache hits{}",
                self.evaluations.load(Ordering::Relaxed),
                self.cache_hits.load(Ordering::Relaxed),
                self.progress_suffix()
            );
        }
        self.trace_line(format_args!(
            "{{\"event\":\"end\",\"reason\":\"{}\"}}",
            json_escape(reason)
        ));
        if let Some(trace) = &self.trace {
            let mut writer = trace.lock().map_err(|_| "trace writer poisoned")?;
            writer
                .flush()
                .map_err(|e| format!("cannot write trace file: {e}"))?;
        }
        if let Some(checkpoint) = &self.checkpoint {
            let mut sink = checkpoint.lock().map_err(|_| "checkpoint sink poisoned")?;
            sink.save();
        }
        Ok(())
    }
}

impl Drop for CliObserver {
    /// The trace contract's last line of defence: if the run never
    /// reached [`finish`](CliObserver::finish) — a contained panic
    /// re-raised by the command layer, an early `?` on an unrelated
    /// error — the trace still ends with a well-formed
    /// `{"event":"end","reason":"aborted"}` record and the checkpoint
    /// gets a best-effort final save.
    fn drop(&mut self) {
        if self.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        self.trace_line(format_args!("{{\"event\":\"end\",\"reason\":\"aborted\"}}"));
        if let Some(trace) = &self.trace {
            if let Ok(mut writer) = trace.lock() {
                let _ = writer.flush();
            }
        }
        if let Some(checkpoint) = &self.checkpoint {
            if let Ok(mut sink) = checkpoint.lock() {
                sink.save();
            }
        }
    }
}

/// Renders a distribution's capacities as a JSON array.
pub(crate) fn dist_json(dist: &StorageDistribution) -> String {
    let caps: Vec<String> = dist.as_slice().iter().map(u64::to_string).collect();
    format!("[{}]", caps.join(","))
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ExploreObserver for CliObserver {
    fn phase_started(&self, phase: SearchPhase) {
        if self.progress {
            eprintln!("[buffy] phase: {}", phase.name());
        }
        self.trace_line(format_args!(
            "{{\"event\":\"phase\",\"phase\":\"{}\"}}",
            phase.name()
        ));
    }

    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        nanos: u64,
    ) {
        let n = self.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
        if self.progress_tick() {
            eprintln!(
                "[buffy] {n} analyses, {} cache hits{}",
                self.cache_hits.load(Ordering::Relaxed),
                self.progress_suffix()
            );
        }
        self.trace_line(format_args!(
            "{{\"event\":\"evaluation\",\"distribution\":{},\"size\":{},\"throughput\":\"{}\",\"states\":{},\"nanos\":{}}}",
            dist_json(dist),
            dist.size(),
            throughput,
            states,
            nanos
        ));
        if let Some(checkpoint) = &self.checkpoint {
            if let Ok(mut sink) = checkpoint.lock() {
                sink.checkpoint.entries.push(CheckpointEntry {
                    capacities: dist.as_slice().to_vec(),
                    throughput,
                    states,
                });
                sink.since_save += 1;
                if sink.since_save >= CHECKPOINT_EVERY {
                    sink.save();
                }
            }
        }
    }

    fn evaluation_failed(&self, dist: &StorageDistribution, message: &str) {
        if self.progress {
            eprintln!("[buffy] evaluation of {dist} failed: {message}");
        }
        self.trace_line(format_args!(
            "{{\"event\":\"evaluation-failed\",\"distribution\":{},\"message\":\"{}\"}}",
            dist_json(dist),
            json_escape(message)
        ));
    }

    fn cache_hit(&self, dist: &StorageDistribution) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.trace_line(format_args!(
            "{{\"event\":\"cache-hit\",\"distribution\":{}}}",
            dist_json(dist)
        ));
    }

    fn distribution_pruned(&self, dist: &StorageDistribution) {
        self.prunes.fetch_add(1, Ordering::Relaxed);
        // Constant `kind`: perfbench/run.py reads it to pick the prunes it replays.
        self.trace_line(format_args!(
            "{{\"event\":\"pruned\",\"kind\":\"dominance\",\"distribution\":{}}}",
            dist_json(dist)
        ));
    }

    fn pareto_accepted(&self, point: &ParetoPoint) {
        if self.progress_tick() {
            eprintln!(
                "[buffy] pareto point: size {} throughput {}",
                point.size, point.throughput
            );
        }
        self.trace_line(format_args!(
            "{{\"event\":\"pareto\",\"size\":{},\"throughput\":\"{}\",\"distribution\":{}}}",
            point.size,
            point.throughput,
            dist_json(&point.distribution)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncreatable_trace_path_is_a_proper_error() {
        let err = CliObserver::from_options(false, Some("/nonexistent-dir/trace.jsonl"), None)
            .err()
            .expect("creating a trace in a missing directory must fail");
        assert!(err.contains("cannot create trace file"), "{err}");
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_lines_are_json_objects() {
        let path = std::env::temp_dir().join("buffy-observe-test-trace.jsonl");
        let obs = CliObserver::from_options(false, Some(path.to_str().unwrap()), None).unwrap();
        obs.phase_started(SearchPhase::Bounds);
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.evaluation_finished(&d, Rational::new(1, 7), 5, 1234);
        obs.cache_hit(&d);
        obs.distribution_pruned(&d);
        obs.evaluation_failed(&d, "panicked: \"why\"");
        obs.pareto_accepted(&ParetoPoint::new(d, Rational::new(1, 7)));
        obs.finish("exact").unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"event\":\"phase\""), "{}", lines[0]);
        assert!(
            lines[1].contains("\"event\":\"evaluation\"")
                && lines[1].contains("\"distribution\":[4,2]")
                && lines[1].contains("\"throughput\":\"1/7\""),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"event\":\"cache-hit\""), "{}", lines[2]);
        assert!(
            lines[3].contains("\"event\":\"pruned\"")
                && lines[3].contains("\"kind\":\"dominance\"")
                && lines[3].contains("\"distribution\":[4,2]"),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].contains("\"event\":\"evaluation-failed\"")
                && lines[4].contains("panicked: \\\"why\\\""),
            "{}",
            lines[4]
        );
        assert!(
            lines[5].contains("\"event\":\"pareto\"") && lines[5].contains("\"size\":6"),
            "{}",
            lines[5]
        );
        assert!(
            lines[6].contains("\"event\":\"end\"") && lines[6].contains("\"reason\":\"exact\""),
            "{}",
            lines[6]
        );
        // Every line is a single JSON object leading with the run clock:
        // braces balance and the line starts/ends with them (the
        // smoke-level check the CI run repeats with a real JSON parser).
        for line in lines {
            assert!(line.starts_with("{\"elapsed_us\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_lines_are_throttled() {
        let obs = CliObserver::from_options(true, None, None).unwrap();
        // The first line always prints; an immediate second one is inside
        // the 100 ms window and is suppressed.
        assert!(obs.progress_tick());
        assert!(!obs.progress_tick());
        // Without --progress nothing ever prints.
        let quiet = CliObserver::from_options(false, None, None).unwrap();
        assert!(!quiet.progress_tick());
    }

    #[test]
    fn progress_suffix_reports_rate_coverage_and_eta() {
        let obs = CliObserver::from_options(true, None, None)
            .unwrap()
            .with_space_total(Some(10));
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
        obs.cache_hit(&d);
        obs.distribution_pruned(&d);
        // 1 eval + 1 hit + 1 prune = 3 of 10 candidates covered.
        let suffix = obs.progress_suffix();
        assert!(suffix.contains(" evals/s"), "{suffix}");
        assert!(suffix.contains("30.0% of space"), "{suffix}");
        assert!(suffix.contains("ETA "), "{suffix}");
    }

    #[test]
    fn progress_suffix_without_space_total_is_rate_only() {
        let obs = CliObserver::from_options(true, None, None).unwrap();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
        let suffix = obs.progress_suffix();
        assert!(suffix.contains(" evals/s"), "{suffix}");
        assert!(!suffix.contains("% of space"), "{suffix}");
        assert!(!suffix.contains("ETA"), "{suffix}");
    }

    #[test]
    fn progress_suffix_saturates_at_full_coverage() {
        let obs = CliObserver::from_options(true, None, None)
            .unwrap()
            .with_space_total(Some(2));
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        for _ in 0..5 {
            obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
        }
        let suffix = obs.progress_suffix();
        // Coverage is clamped to 100% and a finished space has no ETA.
        assert!(suffix.contains("100.0% of space"), "{suffix}");
        assert!(!suffix.contains("ETA"), "{suffix}");
    }

    #[test]
    fn checkpoint_sink_records_evaluations() {
        let path = std::env::temp_dir().join("buffy-observe-test-checkpoint.ckpt");
        let obs = CliObserver::from_options(
            false,
            None,
            Some(CheckpointConfig {
                path: path.clone(),
                fingerprint: 99,
                channels: 2,
                objectives: ObjectiveSpace::default_2d(),
                faults: None,
            }),
        )
        .unwrap();
        let d1 = StorageDistribution::from_capacities(vec![4, 2]);
        let d2 = StorageDistribution::from_capacities(vec![5, 3]);
        obs.evaluation_finished(&d1, Rational::new(1, 7), 5, 10);
        obs.evaluation_finished(&d2, Rational::new(1, 6), 8, 20);
        obs.finish("exact").unwrap();

        let cp = Checkpoint::load(&path).unwrap();
        assert_eq!(cp.fingerprint, 99);
        assert_eq!(cp.channels, 2);
        assert_eq!(cp.entries.len(), 2);
        let map = cp.warm_start_map();
        assert_eq!(map.get(&d1), Some(&(Rational::new(1, 7), 5)));
        assert_eq!(map.get(&d2), Some(&(Rational::new(1, 6), 8)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_checkpoint_save_does_not_abort_the_run() {
        // An unwritable checkpoint directory: every save fails. The run
        // must continue and `finish` must still succeed.
        let obs = CliObserver::from_options(
            false,
            None,
            Some(CheckpointConfig {
                path: PathBuf::from("/nonexistent-dir/run.ckpt"),
                fingerprint: 7,
                channels: 2,
                objectives: ObjectiveSpace::default_2d(),
                faults: None,
            }),
        )
        .unwrap();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        for _ in 0..(CHECKPOINT_EVERY + 1) {
            obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
        }
        obs.finish("exact")
            .expect("checkpoint failure must not fail the run");
        // The sink disabled itself after the first exhausted retry.
        let sink = obs.checkpoint.as_ref().unwrap().lock().unwrap();
        assert!(sink.disabled);
    }

    #[test]
    fn injected_save_faults_recover_on_retry() {
        // Pick a seed whose write-fault stream tears the first attempt
        // and spares the second: the in-sink retry must recover and
        // publish an intact checkpoint.
        use buffy_core::FaultSite;
        let seed = (0..1000u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_rate(FaultSite::CheckpointWrite, 1, 2);
                p.should_inject(FaultSite::CheckpointWrite)
                    && !p.should_inject(FaultSite::CheckpointWrite)
            })
            .expect("some seed tears exactly the first save attempt");
        let path = std::env::temp_dir().join("buffy-observe-test-faulty.ckpt");
        std::fs::remove_file(&path).ok();
        let plan = Arc::new(FaultPlan::new(seed).with_rate(FaultSite::CheckpointWrite, 1, 2));
        let obs = CliObserver::from_options(
            false,
            None,
            Some(CheckpointConfig {
                path: path.clone(),
                fingerprint: 11,
                channels: 2,
                objectives: ObjectiveSpace::default_2d(),
                faults: Some(plan),
            }),
        )
        .unwrap();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
        obs.finish("exact").unwrap();
        let cp = Checkpoint::load(&path).expect("a retried save must publish intact");
        assert_eq!(cp.entries.len(), 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("ckpt.tmp")).ok();
    }

    #[test]
    fn drop_guard_closes_the_trace_on_panic_paths() {
        let path = std::env::temp_dir().join("buffy-observe-test-dropguard.jsonl");
        let caught = std::panic::catch_unwind(|| {
            let obs = CliObserver::from_options(false, Some(path.to_str().unwrap()), None).unwrap();
            let d = StorageDistribution::from_capacities(vec![4, 2]);
            obs.evaluation_finished(&d, Rational::new(1, 7), 5, 10);
            // The run dies mid-stream: `finish` never runs, the observer
            // unwinds, and the drop guard must close the trace.
            panic!("simulated mid-run crash");
        });
        assert!(caught.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"elapsed_us\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(
            lines[1].contains("\"event\":\"end\"") && lines[1].contains("\"reason\":\"aborted\""),
            "{}",
            lines[1]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_then_drop_emits_exactly_one_end_event() {
        let path = std::env::temp_dir().join("buffy-observe-test-oneend.jsonl");
        {
            let obs = CliObserver::from_options(false, Some(path.to_str().unwrap()), None).unwrap();
            obs.finish("exact").unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"event\":\"end\"").count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
