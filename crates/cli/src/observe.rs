//! Progress reporting, JSON-lines tracing and checkpointing for the
//! exploration commands, and the one observation setup they share.
//!
//! [`CliObserver`] is the command layer's sink of the kernel's
//! [`Event`] stream. It folds every event into a [`LiveStats`] — the
//! counters `--progress` prints and, with `--serve`, `/status` reports —
//! and renders it to up to three outputs:
//!
//! - `--progress`: human-readable status on **stderr** (phase transitions,
//!   evaluation counts, accepted Pareto points) — stdout stays reserved
//!   for the command's actual output. High-frequency lines are throttled
//!   to roughly ten per second on a monotonic clock so a fast exploration
//!   cannot flood the terminal; phase transitions, failures and the final
//!   summary always print. Each line carries the evaluation rate, and —
//!   when the command pre-counted the realizable
//!   [`DistributionSpace`](buffy_core::DistributionSpace) — the percent
//!   of that space already covered (evaluated or cache-answered) plus an
//!   ETA extrapolated from the coverage rate;
//! - `--trace-json <file>`: one JSON object per event and line
//!   ([`Event::trace_line`]), led by `elapsed_us`, microseconds on the
//!   monotonic clock since the observer (and hence the run) was created.
//!   Each line is written with a single `write_all` call as it happens,
//!   so an interrupted or failing run never leaves a truncated object
//!   behind, and the run's [`Event::End`] appends a final
//!   `{"event":"end","reason":…}` record on every exit path;
//! - `--checkpoint <file>`: the completed evaluations accumulate into a
//!   [`Checkpoint`] that is re-saved (atomically, via a temporary file)
//!   every [`CHECKPOINT_EVERY`] evaluations and once more at the end.
//!
//! [`Observation`] sets up everything one command observes its run with
//! — this sink, the telemetry recorder and the `--serve` server with its
//! event ring — and closes all of it with a single
//! [`finish`](Observation::finish).

use crate::args::ParsedArgs;
use crate::serve::ServeSession;
use crate::telemetry::TelemetrySession;
use buffy_core::{
    Checkpoint, CheckpointEntry, Event, ExploreObserver, FaultPlan, LiveStats, ObjectiveSpace,
};
use buffy_graph::{Rational, StorageDistribution};
use buffy_telemetry::Snapshot;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// The run's counters, phase and front, folded from every event this
    /// observer receives: what the progress lines print and what a
    /// `--serve` server reports on `/status`.
    stats: Arc<LiveStats>,
    /// Total realizable candidates in the search window, when the command
    /// pre-counted them (`--progress` only): the denominator of the
    /// percent-covered and ETA annotations.
    space_total: Option<u64>,
    trace: Option<Mutex<File>>,
    checkpoint: Option<Mutex<CheckpointSink>>,
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
            stats: Arc::new(LiveStats::new()),
            space_total: None,
            trace,
            checkpoint,
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

    /// The run's counters, phase and front, as this observer folds them.
    pub fn stats(&self) -> Arc<LiveStats> {
        Arc::clone(&self.stats)
    }

    /// The dynamic tail of a progress line: evaluation rate, and — when
    /// the candidate space was pre-counted — percent covered plus an ETA
    /// extrapolated from the coverage rate (evaluations and cache hits
    /// both cover candidates).
    fn progress_suffix(&self) -> String {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-6);
        let counters = self.stats.counters();
        let mut out = format!(", {:.0} evals/s", counters.evaluations as f64 / elapsed);
        if let Some(total) = self.space_total {
            let covered = counters.requests();
            let pct = if total == 0 {
                100.0
            } else {
                100.0 * covered.min(total) as f64 / total as f64
            };
            let _ = write!(out, ", {pct:.1}% of space");
            let rate = covered as f64 / elapsed;
            // No ETA once the run is over (the final summary reuses this
            // suffix) or before any candidate was covered.
            if covered > 0 && covered < total && !self.stats.is_finished() {
                let eta = (total - covered) as f64 / rate;
                let _ = write!(out, ", ETA {eta:.0}s");
            }
        }
        out
    }

    /// Whether a throttled progress line may print now: the first one,
    /// then at most one per interval. Events arrive one at a time on the
    /// driver thread, so a plain load and store suffice.
    fn progress_tick(&self) -> bool {
        if !self.progress {
            return false;
        }
        let now = self.start.elapsed().as_micros() as u64;
        let last = self.progress_last_us.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < PROGRESS_INTERVAL_US {
            return false;
        }
        self.progress_last_us.store(now, Ordering::Relaxed);
        true
    }

    /// The `N analyses, M cache hits, …` body of a progress line.
    fn progress_counts(&self) -> String {
        let counters = self.stats.counters();
        format!(
            "{} analyses, {} cache hits{}",
            counters.evaluations,
            counters.cache_hits,
            self.progress_suffix()
        )
    }

    /// Adds one completed evaluation to the checkpoint, saving it every
    /// [`CHECKPOINT_EVERY`] entries.
    fn record(&self, dist: &StorageDistribution, throughput: Rational, states: u64) {
        let Some(checkpoint) = &self.checkpoint else {
            return;
        };
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

    /// Closes the outputs at the run's [`Event::End`]: the final progress
    /// summary and the checkpoint's last save. A failing save is not an
    /// error: the sink has already retried with backoff, warned on stderr
    /// and counted the failure — an exploration's results must not be
    /// discarded because its checkpoint could not be.
    fn close(&self, reason: &str) {
        if self.progress {
            // The final summary is never throttled.
            eprintln!("[buffy] finished ({reason}): {}", self.progress_counts());
        }
        if let Some(checkpoint) = &self.checkpoint {
            if let Ok(mut sink) = checkpoint.lock() {
                sink.save();
            }
        }
    }
}

impl ExploreObserver for CliObserver {
    fn event(&self, event: &Event<'_>) {
        self.stats.event(event);
        if let Some(trace) = &self.trace {
            // One write_all per complete line: a crash between events
            // never leaves a JSON object cut in half.
            let line = event.trace_line(self.start.elapsed().as_micros() as u64) + "\n";
            if let Ok(mut writer) = trace.lock() {
                let _ = writer.write_all(line.as_bytes());
            }
        }
        match *event {
            Event::Phase(phase) if self.progress => eprintln!("[buffy] phase: {phase}"),
            Event::Evaluated {
                dist,
                throughput,
                states,
                ..
            } => {
                if self.progress_tick() {
                    eprintln!("[buffy] {}", self.progress_counts());
                }
                self.record(dist, throughput, states);
            }
            Event::Failed { dist, message } if self.progress => {
                eprintln!("[buffy] evaluation of {dist} failed: {message}");
            }
            Event::Accepted(point) if self.progress_tick() => eprintln!(
                "[buffy] pareto point: size {} throughput {}",
                point.size, point.throughput
            ),
            Event::End { reason } => self.close(reason),
            _ => {}
        }
    }
}

impl Drop for CliObserver {
    /// The trace contract's last line of defence: if the run never
    /// received its [`Event::End`] — a contained panic re-raised by the
    /// command layer, an early `?` on an unrelated error — the trace
    /// still ends with a well-formed `{"event":"end","reason":"aborted"}`
    /// record and the checkpoint gets a best-effort final save.
    fn drop(&mut self) {
        if !self.stats.is_finished() {
            self.event(&Event::End { reason: "aborted" });
        }
    }
}

/// Everything one exploring command observes its run with: the
/// [`CliObserver`] (progress, trace, checkpoint and the [`LiveStats`]
/// fold), the telemetry recorder, and with `--serve` the server and the
/// event ring it streams.
pub(crate) struct Observation {
    observer: Arc<dyn ExploreObserver>,
    telemetry: Option<TelemetrySession>,
    serve: Option<ServeSession>,
    finished: bool,
}

impl Observation {
    /// Installs the recorder when `--metrics`, `--chrome-trace`, `--json`
    /// or `--serve` asks for one, then starts the `--serve` server for
    /// `graph` explored by `algorithm`.
    ///
    /// # Errors
    ///
    /// The server's option and bind errors.
    pub(crate) fn start(
        parsed: &ParsedArgs,
        cli: CliObserver,
        graph: &str,
        algorithm: &str,
    ) -> Result<Observation, String> {
        let telemetry = TelemetrySession::from_options(parsed);
        let serve = ServeSession::from_options(parsed, graph, algorithm, &telemetry, cli.stats())?;
        let mut sinks: Vec<Arc<dyn ExploreObserver>> = vec![Arc::new(cli)];
        if let Some(session) = &serve {
            sinks.push(session.ring());
        }
        Ok(Observation {
            observer: Arc::new(sinks),
            telemetry: Some(telemetry),
            serve,
            finished: false,
        })
    }

    /// The observer the run reports to.
    pub(crate) fn observer(&self) -> Arc<dyn ExploreObserver> {
        Arc::clone(&self.observer)
    }

    /// Ends the run for `reason` — `"exact"` for complete runs, the
    /// cancellation reason's name for truncated ones, `"error"` when the
    /// run failed. The [`Event::End`] closes the trace, saves the
    /// checkpoint, prints the progress summary and ends the `/events`
    /// stream; then the recorder is uninstalled and its export files are
    /// written. Returns the recorder snapshot for the `--json` report
    /// (`None` when telemetry was never requested). A `--serve` server
    /// keeps serving the final state for `--serve-linger` once the
    /// observation drops, after the command printed its report.
    ///
    /// # Errors
    ///
    /// Returns a message when an export file cannot be written.
    pub(crate) fn finish(&mut self, reason: &str) -> Result<Option<Snapshot>, String> {
        self.finished = true;
        self.observer.event(&Event::End { reason });
        match self.telemetry.take() {
            Some(telemetry) => telemetry.finish(),
            None => Ok(None),
        }
    }
}

impl Drop for Observation {
    /// A finished run lingers its server; an exit path that never reached
    /// [`finish`](Observation::finish) — an early `?`, a contained panic —
    /// still ends the stream with reason `"aborted"`, so the trace closes
    /// and attached `/events` clients are released, without lingering.
    fn drop(&mut self) {
        if !self.finished {
            self.observer.event(&Event::End { reason: "aborted" });
        } else if let Some(session) = self.serve.take() {
            session.linger();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_core::{json_escape, EventRing, ParetoPoint, SearchPhase};

    fn evaluated(dist: &StorageDistribution, throughput: Rational, states: u64) -> Event<'_> {
        Event::Evaluated {
            dist,
            throughput,
            states,
            nanos: 10,
        }
    }

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
        obs.event(&Event::Phase(SearchPhase::Bounds));
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.event(&evaluated(&d, Rational::new(1, 7), 5));
        obs.event(&Event::CacheHit(&d));
        obs.event(&Event::Failed {
            dist: &d,
            message: "panicked: \"why\"",
        });
        obs.event(&Event::Accepted(&ParetoPoint::new(
            d.clone(),
            Rational::new(1, 7),
        )));
        obs.event(&Event::End { reason: "exact" });

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
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
            lines[3].contains("\"event\":\"evaluation-failed\"")
                && lines[3].contains("\"distribution\":[4,2]")
                && lines[3].contains("panicked: \\\"why\\\""),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].contains("\"event\":\"pareto\"") && lines[4].contains("\"size\":6"),
            "{}",
            lines[4]
        );
        assert!(
            lines[5].contains("\"event\":\"end\"") && lines[5].contains("\"reason\":\"exact\""),
            "{}",
            lines[5]
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
        obs.event(&evaluated(&d, Rational::new(1, 7), 5));
        obs.event(&Event::CacheHit(&d));
        // 1 eval + 1 hit = 2 of 10 candidates covered.
        let suffix = obs.progress_suffix();
        assert!(suffix.contains(" evals/s"), "{suffix}");
        assert!(suffix.contains("20.0% of space"), "{suffix}");
        assert!(suffix.contains("ETA "), "{suffix}");
    }

    #[test]
    fn progress_suffix_without_space_total_is_rate_only() {
        let obs = CliObserver::from_options(true, None, None).unwrap();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        obs.event(&evaluated(&d, Rational::new(1, 7), 5));
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
            obs.event(&evaluated(&d, Rational::new(1, 7), 5));
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
        obs.event(&evaluated(&d1, Rational::new(1, 7), 5));
        obs.event(&evaluated(&d2, Rational::new(1, 6), 8));
        obs.event(&Event::End { reason: "exact" });

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
            obs.event(&evaluated(&d, Rational::new(1, 7), 5));
        }
        // A checkpoint failure must not fail the run.
        obs.event(&Event::End { reason: "exact" });
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
        obs.event(&evaluated(&d, Rational::new(1, 7), 5));
        obs.event(&Event::End { reason: "exact" });
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
            obs.event(&evaluated(&d, Rational::new(1, 7), 5));
            // The run dies mid-stream: no `end` event arrives, the observer
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
            obs.event(&Event::End { reason: "exact" });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"event\":\"end\"").count(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// The `--trace-json` sink and the `/events` ring render the one
    /// vocabulary: for every event kind, the ring's data is exactly the
    /// trace line's fields after `elapsed_us` and `event`.
    #[test]
    fn trace_lines_and_ring_frames_carry_the_same_fields() {
        let path = std::env::temp_dir().join("buffy-observe-test-ring.jsonl");
        let ring = Arc::new(EventRing::default());
        {
            let cli = CliObserver::from_options(false, Some(path.to_str().unwrap()), None).unwrap();
            let sinks: Vec<Arc<dyn ExploreObserver>> = vec![Arc::new(cli), ring.clone()];
            let d = StorageDistribution::from_capacities(vec![4, 2]);
            let point = ParetoPoint::new(d.clone(), Rational::new(1, 7));
            for event in [
                Event::Phase(SearchPhase::FrontSearch),
                evaluated(&d, Rational::new(1, 7), 5),
                Event::CacheHit(&d),
                Event::Failed {
                    dist: &d,
                    message: "tab\there",
                },
                Event::Accepted(&point),
                Event::End { reason: "exact" },
            ] {
                sinks.event(&event);
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = ring.since(0);
        let kinds: Vec<&str> = entries.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                "phase",
                "evaluation",
                "cache-hit",
                "evaluation-failed",
                "pareto",
                "end"
            ]
        );
        assert_eq!(text.lines().count(), entries.len());
        for (line, entry) in text.lines().zip(&entries) {
            let rest = line
                .strip_prefix("{\"elapsed_us\":")
                .and_then(|l| l.split_once(','))
                .map(|(_, rest)| rest)
                .unwrap_or_else(|| panic!("{line}"));
            let prefix = format!("\"event\":\"{}\",", entry.kind);
            let fields = rest
                .strip_prefix(&prefix)
                .unwrap_or_else(|| panic!("{line}"));
            assert_eq!(format!("{{{fields}"), entry.data, "{line}");
        }
        std::fs::remove_file(&path).ok();
    }
}
