//! # buffy-telemetry
//!
//! A zero-overhead metrics and profiling subsystem for buffy-rs.
//!
//! The exploration and analysis crates are instrumented with counters,
//! gauges, log2 histograms and timing spans. All of it is *observation
//! only*: recording never takes a lock on a hot path (every primitive is
//! a bare [`AtomicU64`](std::sync::atomic::AtomicU64) updated with
//! `Relaxed` ordering), and none of it runs at all unless a [`Recorder`]
//! has been [`install`]ed — the disabled-path cost is a single relaxed
//! atomic load and a branch per *run* (instrumented code fetches its
//! metric handles once up front, not per event).
//!
//! # Architecture
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: lock-free primitives. The
//!   histogram has 65 fixed log2 buckets — bucket 0 holds the value 0,
//!   bucket *k* (1..=64) holds values in `[2^(k-1), 2^k)` — so recording
//!   is one `leading_zeros` and three relaxed `fetch_add`s.
//! - [`Recorder`]: a registry mapping metric names to shared handles
//!   (get-or-register, `BTreeMap` for deterministic export order) plus a
//!   buffer of [`TraceEvent`]s. Registration takes a `Mutex`, but
//!   instrumented code registers once per run and then records through
//!   the returned `Arc` handles without any lock.
//! - [`Span`]: an RAII timing guard. Timing state lives on the guard
//!   itself (the owning thread's stack — thread-local scratch), and only
//!   the final aggregation into the per-phase histogram and the trace
//!   buffer touches shared state, once per span.
//! - Exporters: [`render_prometheus`] (text exposition format, suitable
//!   for the node-exporter textfile collector) and
//!   [`render_chrome_trace`] (trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto).
//!
//! # Global recorder
//!
//! The recorder is process-global and swappable: [`install`] makes one
//! current, [`uninstall`] removes it, [`active`] returns the current one
//! (or `None`, cheaply, when telemetry is off). Benchmarks install a
//! fresh recorder per measured run for isolation; library code must call
//! [`active`] at the start of a unit of work and hold the `Arc` for its
//! duration, so a concurrent swap never splits one run across recorders.
//!
//! Metric *values* are non-deterministic (wall-clock durations, thread
//! interleavings), but a recorder never influences the instrumented
//! computation: exploration fronts and statistics are byte-identical
//! with or without one installed, at every thread count.
//!
//! # Example
//!
//! ```
//! use buffy_telemetry::{active, install, uninstall, Recorder};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! install(recorder.clone());
//! if let Some(r) = active() {
//!     // Real code fetches the handle once and keeps it for the run.
//!     let evals = r.counter("demo_evaluations_total", "Demo evaluations.");
//!     evals.inc();
//! }
//! let text = buffy_telemetry::render_prometheus(&recorder.snapshot());
//! assert!(text.contains("demo_evaluations_total 1"));
//! uninstall();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod chrome;
mod metrics;
mod prometheus;
mod recorder;
mod span;
mod trace;

pub use chrome::{json_escape, render_chrome_trace};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use prometheus::render_prometheus;
pub use recorder::{Recorder, Snapshot};
pub use span::Span;
pub use trace::{TraceEvent, TracePhase};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Fast "is telemetry on at all?" flag; checked before touching the lock.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The currently installed recorder. Swappable (unlike a `OnceLock`) so
/// benchmarks and tests can use a fresh recorder per run.
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-global recorder, replacing any
/// previous one. Instrumented code that calls [`active`] from now on
/// records into it.
pub fn install(recorder: Arc<Recorder>) {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(recorder);
    INSTALLED.store(true, Ordering::Release);
}

/// Removes the process-global recorder; subsequent [`active`] calls
/// return `None` at the cost of one relaxed load and a branch.
pub fn uninstall() {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    INSTALLED.store(false, Ordering::Release);
    *slot = None;
}

/// Returns the installed recorder, or `None` when telemetry is off.
///
/// The disabled path is a single relaxed atomic load and a branch — this
/// is the whole "zero overhead by default" mechanism. Call it once per
/// unit of work (an exploration, an analysis) and keep the returned
/// `Arc` plus any metric handles for the duration; do not call it per
/// event.
#[inline]
pub fn active() -> Option<Arc<Recorder>> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return None;
    }
    RECORDER.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Metric names shared between the instrumented crates and the CLI's
/// reporting layer, so producers and consumers cannot drift apart.
pub mod names {
    /// Histogram of evaluation wall latency in nanoseconds (one sample
    /// per memoised throughput evaluation).
    pub const EVAL_LATENCY_NS: &str = "buffy_eval_latency_ns";
    /// Histogram of states stored per throughput analysis.
    pub const ANALYSIS_STATES: &str = "buffy_analysis_states";
    /// Histogram of per-analysis wall time (cycle detection) in
    /// nanoseconds.
    pub const ANALYSIS_WALL_NS: &str = "buffy_analysis_wall_ns";
    /// Histogram of state-interner probe lengths (1 = direct hit).
    pub const INTERNER_PROBE_LEN: &str = "buffy_interner_probe_len";
    /// Gauge: largest interner occupancy (entries) seen in any analysis.
    pub const INTERNER_OCCUPANCY_MAX: &str = "buffy_interner_occupancy_max";
    /// Counter family: memo-cache hits per shard (label `shard`).
    pub const SHARD_HITS: &str = "buffy_memo_shard_hits_total";
    /// Counter family: memo-cache misses per shard (label `shard`).
    pub const SHARD_MISSES: &str = "buffy_memo_shard_misses_total";
    /// Gauge family: memo-cache entries per shard (label `shard`).
    pub const SHARD_ENTRIES: &str = "buffy_memo_shard_entries";
    /// Histogram family: per-phase wall time in nanoseconds (label
    /// `phase`), fed by [`Span`](crate::Span)s.
    pub const PHASE_NS: &str = "buffy_phase_ns";
    /// Counter family: distribution sizes settled by bounds reasoning
    /// without any evaluation (label `phase`).
    pub const SIZES_PRUNED: &str = "buffy_sizes_pruned_total";
    /// Counter: per-size sweeps cut short because the monotonicity
    /// ceiling was already reached.
    pub const EVALS_SHORT_CIRCUITED: &str = "buffy_evals_short_circuited_total";
    /// Counter family: sweep candidates skipped without an evaluation
    /// because a pair bound falls below the sweep's proven floor (label
    /// `phase`).
    pub const CANDIDATES_BOUND_SKIPPED: &str = "buffy_candidates_bound_skipped_total";
    /// Counter family: guided-search children skipped by the size upper
    /// bound or per-channel caps (label `reason`).
    pub const GUIDED_SKIPPED: &str = "buffy_guided_children_skipped_total";
    /// Counter: trace events dropped after the in-memory buffer cap.
    pub const TRACE_DROPPED: &str = "buffy_trace_events_dropped_total";
    /// Counter: checkpoint saves that failed after exhausting the retry
    /// budget (the run continues uncheckpointed).
    pub const CHECKPOINT_SAVE_FAILURES: &str = "buffy_checkpoint_save_failures_total";
}

/// Formats `name{key="value"}` — the labelled-metric naming convention
/// understood by the exporters (a single label per metric suffices for
/// everything buffy records).
pub fn labeled(name: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(
            labeled(names::SHARD_HITS, "shard", 3),
            "buffy_memo_shard_hits_total{shard=\"3\"}"
        );
    }

    #[test]
    fn install_swaps_and_uninstall_disables() {
        // Self-contained: no other unit test in this crate touches the
        // global slot.
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        install(a.clone());
        active().unwrap().counter("g_total", "g").inc();
        install(b.clone());
        active().unwrap().counter("g_total", "g").inc();
        uninstall();
        assert!(active().is_none());
        assert_eq!(a.snapshot().counters.get("g_total"), Some(&1));
        assert_eq!(b.snapshot().counters.get("g_total"), Some(&1));
    }
}
