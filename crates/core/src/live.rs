//! Live observation: observer fan-out and the shared surface an embedded
//! observability server reads while a search runs.
//!
//! Three pieces, mirroring the recorder's "zero overhead by default"
//! contract (DESIGN.md §9): when nothing here is attached, the drivers
//! still see a single `&dyn ExploreObserver` no-op; when attached, the
//! observers only *read* the event stream, so the evaluated candidate
//! set — and with it the front and every statistic — stays byte-identical
//! with observation on or off, at any thread count.
//!
//! - [`TeeObserver`] fans every [`ExploreObserver`] event out to a list
//!   of downstream observers in a fixed order (the CLI tees its progress
//!   /trace observer together with the live one below);
//! - [`LiveStats`] is a lock-free bundle of atomic counters plus the
//!   current [`SearchPhase`] and a small mutex-guarded copy of the
//!   Pareto front under construction — everything a `/status` endpoint
//!   wants as a point-in-time snapshot;
//! - [`EventRing`] is a bounded ring buffer of [`LiveEvent`]s with
//!   monotonically increasing sequence numbers, so a Server-Sent-Events
//!   handler can replay history from any cursor and then tail the live
//!   stream; when the ring wraps, the drop count is recorded instead of
//!   blocking the search.
//!
//! [`LiveObserver`] ties the latter two together behind the observer
//! trait.

use crate::pareto::{ParetoPoint, ParetoSet};
use crate::runtime::{ExploreObserver, SearchPhase};
use buffy_graph::{Rational, StorageDistribution};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fans every observer event out to each downstream observer, in the
/// order they were added. Events are delivered synchronously on the
/// calling worker thread; downstream observers must therefore stay as
/// cheap as the contract on [`ExploreObserver`] demands.
pub struct TeeObserver<'a> {
    sinks: Vec<&'a dyn ExploreObserver>,
}

impl<'a> TeeObserver<'a> {
    /// An empty tee (equivalent to [`NoopObserver`](crate::NoopObserver)).
    pub fn new() -> TeeObserver<'a> {
        TeeObserver { sinks: Vec::new() }
    }

    /// The common case: a tee over exactly two observers.
    pub fn pair(
        first: &'a dyn ExploreObserver,
        second: &'a dyn ExploreObserver,
    ) -> TeeObserver<'a> {
        TeeObserver {
            sinks: vec![first, second],
        }
    }

    /// Appends `sink` to the fan-out list.
    pub fn push(&mut self, sink: &'a dyn ExploreObserver) {
        self.sinks.push(sink);
    }
}

impl Default for TeeObserver<'_> {
    fn default() -> Self {
        TeeObserver::new()
    }
}

impl std::fmt::Debug for TeeObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeObserver")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl ExploreObserver for TeeObserver<'_> {
    fn phase_started(&self, phase: SearchPhase) {
        for s in &self.sinks {
            s.phase_started(phase);
        }
    }

    fn evaluation_started(&self, dist: &StorageDistribution) {
        for s in &self.sinks {
            s.evaluation_started(dist);
        }
    }

    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        nanos: u64,
    ) {
        for s in &self.sinks {
            s.evaluation_finished(dist, throughput, states, nanos);
        }
    }

    fn cache_hit(&self, dist: &StorageDistribution) {
        for s in &self.sinks {
            s.cache_hit(dist);
        }
    }

    fn evaluation_failed(&self, dist: &StorageDistribution, message: &str) {
        for s in &self.sinks {
            s.evaluation_failed(dist, message);
        }
    }

    fn pareto_accepted(&self, point: &ParetoPoint) {
        for s in &self.sinks {
            s.pareto_accepted(point);
        }
    }

    fn distribution_pruned(&self, dist: &StorageDistribution) {
        for s in &self.sinks {
            s.distribution_pruned(dist);
        }
    }
}

/// Lock-free counters describing a search in flight, plus a small
/// mutex-guarded mirror of the Pareto front under construction.
///
/// All counters are plain relaxed atomics — readers get a consistent
/// *enough* point-in-time view for monitoring (each counter individually
/// exact, cross-counter skew bounded by whatever events landed between
/// the loads), which is the same contract Prometheus scrapes live with.
#[derive(Debug)]
pub struct LiveStats {
    started: Instant,
    phase: AtomicUsize,
    evaluations: AtomicU64,
    cache_hits: AtomicU64,
    dominance_prunes: AtomicU64,
    failures: AtomicU64,
    accepted: AtomicU64,
    finished: AtomicBool,
    front: Mutex<ParetoSet>,
}

/// Phase slot value for "no phase reported yet".
const PHASE_NONE: usize = 0;

fn phase_index(phase: SearchPhase) -> usize {
    match phase {
        SearchPhase::Bounds => 1,
        SearchPhase::MinimalSize => 2,
        SearchPhase::FrontSearch => 3,
        SearchPhase::ConstraintSearch => 4,
        SearchPhase::GuidedSearch => 5,
    }
}

fn phase_name_of(index: usize) -> Option<&'static str> {
    match index {
        1 => Some(SearchPhase::Bounds.name()),
        2 => Some(SearchPhase::MinimalSize.name()),
        3 => Some(SearchPhase::FrontSearch.name()),
        4 => Some(SearchPhase::ConstraintSearch.name()),
        5 => Some(SearchPhase::GuidedSearch.name()),
        _ => None,
    }
}

impl LiveStats {
    fn new() -> LiveStats {
        LiveStats {
            started: Instant::now(),
            phase: AtomicUsize::new(PHASE_NONE),
            evaluations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            dominance_prunes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            front: Mutex::new(ParetoSet::new()),
        }
    }

    /// Microseconds since the observer was created.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Name of the most recently entered [`SearchPhase`], `None` before
    /// the first phase event.
    pub fn phase_name(&self) -> Option<&'static str> {
        phase_name_of(self.phase.load(Ordering::Relaxed))
    }

    /// Completed throughput analyses (cache misses that ran).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Evaluation requests answered from the memo cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Candidates decided by throughput monotonicity.
    pub fn dominance_prunes(&self) -> u64 {
        self.dominance_prunes.load(Ordering::Relaxed)
    }

    /// Contained analysis panics degraded to recorded failures.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Points accepted into the front under construction (some may since
    /// have been evicted by dominating points; see [`front`](Self::front)
    /// for the surviving set).
    pub fn pareto_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Whether [`LiveObserver::finish`] has run.
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// A clone of the current best-known Pareto front, dominance applied.
    pub fn front(&self) -> Vec<ParetoPoint> {
        let set = self.front.lock().unwrap_or_else(|e| e.into_inner());
        set.points().to_vec()
    }

    /// Size of the current best-known Pareto front.
    pub fn front_size(&self) -> usize {
        let set = self.front.lock().unwrap_or_else(|e| e.into_inner());
        set.points().len()
    }
}

/// One observer event, copied out of the search so it can outlive the
/// borrowed payloads the [`ExploreObserver`] callbacks receive.
///
/// High-frequency events carry the full distribution (a handful of
/// `u64`s) by value; this is what a streaming endpoint replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveEvent {
    /// A search driver entered a phase.
    Phase {
        /// Stable phase name ([`SearchPhase::name`]).
        name: &'static str,
    },
    /// A throughput analysis finished.
    Evaluation {
        /// Per-channel capacities of the evaluated distribution.
        capacities: Vec<u64>,
        /// `sz(γ)` of the distribution.
        size: u64,
        /// The analysed throughput.
        throughput: Rational,
        /// Reduced states stored by the analysis.
        states: u64,
        /// Analysis wall time in nanoseconds.
        nanos: u64,
    },
    /// An evaluation request was answered from the memo cache.
    CacheHit {
        /// Per-channel capacities of the requested distribution.
        capacities: Vec<u64>,
    },
    /// The prune oracle skipped a candidate without analysing it.
    Pruned {
        /// Per-channel capacities of the skipped distribution.
        capacities: Vec<u64>,
    },
    /// A point was accepted into the Pareto front under construction.
    Pareto {
        /// Per-channel capacities of the witnessing distribution.
        capacities: Vec<u64>,
        /// `sz(γ)` of the accepted point.
        size: u64,
        /// Throughput of the accepted point.
        throughput: Rational,
    },
    /// A throughput analysis panicked and was degraded to a failure.
    Failed {
        /// Per-channel capacities of the failing distribution.
        capacities: Vec<u64>,
        /// The contained panic message.
        message: String,
    },
    /// The search finished; no further events will follow.
    End {
        /// Why the search ended (`"exhausted"`, `"budget"`, …).
        reason: String,
    },
}

impl LiveEvent {
    /// Stable event-type name, usable as an SSE `event:` field.
    pub fn kind(&self) -> &'static str {
        match self {
            LiveEvent::Phase { .. } => "phase",
            LiveEvent::Evaluation { .. } => "evaluation",
            LiveEvent::CacheHit { .. } => "cache-hit",
            LiveEvent::Pruned { .. } => "pruned",
            LiveEvent::Pareto { .. } => "pareto",
            LiveEvent::Failed { .. } => "evaluation-failed",
            LiveEvent::End { .. } => "end",
        }
    }
}

struct RingInner {
    events: VecDeque<(u64, LiveEvent)>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`LiveEvent`]s with monotonically increasing
/// sequence numbers.
///
/// Appends run on search worker threads and take a short uncontended
/// mutex (the guarded work is a `VecDeque` push and at most one pop);
/// readers poll [`since`](EventRing::since) with a cursor and never block
/// the writers for longer than one copy of the pending slice. When the
/// buffer is full the oldest event is dropped and counted — a slow or
/// absent reader can lose history, never stall the search.
pub struct EventRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends an event, dropping (and counting) the oldest if full.
    pub fn push(&self, event: LiveEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back((seq, event));
    }

    /// All buffered events with sequence number `>= cursor`, oldest
    /// first. The caller's next cursor is `last returned seq + 1` (or an
    /// unchanged cursor when nothing new arrived).
    pub fn since(&self, cursor: u64) -> Vec<(u64, LiveEvent)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .events
            .iter()
            .filter(|(seq, _)| *seq >= cursor)
            .cloned()
            .collect()
    }

    /// Events lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Sequence number the next pushed event will get.
    pub fn next_seq(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_seq
    }
}

/// Default [`EventRing`] capacity used by [`LiveObserver::new`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The observer an embedded observability server reads: every event
/// updates the lock-free [`LiveStats`] and lands in the [`EventRing`].
///
/// Like the recorder, attaching this observer never feeds anything back
/// into the search: the front and [`crate::ExplorationStats`] of a run
/// are byte-identical with it on or off.
#[derive(Debug)]
pub struct LiveObserver {
    stats: std::sync::Arc<LiveStats>,
    ring: std::sync::Arc<EventRing>,
}

impl LiveObserver {
    /// An observer with the [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> LiveObserver {
        LiveObserver::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An observer whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> LiveObserver {
        LiveObserver {
            stats: std::sync::Arc::new(LiveStats::new()),
            ring: std::sync::Arc::new(EventRing::new(capacity)),
        }
    }

    /// Shared handle to the live counters.
    pub fn stats(&self) -> std::sync::Arc<LiveStats> {
        std::sync::Arc::clone(&self.stats)
    }

    /// Shared handle to the event ring.
    pub fn ring(&self) -> std::sync::Arc<EventRing> {
        std::sync::Arc::clone(&self.ring)
    }

    /// Marks the run finished: appends the terminal [`LiveEvent::End`]
    /// and flips [`LiveStats::is_finished`]. Idempotent — only the first
    /// call appends the event.
    pub fn finish(&self, reason: &str) {
        if self.stats.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        self.ring.push(LiveEvent::End {
            reason: reason.to_string(),
        });
    }
}

impl Default for LiveObserver {
    fn default() -> Self {
        LiveObserver::new()
    }
}

impl ExploreObserver for LiveObserver {
    fn phase_started(&self, phase: SearchPhase) {
        self.stats
            .phase
            .store(phase_index(phase), Ordering::Relaxed);
        self.ring.push(LiveEvent::Phase { name: phase.name() });
    }

    fn evaluation_finished(
        &self,
        dist: &StorageDistribution,
        throughput: Rational,
        states: u64,
        nanos: u64,
    ) {
        self.stats.evaluations.fetch_add(1, Ordering::Relaxed);
        self.ring.push(LiveEvent::Evaluation {
            capacities: dist.as_slice().to_vec(),
            size: dist.size(),
            throughput,
            states,
            nanos,
        });
    }

    fn cache_hit(&self, dist: &StorageDistribution) {
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.ring.push(LiveEvent::CacheHit {
            capacities: dist.as_slice().to_vec(),
        });
    }

    fn evaluation_failed(&self, dist: &StorageDistribution, message: &str) {
        self.stats.failures.fetch_add(1, Ordering::Relaxed);
        self.ring.push(LiveEvent::Failed {
            capacities: dist.as_slice().to_vec(),
            message: message.to_string(),
        });
    }

    fn pareto_accepted(&self, point: &ParetoPoint) {
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        {
            let mut front = self.stats.front.lock().unwrap_or_else(|e| e.into_inner());
            front.insert(point.clone());
        }
        self.ring.push(LiveEvent::Pareto {
            capacities: point.distribution.as_slice().to_vec(),
            size: point.size,
            throughput: point.throughput,
        });
    }

    fn distribution_pruned(&self, dist: &StorageDistribution) {
        self.stats.dominance_prunes.fetch_add(1, Ordering::Relaxed);
        self.ring.push(LiveEvent::Pruned {
            capacities: dist.as_slice().to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[derive(Default)]
    struct CountingObserver {
        phases: Counter,
        evals: Counter,
    }

    impl ExploreObserver for CountingObserver {
        fn phase_started(&self, _phase: SearchPhase) {
            self.phases.fetch_add(1, Ordering::Relaxed);
        }
        fn evaluation_finished(
            &self,
            _dist: &StorageDistribution,
            _throughput: Rational,
            _states: u64,
            _nanos: u64,
        ) {
            self.evals.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dist(caps: &[u64]) -> StorageDistribution {
        StorageDistribution::from_capacities(caps.to_vec())
    }

    #[test]
    fn tee_fans_out_to_every_sink_in_order() {
        let a = CountingObserver::default();
        let b = CountingObserver::default();
        let mut tee = TeeObserver::pair(&a, &b);
        let c = CountingObserver::default();
        tee.push(&c);
        tee.phase_started(SearchPhase::Bounds);
        tee.evaluation_finished(&dist(&[1, 2]), Rational::new(1, 2), 3, 4);
        tee.evaluation_finished(&dist(&[2, 2]), Rational::new(1, 2), 3, 4);
        for obs in [&a, &b, &c] {
            assert_eq!(obs.phases.load(Ordering::Relaxed), 1);
            assert_eq!(obs.evals.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn live_observer_counts_and_buffers_events() {
        let live = LiveObserver::new();
        live.phase_started(SearchPhase::FrontSearch);
        live.evaluation_finished(&dist(&[1, 1]), Rational::new(1, 3), 5, 100);
        live.cache_hit(&dist(&[1, 1]));
        live.distribution_pruned(&dist(&[2, 1]));
        live.distribution_pruned(&dist(&[2, 2]));
        live.evaluation_failed(&dist(&[3, 1]), "boom");
        live.pareto_accepted(&ParetoPoint::new(dist(&[1, 1]), Rational::new(1, 3)));

        let stats = live.stats();
        assert_eq!(stats.phase_name(), Some("front-search"));
        assert_eq!(stats.evaluations(), 1);
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(stats.dominance_prunes(), 2);
        assert_eq!(stats.failures(), 1);
        assert_eq!(stats.pareto_accepted(), 1);
        assert_eq!(stats.front_size(), 1);
        assert!(!stats.is_finished());

        let events = live.ring().since(0);
        let kinds: Vec<&str> = events.iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "phase",
                "evaluation",
                "cache-hit",
                "pruned",
                "pruned",
                "evaluation-failed",
                "pareto"
            ]
        );

        live.finish("exhausted");
        live.finish("exhausted"); // idempotent: only one end event
        assert!(stats.is_finished());
        let tail = live.ring().since(events.len() as u64);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].1.kind(), "end");
    }

    #[test]
    fn live_front_applies_dominance() {
        let live = LiveObserver::new();
        live.pareto_accepted(&ParetoPoint::new(dist(&[2, 2]), Rational::new(1, 4)));
        // Same throughput at smaller size dominates the first point.
        live.pareto_accepted(&ParetoPoint::new(dist(&[1, 2]), Rational::new(1, 4)));
        assert_eq!(live.stats().pareto_accepted(), 2);
        assert_eq!(live.stats().front_size(), 1);
        assert_eq!(live.stats().front()[0].size, 3);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ring = EventRing::new(2);
        for i in 0..5 {
            ring.push(LiveEvent::Phase { name: "bounds" });
            assert_eq!(ring.next_seq(), i + 1);
        }
        assert_eq!(ring.dropped(), 3);
        let events = ring.since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, 3);
        assert_eq!(events[1].0, 4);
        assert!(ring.since(5).is_empty());
    }
}
