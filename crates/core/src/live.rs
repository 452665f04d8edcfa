//! Folds of the [`Event`] stream that outlive a search, and the one
//! renderer of the event vocabulary.
//!
//! Every piece here only *reads* the stream, so the evaluated candidate
//! set — and with it the front and every statistic — stays
//! byte-identical with observation on or off, at any thread count
//! (DESIGN.md §9).
//!
//! - [`LiveStats`] folds the stream into lock-free counters (the same
//!   fold as the run's [`ExplorationStats`]), the current
//!   [`SearchPhase`] and a small mutex-guarded copy of the Pareto front
//!   under construction: what `--progress` prints and what a `/status`
//!   endpoint snapshots;
//! - [`Event::kind`] and [`Event::data_json`] render an event once, in
//!   the vocabulary that `--trace-json` lines ([`Event::trace_line`]) and
//!   Server-Sent-Events frames share;
//! - [`EventRing`] keeps the most recent rendered events with
//!   monotonically increasing sequence numbers, so a Server-Sent-Events
//!   handler can replay history from any cursor and then tail the live
//!   stream; when the ring wraps, the drop count is recorded instead of
//!   blocking the search.

use crate::pareto::{ParetoPoint, ParetoSet};
use crate::runtime::{AtomicStats, Event, ExplorationStats, ExploreObserver, SearchPhase};
use buffy_graph::StorageDistribution;
use buffy_telemetry::json_escape;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Lock-free counters describing a search in flight, plus its phase and a
/// small mutex-guarded mirror of the Pareto front under construction.
///
/// The counters are the fold behind the run's [`ExplorationStats`], so
/// once every event is in they equal the statistics the driver returns.
/// Readers get a consistent *enough* point-in-time view for monitoring
/// (each counter individually exact, cross-counter skew bounded by
/// whatever events landed between the loads), which is the same contract
/// Prometheus scrapes live with.
#[derive(Debug)]
pub struct LiveStats {
    started: Instant,
    counts: AtomicStats,
    phase: Mutex<Option<SearchPhase>>,
    accepted: AtomicU64,
    finished: AtomicBool,
    front: Mutex<ParetoSet>,
}

impl Default for LiveStats {
    fn default() -> Self {
        LiveStats::new()
    }
}

impl LiveStats {
    /// Empty counters; the clock of [`elapsed_us`](Self::elapsed_us)
    /// starts now.
    pub fn new() -> LiveStats {
        LiveStats {
            started: Instant::now(),
            counts: AtomicStats::new(),
            phase: Mutex::new(None),
            accepted: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            front: Mutex::new(ParetoSet::new()),
        }
    }

    /// Microseconds since the counters were created.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Name of the most recently entered [`SearchPhase`], `None` before
    /// the first phase event.
    pub fn phase_name(&self) -> Option<&'static str> {
        let phase = self.phase.lock().unwrap_or_else(|e| e.into_inner());
        phase.map(|p| p.name())
    }

    /// Evaluations, cache hits, largest state space and failures so far —
    /// counted exactly as the run's [`ExplorationStats`].
    pub fn counters(&self) -> ExplorationStats {
        self.counts.snapshot()
    }

    /// Points accepted into the front under construction (some may since
    /// have been evicted by dominating points; see [`front`](Self::front)
    /// for the surviving set).
    pub fn pareto_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Whether the [`Event::End`] of the run arrived.
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

impl ExploreObserver for LiveStats {
    fn event(&self, event: &Event<'_>) {
        self.counts.fold(event);
        match *event {
            Event::Phase(phase) => {
                *self.phase.lock().unwrap_or_else(|e| e.into_inner()) = Some(phase);
            }
            Event::Accepted(point) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                let mut front = self.front.lock().unwrap_or_else(|e| e.into_inner());
                front.insert(point.clone());
            }
            Event::End { .. } => self.finished.store(true, Ordering::Relaxed),
            _ => {}
        }
    }
}

impl Event<'_> {
    /// Stable name of the event's kind: the `event` field of a
    /// `--trace-json` line and the `event:` field of an SSE frame.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Phase(_) => "phase",
            Event::Evaluated { .. } => "evaluation",
            Event::CacheHit(_) => "cache-hit",
            Event::Failed { .. } => "evaluation-failed",
            Event::Accepted(_) => "pareto",
            Event::End { .. } => "end",
        }
    }

    /// The event's fields as one JSON object: an SSE frame's `data`, and a
    /// `--trace-json` line after its `elapsed_us` and `event` keys. All
    /// values are numbers, fixed names, rationals rendered as `"p/q"`,
    /// capacity arrays or JSON-escaped strings.
    pub fn data_json(&self) -> String {
        match *self {
            Event::Phase(phase) => format!("{{\"phase\":\"{}\"}}", phase.name()),
            Event::Evaluated {
                dist,
                throughput,
                states,
                nanos,
            } => format!(
                "{{\"distribution\":{},\"size\":{},\"throughput\":\"{throughput}\",\"states\":{states},\"nanos\":{nanos}}}",
                dist_json(dist),
                dist.size()
            ),
            Event::CacheHit(dist) => format!("{{\"distribution\":{}}}", dist_json(dist)),
            Event::Failed { dist, message } => format!(
                "{{\"distribution\":{},\"message\":\"{}\"}}",
                dist_json(dist),
                json_escape(message)
            ),
            Event::Accepted(point) => format!(
                "{{\"size\":{},\"throughput\":\"{}\",\"distribution\":{}}}",
                point.size,
                point.throughput,
                dist_json(&point.distribution)
            ),
            Event::End { reason } => format!("{{\"reason\":\"{}\"}}", json_escape(reason)),
        }
    }

    /// One `--trace-json` line, without its newline: the
    /// [`data_json`](Self::data_json) object led by the run clock
    /// (`elapsed_us`) and the [`kind`](Self::kind).
    pub fn trace_line(&self, elapsed_us: u64) -> String {
        let data = self.data_json();
        format!(
            "{{\"elapsed_us\":{elapsed_us},\"event\":\"{}\",{}",
            self.kind(),
            &data[1..]
        )
    }
}

/// Renders a distribution's capacities as a JSON array.
pub fn dist_json(dist: &StorageDistribution) -> String {
    let mut out = String::with_capacity(dist.as_slice().len() * 4 + 2);
    out.push('[');
    for (i, c) in dist.as_slice().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
    out
}

/// One event as the [`EventRing`] keeps it: rendered once, replayed to
/// any number of readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingEntry {
    /// Sequence number: the position of the event in the run's stream.
    pub seq: u64,
    /// [`Event::kind`].
    pub kind: &'static str,
    /// [`Event::data_json`].
    pub data: String,
}

struct RingInner {
    entries: VecDeque<RingEntry>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of rendered events with monotonically
/// increasing sequence numbers.
///
/// Appends run on the search's driver thread, which emits every event,
/// and take a short mutex (the guarded work is a `VecDeque` push and at
/// most one pop); readers poll [`since`](EventRing::since) with a cursor
/// and never block the writer for longer than one copy of the pending
/// slice. When the buffer is full the oldest event is dropped and
/// counted — a slow or absent reader can lose history, never stall the
/// search.
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

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                entries: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// All buffered events with sequence number `>= cursor`, oldest
    /// first. The caller's next cursor is `last returned seq + 1` (or an
    /// unchanged cursor when nothing new arrived).
    pub fn since(&self, cursor: u64) -> Vec<RingEntry> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .entries
            .iter()
            .filter(|entry| entry.seq >= cursor)
            .cloned()
            .collect()
    }

    /// Events lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Sequence number the next event will get.
    pub fn next_seq(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_seq
    }
}

/// Renders each event and appends it, dropping (and counting) the oldest
/// entry when full.
impl ExploreObserver for EventRing {
    fn event(&self, event: &Event<'_>) {
        let (kind, data) = (event.kind(), event.data_json());
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push_back(RingEntry { seq, kind, data });
    }
}

/// Default [`EventRing`] capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::Rational;
    use std::sync::Arc;

    fn dist(caps: &[u64]) -> StorageDistribution {
        StorageDistribution::from_capacities(caps.to_vec())
    }

    fn evaluated(dist: &StorageDistribution) -> Event<'_> {
        Event::Evaluated {
            dist,
            throughput: Rational::new(1, 3),
            states: 5,
            nanos: 100,
        }
    }

    #[test]
    fn tee_fans_out_to_every_sink_in_order() {
        let sinks: Vec<Arc<LiveStats>> = (0..3).map(|_| Arc::default()).collect();
        let ring = Arc::new(EventRing::new(8));
        let mut tee: Vec<Arc<dyn ExploreObserver>> = Vec::new();
        for sink in &sinks {
            tee.push(sink.clone());
        }
        tee.push(ring.clone());
        let (a, b) = (dist(&[1, 2]), dist(&[2, 2]));
        tee.event(&Event::Phase(SearchPhase::Bounds));
        tee.event(&evaluated(&a));
        tee.event(&evaluated(&b));
        for stats in &sinks {
            assert_eq!(stats.phase_name(), Some("bounds"));
            assert_eq!(stats.counters().evaluations, 2);
        }
        assert_eq!(ring.next_seq(), 3);
    }

    #[test]
    fn live_observer_counts_and_buffers_events() {
        let stats = Arc::new(LiveStats::new());
        let ring = Arc::new(EventRing::default());
        let live: Vec<Arc<dyn ExploreObserver>> = vec![stats.clone(), ring.clone()];
        let (d11, d31) = (dist(&[1, 1]), dist(&[3, 1]));
        let point = ParetoPoint::new(d11.clone(), Rational::new(1, 3));
        live.event(&Event::Phase(SearchPhase::FrontSearch));
        live.event(&evaluated(&d11));
        live.event(&Event::CacheHit(&d11));
        live.event(&Event::Failed {
            dist: &d31,
            message: "boom",
        });
        live.event(&Event::Accepted(&point));

        assert_eq!(stats.phase_name(), Some("front-search"));
        let counters = stats.counters();
        assert_eq!(counters.evaluations, 1);
        assert_eq!(counters.cache_hits, 1);
        assert_eq!(counters.failures, 1);
        assert_eq!(counters.max_states, 5);
        assert_eq!(stats.pareto_accepted(), 1);
        assert_eq!(stats.front_size(), 1);
        assert!(!stats.is_finished());

        let events = ring.since(0);
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                "phase",
                "evaluation",
                "cache-hit",
                "evaluation-failed",
                "pareto"
            ]
        );
        assert_eq!(events[0].data, "{\"phase\":\"front-search\"}");

        live.event(&Event::End {
            reason: "exhausted",
        });
        assert!(stats.is_finished());
        let tail = ring.since(events.len() as u64);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind, "end");
        assert_eq!(tail[0].data, "{\"reason\":\"exhausted\"}");
    }

    #[test]
    fn live_front_applies_dominance() {
        let stats = LiveStats::new();
        let (big, small) = (dist(&[2, 2]), dist(&[1, 2]));
        stats.event(&Event::Accepted(&ParetoPoint::new(
            big,
            Rational::new(1, 4),
        )));
        // Same throughput at smaller size dominates the first point.
        stats.event(&Event::Accepted(&ParetoPoint::new(
            small,
            Rational::new(1, 4),
        )));
        assert_eq!(stats.pareto_accepted(), 2);
        assert_eq!(stats.front_size(), 1);
        assert_eq!(stats.front()[0].size, 3);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ring = EventRing::new(2);
        for i in 0..5 {
            ring.event(&Event::Phase(SearchPhase::Bounds));
            assert_eq!(ring.next_seq(), i + 1);
        }
        assert_eq!(ring.dropped(), 3);
        let events = ring.since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert!(ring.since(5).is_empty());
    }
}
