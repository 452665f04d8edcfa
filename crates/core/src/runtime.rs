//! The exploration runtime: concurrency plumbing and observability for
//! the design-space drivers.
//!
//! The paper's exact method runs one timed state-space analysis per
//! candidate storage distribution, and those analyses are embarrassingly
//! parallel (§10). This module holds everything the drivers share to
//! exploit that without serializing on a single lock:
//!
//! - [`ShardedCache`]: the memo cache of analysed distributions, hash
//!   partitioned into independently locked shards so concurrent workers
//!   rarely contend;
//! - [`AtomicStats`]: contention-free evaluation counters, snapshotted
//!   into the [`ExplorationStats`] every driver reports;
//! - [`Event`] / [`ExploreObserver`]: the one structured event stream
//!   (phases, evaluations, cache hits, failures, accepted Pareto points)
//!   that the statistics, the recorder and every CLI sink fold;
//! - [`resolve_threads`]: `threads: 0` → the machine's available
//!   parallelism.

use crate::pareto::ParetoPoint;
use buffy_analysis::{fx_hash, CancelReason, FxBuildHasher};
use buffy_graph::{Rational, StorageDistribution};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Batch size for chunked candidate evaluation.
///
/// Both the sequential and the parallel evaluation paths consume the
/// per-size enumeration in chunks of exactly this many enumerated
/// positions. The ceiling is checked only at chunk ends; inside a chunk
/// the sweep stops only at its first candidate that reaches the graph's
/// maximal throughput, which nothing later can beat. Chunks commit their
/// evaluations in enumeration order up to that stop, so the chunk size
/// being independent of the thread count is what makes the evaluated
/// requests, their order, and with them every statistic in
/// [`ExplorationStats`] identical across thread counts.
pub(crate) const EVAL_CHUNK: usize = 32;

/// Number of cache shards; a power of two so the shard of a hash is a
/// mask away. 16 shards keep contention negligible for any realistic
/// worker count while costing next to nothing when single-threaded.
const SHARD_COUNT: usize = 16;

/// A concurrent memoization cache, hash-partitioned into
/// [`SHARD_COUNT`] independently locked shards.
///
/// Keys are spread over the shards by their [`fx_hash`]; each shard is a
/// small `Mutex<HashMap>` (Fx-hashed as well), so two workers only
/// contend when their keys land in the same shard. Lookups return clones,
/// so values should be cheap to clone (the memo's [`CachedEval`] shares
/// its dependency flags behind an `Arc`).
#[derive(Debug)]
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

/// One cache shard: the map plus its own hit/miss tallies. The tallies
/// are plain integers bumped under the shard lock: a miss by the insert
/// that answers it, a hit by the commit that reports it.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, V, FxBuildHasher>,
    hits: u64,
    misses: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Shard<K, V> {
        Shard {
            map: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }
}

/// Point-in-time statistics of one cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardCacheStats {
    /// Committed hits on this shard's keys.
    pub(crate) hits: u64,
    /// Misses answered into this shard: one per stored value.
    pub(crate) misses: u64,
    /// Entries currently stored.
    pub(crate) entries: u64,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    pub(crate) fn new() -> ShardedCache<K, V> {
        ShardedCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[(fx_hash(key) as usize) & (SHARD_COUNT - 1)]
    }

    /// The stored value of `key`. Lookups are not tallied: a lookup may
    /// be speculative, so the tallies count what is committed, through
    /// [`Self::note_hit`] and [`Self::insert`].
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().unwrap().map.get(key).cloned()
    }

    /// Tallies one committed hit on `key`.
    pub(crate) fn note_hit(&self, key: &K) {
        self.shard(key).lock().unwrap().hits += 1;
    }

    /// Stores `value` and tallies the miss it answers.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().unwrap();
        shard.misses += 1;
        shard.map.insert(key, value);
    }

    /// Per-shard hit/miss/occupancy statistics, in shard order.
    pub(crate) fn shard_stats(&self) -> Vec<ShardCacheStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap();
                ShardCacheStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    entries: shard.map.len() as u64,
                }
            })
            .collect()
    }
}

/// Unified statistics of one exploration run.
///
/// Replaces the ad-hoc `(evaluations, cache_hits, max_states)` tuple: every
/// driver — the exhaustive and guided explorers and the constraint query
/// — reports this struct, and the bench and CLI surfaces render it.
///
/// Equality ignores `eval_nanos`: wall time varies run to run, it is a
/// performance artifact, not a search outcome. The remaining counters are
/// deterministic — identical across thread counts by construction
/// (fixed-size evaluation chunks), which the regression tests assert with
/// `==`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplorationStats {
    /// Evaluations: memo-cache misses, each answered by a throughput
    /// analysis, by an earlier analysis's capacity box (the exhaustive
    /// driver; it reports the states of the equivalent run)
    /// or by a replayed checkpoint entry. Which candidates a box answers
    /// depends on worker timing, so the count does not tell them apart.
    pub evaluations: u64,
    /// Evaluation requests answered from the memo cache.
    pub cache_hits: u64,
    /// Largest reduced state space stored in any single analysis (the
    /// paper's "maximum #states" of Table 2).
    pub max_states: u64,
    /// Total wall time spent inside throughput analyses, in nanoseconds
    /// (summed over workers, so it can exceed elapsed time when
    /// parallel). Ignored by `==`.
    pub eval_nanos: u64,
    /// Evaluations that panicked and were degraded to a recorded failure
    /// instead of aborting the run.
    pub failures: u64,
}

impl ExplorationStats {
    /// Total evaluation requests: analyses run plus cache hits.
    pub fn requests(&self) -> u64 {
        self.evaluations + self.cache_hits
    }

    /// Fraction of requests answered from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl PartialEq for ExplorationStats {
    /// Compares the deterministic counters only; `eval_nanos` (wall time)
    /// is excluded.
    fn eq(&self, other: &Self) -> bool {
        self.evaluations == other.evaluations
            && self.cache_hits == other.cache_hits
            && self.max_states == other.max_states
            && self.failures == other.failures
    }
}

impl Eq for ExplorationStats {}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} evaluations, {} cache hits ({:.0}%), max {} states",
            self.evaluations,
            self.cache_hits,
            self.cache_hit_rate() * 100.0,
            self.max_states
        )?;
        if self.failures > 0 {
            write!(f, ", {} failed", self.failures)?;
        }
        Ok(())
    }
}

/// Lock-free accumulator behind [`ExplorationStats`]: every counter is an
/// atomic, so workers never serialize on statistics bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    evaluations: AtomicU64,
    cache_hits: AtomicU64,
    max_states: AtomicU64,
    eval_nanos: AtomicU64,
    failures: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn new() -> AtomicStats {
        AtomicStats::default()
    }

    /// Folds one event into the counters: evaluations, cache hits and
    /// failures count; phases, accepted points and the end of the run do
    /// not.
    pub(crate) fn fold(&self, event: &Event<'_>) {
        let counter = match *event {
            Event::Evaluated { states, nanos, .. } => {
                self.max_states.fetch_max(states, Ordering::Relaxed);
                self.eval_nanos.fetch_add(nanos, Ordering::Relaxed);
                &self.evaluations
            }
            Event::CacheHit(_) => &self.cache_hits,
            Event::Failed { .. } => &self.failures,
            Event::Phase(_) | Event::Accepted(_) | Event::End { .. } => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot (callers take it after all workers joined).
    pub(crate) fn snapshot(&self) -> ExplorationStats {
        ExplorationStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            max_states: self.max_states.load(Ordering::Relaxed),
            eval_nanos: self.eval_nanos.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }
}

/// A memoized evaluation: the throughput, the storage-dependent channels
/// when the analysis collected them (the dependency-guided search's
/// pipeline asks for them) and the peak occupancies when it recorded them
/// (bound probes and every analysis of a flag-free pipeline do; an entry
/// answered by a capacity box is its analysis's). Checkpoint-replayed and
/// degraded entries carry neither.
#[derive(Debug, Clone)]
pub(crate) struct CachedEval {
    /// Throughput of the observed actor under the distribution.
    pub(crate) throughput: Rational,
    /// Whether the analysis panicked and was degraded to zero throughput
    /// (such entries are terminal: the guided search expands no children).
    pub(crate) failed: bool,
    /// The storage-dependent channels, one flag per channel, when the
    /// analysis collected them.
    pub(crate) dependent: Option<Arc<[bool]>>,
    /// Each channel's peak occupancy, when the analysis recorded it.
    pub(crate) peaks: Option<Arc<[u64]>>,
}

/// How complete a search result is: exact, or truncated by cancellation.
///
/// Every driver result carries one of these. An `exact` result is what an
/// unbudgeted, uninterrupted run produces. A truncated result is still
/// *sound* — every reported Pareto point is achievable — but may miss
/// points the full search would have found; those are accounted for by the
/// skipped-size annotations and `distributions_skipped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completeness {
    /// `true` when the search ran to completion.
    pub exact: bool,
    /// Why the search stopped early, when it did.
    pub truncated_by: Option<CancelReason>,
    /// Number of enumerated candidate distributions whose evaluation was
    /// skipped (saturating; capped counting keeps huge spaces cheap).
    pub distributions_skipped: u64,
}

impl Completeness {
    /// The marker of a run that completed normally.
    pub fn exact() -> Completeness {
        Completeness {
            exact: true,
            truncated_by: None,
            distributions_skipped: 0,
        }
    }

    /// The marker of a run truncated by `reason` with `skipped` candidate
    /// distributions left unevaluated.
    pub fn truncated(reason: CancelReason, skipped: u64) -> Completeness {
        Completeness {
            exact: false,
            truncated_by: Some(reason),
            distributions_skipped: skipped,
        }
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.truncated_by {
            None => f.write_str("exact"),
            Some(reason) => write!(
                f,
                "partial (truncated by {}, {} distributions skipped)",
                reason.name(),
                self.distributions_skipped
            ),
        }
    }
}

/// A distribution size the truncated search never settled, annotated with
/// a *sound* conservative throughput bound: the bounds phase's maximal
/// achievable throughput of the graph (paper §8), which no storage
/// distribution of any size can exceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedSize {
    /// The total distribution size (sum of channel capacities).
    pub size: u64,
    /// Number of candidate distributions of this size (saturating; counted
    /// with a cap so huge spaces stay cheap to annotate).
    pub distributions: u64,
    /// Conservative upper bound on the maximal throughput achievable at
    /// this size.
    pub throughput_bound: Rational,
}

/// One evaluation that panicked and was degraded instead of aborting the
/// run: the distribution is recorded as yielding zero throughput and the
/// search continues deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluationFailure {
    /// The distribution whose analysis panicked.
    pub distribution: StorageDistribution,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// The phase a search driver is in; reported as an [`Event::Phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPhase {
    /// Boxing the design space: bounds on size and throughput (paper §8).
    Bounds,
    /// Binary search for the smallest positive-throughput size.
    MinimalSize,
    /// Divide-and-conquer over the size dimension (paper §9).
    FrontSearch,
    /// Dependency-guided frontier search.
    GuidedSearch,
}

impl SearchPhase {
    /// Stable machine-readable name (used in JSON traces).
    pub fn name(&self) -> &'static str {
        match self {
            SearchPhase::Bounds => "bounds",
            SearchPhase::MinimalSize => "minimal-size",
            SearchPhase::FrontSearch => "front-search",
            SearchPhase::GuidedSearch => "guided-search",
        }
    }
}

impl fmt::Display for SearchPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed fact of an exploration run.
///
/// The evaluation pipeline emits each fact exactly once, and every sink is
/// a fold over this one stream: the [`ExplorationStats`] of the result,
/// the recorder's metrics and spans, and the CLI's progress lines, JSON
/// trace, checkpoint, `/status` and `/events`. So the sinks cannot drift
/// apart. Payloads are borrowed from the search; a sink that keeps an
/// event copies what it needs.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A search driver entered a phase.
    Phase(SearchPhase),
    /// A throughput analysis of `dist` finished: `throughput`, with
    /// `states` reduced states stored, in `nanos` wall time. A candidate
    /// answered by an earlier analysis's capacity box is an evaluation
    /// too: it reports the throughput and the states of the equivalent
    /// run, which it did not simulate, and its own lookup time. A
    /// checkpoint entry replayed by a resumed run is one as well, with its
    /// recorded state count and `nanos` 0 (nothing ran); a genuine
    /// analysis or box answer always reports at least 1 ns.
    Evaluated {
        /// The analysed distribution.
        dist: &'a StorageDistribution,
        /// Its throughput.
        throughput: Rational,
        /// Reduced states the analysis (or the equivalent run) stored.
        states: u64,
        /// Analysis wall time in nanoseconds; 0 for a replayed entry.
        nanos: u64,
    },
    /// An evaluation request for the distribution was answered from the
    /// memo cache.
    CacheHit(&'a StorageDistribution),
    /// The analysis of `dist` panicked and was degraded to a recorded
    /// failure (the run continues).
    Failed {
        /// The distribution whose analysis panicked.
        dist: &'a StorageDistribution,
        /// The panic message.
        message: &'a str,
    },
    /// A point was accepted into the Pareto front under construction (it
    /// may later be evicted by a dominating point).
    Accepted(&'a ParetoPoint),
    /// The run ended for `reason` (`"exact"`, a cancellation reason,
    /// `"error"`, `"aborted"`); nothing follows. The drivers never emit
    /// it: the command that owns the sinks closes them with it.
    End {
        /// Why the run ended.
        reason: &'a str,
    },
}

/// A sink of the exploration [`Event`] stream.
///
/// A run receives its observer as a shared handle in
/// [`ExploreOptions::observer`](crate::ExploreOptions::observer), hence
/// `Send + Sync`: with multi-threaded evaluation, events arrive
/// concurrently from worker threads, synchronously on the emitting
/// thread. Event *order* between workers is nondeterministic; the totals
/// are not.
pub trait ExploreObserver: Send + Sync {
    /// Receives one event.
    fn event(&self, event: &Event<'_>);
}

impl fmt::Debug for dyn ExploreObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn ExploreObserver")
    }
}

/// Fans every event out to each observer, in order.
impl ExploreObserver for Vec<Arc<dyn ExploreObserver>> {
    fn event(&self, event: &Event<'_>) {
        for sink in self {
            sink.event(event);
        }
    }
}

/// The do-nothing observer: what a run reports to when
/// [`ExploreOptions::observer`](crate::ExploreOptions::observer) is unset.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl ExploreObserver for NoopObserver {
    fn event(&self, _event: &Event<'_>) {}
}

/// Resolves a thread-count option: `0` means "auto-detect", returning the
/// machine's [`std::thread::available_parallelism`] (1 if unknown); any
/// other value is returned unchanged.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_cache_round_trips() {
        let cache: ShardedCache<StorageDistribution, Rational> = ShardedCache::new();
        for i in 0..100u64 {
            let d = StorageDistribution::from_capacities(vec![i, i + 1]);
            assert_eq!(cache.get(&d), None);
            cache.insert(d.clone(), Rational::new(1, (i + 1) as i128));
            assert_eq!(cache.get(&d), Some(Rational::new(1, (i + 1) as i128)));
        }
        // Re-insert overwrites.
        let d = StorageDistribution::from_capacities(vec![0, 1]);
        cache.insert(d.clone(), Rational::ONE);
        assert_eq!(cache.get(&d), Some(Rational::ONE));
    }

    #[test]
    fn shard_stats_tally_hits_misses_and_entries() {
        let cache: ShardedCache<StorageDistribution, Rational> = ShardedCache::new();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        assert_eq!(cache.get(&d), None);
        cache.insert(d.clone(), Rational::ONE); // the miss it answers
        assert_eq!(cache.get(&d), Some(Rational::ONE));
        assert_eq!(cache.get(&d), Some(Rational::ONE));
        // Lookups alone tally nothing: only committed hits count.
        assert!(cache.shard_stats().iter().all(|s| s.hits == 0));
        cache.note_hit(&d);
        cache.note_hit(&d);
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        let misses: u64 = stats.iter().map(|s| s.misses).sum();
        let entries: u64 = stats.iter().map(|s| s.entries).sum();
        assert_eq!((hits, misses, entries), (2, 1, 1));
        // All three land in the same shard (same key).
        assert!(stats.contains(&ShardCacheStats {
            hits: 2,
            misses: 1,
            entries: 1
        }));
    }

    #[test]
    fn sharded_cache_is_concurrently_usable() {
        let cache: ShardedCache<StorageDistribution, Rational> = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let d = StorageDistribution::from_capacities(vec![t, i]);
                        cache.insert(d.clone(), Rational::new(1, (i + 1) as i128));
                        assert!(cache.get(&d).is_some());
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..200u64 {
                let d = StorageDistribution::from_capacities(vec![t, i]);
                assert_eq!(cache.get(&d), Some(Rational::new(1, (i + 1) as i128)));
            }
        }
    }

    #[test]
    fn stats_equality_ignores_wall_time() {
        let a = ExplorationStats {
            evaluations: 10,
            cache_hits: 5,
            max_states: 42,
            eval_nanos: 1_000,
            ..ExplorationStats::default()
        };
        let b = ExplorationStats {
            eval_nanos: 999_999,
            ..a
        };
        assert_eq!(a, b);
        let c = ExplorationStats {
            evaluations: 11,
            ..a
        };
        assert_ne!(a, c);
        let d = ExplorationStats { failures: 1, ..a };
        assert_ne!(a, d);
        assert_eq!(a.requests(), 15);
        assert!((a.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ExplorationStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn atomic_stats_accumulate_across_threads() {
        let stats = AtomicStats::new();
        let dist = StorageDistribution::from_capacities(vec![4, 2]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (stats, dist) = (&stats, &dist);
                scope.spawn(move || {
                    for i in 0..100 {
                        stats.fold(&Event::Evaluated {
                            dist,
                            throughput: Rational::ONE,
                            states: i,
                            nanos: 10,
                        });
                        stats.fold(&Event::CacheHit(dist));
                        stats.fold(&Event::Phase(SearchPhase::Bounds));
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.evaluations, 400);
        assert_eq!(s.cache_hits, 400);
        assert_eq!(s.max_states, 99);
        assert_eq!(s.eval_nanos, 4_000);
        assert_eq!(s.failures, 0);
    }

    #[test]
    fn resolve_threads_auto_detects() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn completeness_markers_render() {
        let exact = Completeness::exact();
        assert!(exact.exact);
        assert_eq!(exact.to_string(), "exact");
        let partial = Completeness::truncated(CancelReason::Deadline, 12);
        assert!(!partial.exact);
        assert_eq!(partial.truncated_by, Some(CancelReason::Deadline));
        assert_eq!(
            partial.to_string(),
            "partial (truncated by deadline, 12 distributions skipped)"
        );
    }

    #[test]
    fn phase_names_are_stable() {
        for (phase, name) in [
            (SearchPhase::Bounds, "bounds"),
            (SearchPhase::MinimalSize, "minimal-size"),
            (SearchPhase::FrontSearch, "front-search"),
            (SearchPhase::GuidedSearch, "guided-search"),
        ] {
            assert_eq!(phase.name(), name);
            assert_eq!(phase.to_string(), name);
        }
    }
}
