//! Resilience guarantees of the exploration runtime, exercised across
//! crates and thread counts on randomly generated graphs:
//!
//! * **Partial-front soundness** — a run truncated by an evaluation
//!   budget still reports only achievable Pareto points, each dominated
//!   by (or equal to) a point of the exact front, and annotates the
//!   sizes it never settled with a sound throughput ceiling.
//! * **Resume determinism** — replaying the evaluations recorded from an
//!   interrupted run as a warm start reproduces the exact front and
//!   statistics byte-for-byte, sequentially and in parallel; a resumed
//!   run obeys an evaluation budget like a fresh one.
//! * **Panic containment** — an evaluation that panics inside a worker
//!   degrades to a zero-throughput entry; the run completes, reports the
//!   failure, and stays deterministic across thread counts.

use std::sync::{Arc, Mutex};

use buffy_core::{
    explore_dependency_guided, explore_design_space, CancelReason, CancelToken, Event,
    ExplorationResult, ExploreError, ExploreObserver, ExploreOptions, ParetoPoint, WarmStart,
};
use buffy_gen::{gallery, RandomGraphConfig, SplitMix64};
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::test_threads;

const CASES: u64 = 12;

/// A small random consistent graph drawn from `rng` (the properties.rs
/// generator, kept in sync by hand).
fn small_graph(rng: &mut SplitMix64) -> SdfGraph {
    RandomGraphConfig {
        actors: rng.range_usize(3, 6),
        extra_channels: rng.range_usize(0, 3),
        max_repetition: rng.range_u64(1, 3),
        max_rate_factor: 2,
        max_execution_time: rng.range_u64(1, 2),
        seed: rng.range_u64(0, 499),
    }
    .generate()
}

fn explore_with(graph: &SdfGraph, opts: ExploreOptions) -> ExplorationResult {
    explore_design_space(graph, &opts).unwrap()
}

fn front_bytes(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

/// Records every evaluation an observed run performs, in the shape a
/// checkpoint would persist them.
#[derive(Default)]
struct Recorder {
    entries: Mutex<Vec<(StorageDistribution, Rational, u64)>>,
}

impl ExploreObserver for Recorder {
    fn event(&self, event: &Event<'_>) {
        if let Event::Evaluated {
            dist,
            throughput,
            states,
            ..
        } = *event
        {
            self.entries
                .lock()
                .unwrap()
                .push((dist.clone(), throughput, states));
        }
    }
}

impl Recorder {
    fn take_warm_start(&self) -> WarmStart {
        std::mem::take(&mut *self.entries.lock().unwrap())
            .into_iter()
            .map(|(d, t, s)| (d, (t, s)))
            .collect()
    }
}

/// Every point of a budget-truncated front is achievable: the exact front
/// dominates it, and the skipped-size annotations carry a sound ceiling.
#[test]
fn truncated_fronts_are_sound_across_thread_counts() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0010);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let exact = explore_with(&g, ExploreOptions::default());
        if exact.stats.evaluations < 2 {
            continue;
        }
        let budgets = [exact.stats.evaluations / 2, exact.stats.evaluations - 1];
        for threads in [1, test_threads()] {
            for &budget in &budgets {
                if budget == 0 {
                    continue;
                }
                let opts = ExploreOptions {
                    threads,
                    cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                    ..ExploreOptions::default()
                };
                let partial = match explore_design_space(&g, &opts) {
                    // Tripped before anything was established: a hard
                    // cancellation is the documented outcome.
                    Err(ExploreError::Cancelled { reason }) => {
                        assert_eq!(
                            reason,
                            CancelReason::EvaluationBudget,
                            "case {case}, budget {budget}, threads {threads}"
                        );
                        continue;
                    }
                    other => other.unwrap(),
                };
                // With `budget == evaluations - 1` and several workers, an
                // in-flight analysis can finish after the token trips; no
                // distribution is skipped and the run is legitimately
                // exact. It must then match the exact result verbatim.
                if partial.completeness.exact {
                    assert_eq!(
                        front_bytes(partial.pareto.points()),
                        front_bytes(exact.pareto.points()),
                        "case {case}, budget {budget}, threads {threads}"
                    );
                    continue;
                }
                assert_eq!(
                    partial.completeness.truncated_by,
                    Some(CancelReason::EvaluationBudget),
                    "case {case}, budget {budget}, threads {threads}"
                );
                for p in partial.pareto.points() {
                    assert!(
                        exact
                            .pareto
                            .points()
                            .iter()
                            .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                        "case {case}, budget {budget}, threads {threads}: stray point {p}"
                    );
                    assert!(
                        p.throughput <= exact.max_throughput,
                        "case {case}: partial point above the maximal throughput"
                    );
                }
                // Skipped sizes: the ceiling bounds everything the exact
                // search found at that size, and the counts add up.
                for s in &partial.skipped {
                    for q in exact.pareto.points().iter().filter(|q| q.size == s.size) {
                        assert!(
                            q.throughput <= s.throughput_bound,
                            "case {case}: skipped size {} under-bounds {}",
                            s.size,
                            q.throughput
                        );
                    }
                    assert!(s.distributions > 0, "case {case}: empty skipped size");
                }
                assert_eq!(
                    partial.completeness.distributions_skipped,
                    partial.skipped.iter().map(|s| s.distributions).sum::<u64>(),
                    "case {case}, budget {budget}, threads {threads}"
                );
            }
        }
    }
}

/// Replaying the evaluations recorded before an interruption warm-starts
/// the search into the exact result: byte-identical front, identical
/// statistics (recorded entries count as evaluations), at every thread
/// count.
#[test]
fn resume_from_recorded_evaluations_is_byte_identical() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0011);
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let exact = explore_with(&g, ExploreOptions::default());
        if exact.stats.evaluations < 2 {
            continue;
        }
        // An interrupted run: budget at half the exact evaluation count,
        // every finished evaluation recorded (the checkpoint contract).
        let rec = Arc::new(Recorder::default());
        let budget = exact.stats.evaluations / 2;
        let opts = ExploreOptions {
            cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget.max(1)))),
            observer: Some(rec.clone()),
            ..ExploreOptions::default()
        };
        let _ = explore_design_space(&g, &opts);
        let warm = Arc::new(rec.take_warm_start());

        for threads in [1, test_threads()] {
            let resumed = explore_with(
                &g,
                ExploreOptions {
                    threads,
                    warm_start: Some(Arc::clone(&warm)),
                    ..ExploreOptions::default()
                },
            );
            assert!(resumed.completeness.exact, "case {case}, threads {threads}");
            assert_eq!(
                front_bytes(resumed.pareto.points()),
                front_bytes(exact.pareto.points()),
                "case {case}, threads {threads}: resumed front diverged"
            );
            assert_eq!(
                resumed.stats, exact.stats,
                "case {case}, threads {threads}: resumed statistics diverged"
            );
            assert_eq!(resumed.max_throughput, exact.max_throughput);
            assert_eq!(resumed.lower_bound_size, exact.lower_bound_size);
            assert_eq!(resumed.upper_bound_size, exact.upper_bound_size);
        }
    }
}

/// A run resumed from its own complete checkpoint obeys an evaluation
/// budget: replayed entries are evaluations, charged and refused after the
/// budget trips like fresh analyses. For every budget `b` up to the run's
/// own count `N`, the resumed run reports at most `b` evaluations (or is
/// cancelled before any result) and is never exact below `N`; the
/// exhaustive driver is exact at `N`. (A resumed guided run still needs
/// uncounted analyses for the flags its replayed entries lack, which a
/// tripped budget refuses, so at `N` it may stay partial.)
#[test]
fn resumed_runs_obey_the_evaluation_budget() {
    type Driver = fn(&SdfGraph, &ExploreOptions) -> Result<ExplorationResult, ExploreError>;
    let exhaustive: Driver = explore_design_space::<SdfGraph>;
    let guided: Driver = explore_dependency_guided::<SdfGraph>;
    for (graph, driver, name) in [
        (gallery::example(), exhaustive, "exhaustive"),
        (gallery::modem(), exhaustive, "exhaustive"),
        (gallery::cd2dat(), exhaustive, "exhaustive"),
        (gallery::example(), guided, "guided"),
        (gallery::modem(), guided, "guided"),
    ] {
        let rec = Arc::new(Recorder::default());
        let full = driver(
            &graph,
            &ExploreOptions {
                observer: Some(rec.clone()),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let n = full.stats.evaluations;
        let warm = Arc::new(rec.take_warm_start());
        for budget in 1..=n {
            let label = format!("{} {name}, budget {budget} of {n}", graph.name());
            let resumed = driver(
                &graph,
                &ExploreOptions {
                    cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
                    warm_start: Some(Arc::clone(&warm)),
                    ..ExploreOptions::default()
                },
            );
            let r = match resumed {
                Err(ExploreError::Cancelled { reason }) => {
                    assert_eq!(reason, CancelReason::EvaluationBudget, "{label}");
                    assert!(budget < n, "{label}: cancelled at the full budget");
                    continue;
                }
                other => other.unwrap(),
            };
            assert!(r.stats.evaluations <= budget, "{label}: {}", r.stats);
            if budget < n {
                assert!(!r.completeness.exact, "{label}: exact below N");
            } else if name == "exhaustive" {
                assert!(r.completeness.exact, "{label}: partial at N");
                assert_eq!(
                    front_bytes(r.pareto.points()),
                    front_bytes(full.pareto.points()),
                    "{label}"
                );
            }
        }
    }
}

/// A worker panic during one evaluation degrades that distribution to
/// zero throughput instead of aborting: the run completes, names the
/// failure, keeps the failed point off the front, and remains
/// deterministic across thread counts.
#[test]
fn injected_panics_degrade_without_aborting() {
    let mut rng = SplitMix64::seed_from_u64(0xB0FF_0012);
    let mut exercised = 0u32;
    for case in 0..CASES {
        let g = small_graph(&mut rng);
        let exact = explore_with(&g, ExploreOptions::default());
        // Fail the evaluation of the exact front's maximal point; graphs
        // whose front is a single point are skipped (losing the only
        // point would leave nothing to compare).
        if exact.pareto.points().len() < 2 {
            continue;
        }
        exercised += 1;
        let fail = exact.pareto.maximal().unwrap().distribution.clone();
        let mut per_thread = Vec::new();
        for threads in [1, test_threads()] {
            let r = explore_with(
                &g,
                ExploreOptions {
                    threads,
                    fail_distribution: Some(fail.clone()),
                    ..ExploreOptions::default()
                },
            );
            assert!(r.completeness.exact, "case {case}, threads {threads}");
            assert_eq!(r.failures.len(), 1, "case {case}, threads {threads}");
            assert_eq!(r.failures[0].distribution, fail);
            assert!(
                r.failures[0].message.contains("injected"),
                "case {case}: {}",
                r.failures[0].message
            );
            assert!(
                r.pareto.points().iter().all(|p| p.distribution != fail),
                "case {case}, threads {threads}: failed distribution on the front"
            );
            for p in r.pareto.points() {
                assert!(
                    exact
                        .pareto
                        .points()
                        .iter()
                        .any(|q| q.size <= p.size && q.throughput >= p.throughput),
                    "case {case}, threads {threads}: stray point {p}"
                );
            }
            per_thread.push((front_bytes(r.pareto.points()), r.stats));
        }
        assert_eq!(
            per_thread[0], per_thread[1],
            "case {case}: degraded run depends on the thread count"
        );
    }
    assert!(exercised > 0, "no case exercised the panic path");
}
