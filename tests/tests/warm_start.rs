//! Checkpoint warm starts reproduce the uninterrupted run exactly.
//!
//! A run resumed from a checkpoint (`ExploreOptions::warm_start`, the
//! CLI's `--resume`) replays each recorded evaluation on first request as
//! a recorded evaluation, so its front is byte-identical to the
//! uninterrupted run's and its statistics are equal — at one worker and
//! at the test thread count. The CI ThreadSanitizer step runs this file
//! with the determinism suite: the replay path drives the memo cache, the
//! workspace pool and the event stream concurrently.

use std::sync::{Arc, Mutex};

use buffy_core::{
    explore_design_space, CancelToken, Event, ExplorationResult, ExploreObserver, ExploreOptions,
    ParetoPoint, WarmStart,
};
use buffy_gen::gallery;
use buffy_graph::{Rational, SdfGraph, StorageDistribution};
use buffy_integration_tests::test_threads;

fn front_bytes(points: &[ParetoPoint]) -> String {
    points
        .iter()
        .map(|p| format!("{};{};{}\n", p.size, p.throughput, p.distribution))
        .collect()
}

fn explore_with(graph: &SdfGraph, threads: usize) -> ExplorationResult {
    explore_design_space(
        graph,
        &ExploreOptions {
            threads,
            ..ExploreOptions::default()
        },
    )
    .unwrap()
}

/// Records every evaluation in the shape a checkpoint persists them.
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

/// Checkpoint/resume: interrupt a run, replay its recorded evaluations,
/// and the resumed run — sequential or parallel — still reproduces the
/// uninterrupted front and statistics exactly.
#[test]
fn checkpoint_resume_composes_with_warm_starts() {
    let graph = gallery::example();
    let exact = explore_with(&graph, 1);
    assert!(exact.stats.evaluations > 2);

    let rec = Arc::new(Recorder::default());
    let budget = exact.stats.evaluations / 2;
    let interrupted = ExploreOptions {
        cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget.max(1)))),
        observer: Some(rec.clone()),
        ..ExploreOptions::default()
    };
    let _ = explore_design_space(&graph, &interrupted);
    let warm_map = Arc::new(rec.take_warm_start());
    assert!(!warm_map.is_empty());

    for threads in [1, test_threads()] {
        let resumed = explore_design_space(
            &graph,
            &ExploreOptions {
                threads,
                warm_start: Some(Arc::clone(&warm_map)),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(resumed.completeness.exact);
        assert_eq!(
            front_bytes(exact.pareto.points()),
            front_bytes(resumed.pareto.points()),
            "threads {threads}"
        );
        assert_eq!(exact.stats, resumed.stats, "threads {threads}");
    }
}
