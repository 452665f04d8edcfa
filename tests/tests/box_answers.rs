//! Capacity-box answers in the exhaustive pipeline.
//!
//! The exhaustive sweep's flag-free pipeline answers a candidate inside an
//! earlier analysis's capacity box `[peak, refused)` from that analysis,
//! without simulating it (the guided pipeline, which also answers the
//! constraint query, keeps no boxes). The answer is an evaluation like any other, so every `Evaluated`
//! event must carry what a fresh analysis of its distribution reports:
//! the same throughput and the same number of reduced states. This holds
//! at every thread count (which candidates a box answers depends on
//! worker timing) and for a run resumed from a mid-run checkpoint.

use buffy_analysis::{throughput_for, Capacities, DataflowSemantics, ExplorationLimits};
use buffy_core::{explore_design_space, Event, ExploreObserver, ExploreOptions, WarmStart};
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{Rational, StorageDistribution};
use std::sync::{Arc, Mutex};

/// Every `Evaluated` event of a run, in arrival order.
#[derive(Default)]
struct Evaluations(Mutex<Vec<(StorageDistribution, Rational, u64)>>);

impl ExploreObserver for Evaluations {
    fn event(&self, event: &Event<'_>) {
        if let Event::Evaluated {
            dist,
            throughput,
            states,
            ..
        } = *event
        {
            self.0
                .lock()
                .unwrap()
                .push((dist.clone(), throughput, states));
        }
    }
}

/// Requires each recorded evaluation to match a fresh analysis.
fn assert_fresh<M: DataflowSemantics>(label: &str, model: &M, evaluations: &Evaluations) {
    let observed = model.default_observed_actor();
    let evaluations = evaluations.0.lock().unwrap();
    assert!(!evaluations.is_empty(), "{label}: nothing evaluated");
    for (dist, throughput, states) in evaluations.iter() {
        let fresh = throughput_for(
            model,
            Capacities::from_distribution(dist),
            observed,
            ExplorationLimits::default(),
        )
        .unwrap_or_else(|e| panic!("{label}: {dist}: {e}"));
        assert_eq!(
            (*throughput, *states),
            (fresh.throughput, fresh.states_stored as u64),
            "{label}: {dist}"
        );
    }
}

/// Options with `threads` workers, the size cap and a fresh recorder.
fn recorded(threads: usize, max_size: Option<u64>) -> (ExploreOptions, Arc<Evaluations>) {
    let evaluations = Arc::new(Evaluations::default());
    let options = ExploreOptions {
        threads,
        max_size,
        observer: Some(evaluations.clone()),
        ..ExploreOptions::default()
    };
    (options, evaluations)
}

/// The exhaustive run at 1 and 4 threads, then resumed from a checkpoint
/// of its first half.
fn assert_box_answers_are_fresh<M: DataflowSemantics + Sync>(
    label: &str,
    model: &M,
    max_size: Option<u64>,
) {
    let mut front = None;
    for threads in [1, 4] {
        let (options, evaluations) = recorded(threads, max_size);
        let result = explore_design_space(model, &options)
            .unwrap_or_else(|e| panic!("{label} exhaustive: {e}"));
        assert_fresh(
            &format!("{label} exhaustive ×{threads}"),
            model,
            &evaluations,
        );
        let stats = result.stats;
        match &front {
            None => front = Some((result.pareto, stats)),
            Some((pareto, first)) => {
                assert_eq!(
                    &result.pareto, pareto,
                    "{label}: front at {threads} threads"
                );
                assert_eq!(&stats, first, "{label}: stats at {threads} threads");
            }
        }
    }

    let (options, evaluations) = recorded(1, max_size);
    explore_design_space(model, &options).unwrap();
    let warm: WarmStart = {
        let all = evaluations.0.lock().unwrap();
        all[..all.len() / 2]
            .iter()
            .map(|(d, t, s)| (d.clone(), (*t, *s)))
            .collect()
    };
    let (mut options, evaluations) = recorded(1, max_size);
    options.warm_start = Some(Arc::new(warm));
    let resumed = explore_design_space(model, &options).unwrap();
    assert_fresh(&format!("{label} resumed"), model, &evaluations);
    let (pareto, stats) = front.expect("the clean runs charted a front");
    assert_eq!(resumed.pareto, pareto, "{label}: resumed front");
    assert_eq!(resumed.stats, stats, "{label}: resumed stats");
}

/// A size cap for the graphs whose exhaustive runs are slow in debug
/// builds.
fn search_cap(name: &str) -> Option<u64> {
    match name {
        "h263decoder" => Some(1195),
        "h263-rows" => Some(700),
        _ => None,
    }
}

#[test]
fn box_answers_match_fresh_analyses_on_the_galleries() {
    // Satellite's exhaustive search takes minutes in a debug build.
    for g in gallery::all()
        .into_iter()
        .filter(|g| g.name() != "satellite")
    {
        assert_box_answers_are_fresh(g.name(), &g, search_cap(g.name()));
    }
    for g in buffy_csdf::gallery::all() {
        assert_box_answers_are_fresh(g.name(), &g, search_cap(g.name()));
    }
}

/// The mixed-step graphs `(actors, channels, seed)` whose exhaustive
/// searches take over 75 ms in a release build (up to minutes in debug).
const SLOW_MIXED_STEP: [(usize, usize, u64); 19] = [
    (4, 5, 2),
    (4, 6, 2),
    (4, 6, 3),
    (4, 7, 2),
    (4, 7, 3),
    (4, 7, 4),
    (4, 7, 5),
    (5, 6, 2),
    (5, 6, 4),
    (5, 6, 5),
    (5, 7, 2),
    (5, 7, 4),
    (5, 7, 5),
    (6, 6, 2),
    (6, 6, 4),
    (6, 7, 1),
    (6, 7, 2),
    (6, 7, 3),
    (6, 7, 4),
];

#[test]
fn box_answers_match_fresh_analyses_on_mixed_step_graphs() {
    for actors in 4..=6 {
        for channels in 5..=7 {
            for seed in 1..=5 {
                if SLOW_MIXED_STEP.contains(&(actors, channels, seed)) {
                    continue;
                }
                let g = RandomGraphConfig::mixed_step(actors, channels, seed).generate();
                let label = format!("mixed-step {actors}/{channels}/{seed}");
                assert_box_answers_are_fresh(&label, &g, None);
            }
        }
    }
}
