//! The four visitors of the unit-step walk in `buffy-analysis` —
//! `explore`, `Schedule::extract`, `latency` and `shared_memory_peak` —
//! against one test-local reference loop: it steps the engine one time
//! unit at a time, keys every timed state in a `HashMap`, checks the step
//! limit before the state limit and stops at the first recurring state
//! (or the deadlock). Each output is derived from that one run and must
//! be equal, limit errors included, on the gallery graphs, two families
//! of random graphs, a zero-time actor and tiny limits.

use buffy_analysis::{
    explore, latency, shared_memory_peak, AnalysisError, Capacities, DataflowEngine,
    DataflowSemantics, DataflowState, ExplorationLimits, Firing, FiringEvents, FiringOutcome,
    LatencyReport, LimitKind, Schedule, SharedMemoryReport,
};
use buffy_core::{explore_dependency_guided, lower_bound_distribution, ExploreOptions};
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{ActorId, ChannelId, SdfGraph, StorageDistribution};
use std::collections::HashMap;

/// One self-timed run from time 0 to its first recurring timed state.
struct Run {
    /// The distinct states in visit order; state `i` is the one at time
    /// `i`.
    states: Vec<DataflowState>,
    /// The events leading into each state (the initial start pass first).
    events: Vec<FiringEvents>,
    /// The recurrence: the time the recurring state was first reached,
    /// the time it was reached again and the events of that closing
    /// step; `None` on deadlock.
    cycle: Option<(u64, u64, FiringEvents)>,
}

/// The reference loop: unit steps, every state keyed in a `HashMap`,
/// the step limit checked before the state limit.
fn reference_run(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    limits: ExplorationLimits,
) -> Result<Run, AnalysisError> {
    let mut engine = DataflowEngine::new(graph, Capacities::from_distribution(dist));
    let initial = engine.start_initial()?;
    let mut index: HashMap<DataflowState, u64> = HashMap::new();
    index.insert(engine.state().clone(), 0);
    let mut run = Run {
        states: vec![engine.state().clone()],
        events: vec![initial],
        cycle: None,
    };
    loop {
        if engine.time() >= limits.max_steps || index.len() > limits.max_states {
            let kind = if engine.time() >= limits.max_steps {
                LimitKind::Steps
            } else {
                LimitKind::States
            };
            return Err(limits.exceeded(kind, engine.capacities()));
        }
        match engine.step()? {
            FiringOutcome::Deadlock => return Ok(run),
            FiringOutcome::Progress(ev) => {
                if let Some(&entry) = index.get(engine.state()) {
                    run.cycle = Some((entry, engine.time(), ev));
                    return Ok(run);
                }
                index.insert(engine.state().clone(), engine.time());
                run.states.push(engine.state().clone());
                run.events.push(ev);
            }
        }
    }
}

/// The events of every step of `run` with the time they happen at, the
/// closing step included.
fn timed_events(run: &Run) -> impl Iterator<Item = (u64, &FiringEvents)> {
    let closing = run.cycle.as_ref().map(|(_, end, ev)| (*end, ev));
    (0u64..).zip(&run.events).chain(closing)
}

/// The schedule of `run`: its firings sorted by start, those at or after
/// the recurrence dropped, and `(entry, period)`.
fn reference_schedule(graph: &SdfGraph, run: &Run) -> (Vec<Firing>, Option<(u64, u64)>) {
    let mut firings: Vec<Firing> = timed_events(run)
        .flat_map(|(t, ev)| {
            ev.started.iter().map(move |&(actor, _)| Firing {
                actor,
                start: t,
                end: t + graph.actor(actor).execution_time(),
            })
        })
        .collect();
    let period = run
        .cycle
        .as_ref()
        .map(|&(entry, end, _)| (entry, end - entry));
    if let Some((entry, period_len)) = period {
        firings.retain(|f| f.start < entry + period_len);
    }
    firings.sort_by_key(|f| f.start);
    (firings, period)
}

/// The latency report of `observed` in `run`.
fn reference_latency(run: &Run, observed: ActorId) -> LatencyReport {
    let completions: Vec<u64> = timed_events(run)
        .flat_map(|(t, ev)| {
            ev.completed
                .iter()
                .filter(move |&&(a, _)| a == observed)
                .map(move |_| t)
        })
        .collect();
    let Some(&(entry, end, _)) = run.cycle.as_ref() else {
        return LatencyReport {
            initial_latency: completions.first().copied(),
            min_output_interval: None,
            max_output_interval: None,
            deadlocked: true,
        };
    };
    let period = end - entry;
    let periodic: Vec<u64> = completions
        .iter()
        .copied()
        .filter(|&t| t > entry && t <= end)
        .collect();
    let (mut min_gap, mut max_gap) = (None, None);
    if !periodic.is_empty() {
        let mut gaps: Vec<u64> = periodic.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.push(periodic[0] + period - periodic[periodic.len() - 1]);
        min_gap = gaps.iter().copied().min();
        max_gap = gaps.iter().copied().max();
    }
    LatencyReport {
        initial_latency: completions.first().copied(),
        min_output_interval: min_gap,
        max_output_interval: max_gap,
        deadlocked: false,
    }
}

/// The shared-memory report of `run`.
fn reference_memory(run: &Run) -> SharedMemoryReport {
    let peak = run
        .states
        .iter()
        .map(|s| s.tokens.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    let mut channel_peaks = run.states[0].tokens.clone();
    for s in &run.states[1..] {
        for (p, &t) in channel_peaks.iter_mut().zip(&s.tokens) {
            *p = (*p).max(t);
        }
    }
    SharedMemoryReport {
        peak_tokens: peak,
        sum_of_channel_peaks: channel_peaks.iter().sum(),
        deadlocked: run.cycle.is_none(),
    }
}

/// Runs the four recorders and the reference on one case and requires
/// equal outputs; returns whether the reference run deadlocked (`None`
/// when it failed).
fn agree(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    limits: ExplorationLimits,
    observed: ActorId,
) -> Option<bool> {
    let case = format!("{} at {dist} under {limits:?}", graph.name());
    let space = explore(graph, dist, limits);
    let schedule = Schedule::extract(graph, dist, limits);
    let lat = latency(graph, dist, observed, limits);
    let memory = shared_memory_peak(graph, dist, limits);
    let run = match reference_run(graph, dist, limits) {
        Ok(run) => run,
        Err(e) => {
            assert_eq!(space.unwrap_err(), e, "explore: {case}");
            assert_eq!(schedule.unwrap_err(), e, "Schedule::extract: {case}");
            assert_eq!(lat.unwrap_err(), e, "latency: {case}");
            assert_eq!(memory.unwrap_err(), e, "shared_memory_peak: {case}");
            return None;
        }
    };

    let space = space.unwrap_or_else(|e| panic!("explore: {case}: {e}"));
    assert_eq!(space.states, run.states, "explore states: {case}");
    assert_eq!(space.events, run.events, "explore events: {case}");
    assert_eq!(
        space.cycle_start,
        run.cycle.as_ref().map(|c| c.0 as usize),
        "explore cycle start: {case}"
    );
    assert_eq!(
        space.closing_events.as_ref(),
        run.cycle.as_ref().map(|c| &c.2),
        "explore closing events: {case}"
    );

    let schedule = schedule.unwrap_or_else(|e| panic!("Schedule::extract: {case}: {e}"));
    let (firings, period) = reference_schedule(graph, &run);
    assert_eq!(schedule.firings(), firings.as_slice(), "firings: {case}");
    assert_eq!(
        schedule.period_entry().zip(schedule.period()),
        period,
        "period: {case}"
    );

    assert_eq!(
        lat.unwrap_or_else(|e| panic!("latency: {case}: {e}")),
        reference_latency(&run, observed),
        "latency: {case}"
    );
    assert_eq!(
        memory.unwrap_or_else(|e| panic!("shared_memory_peak: {case}: {e}")),
        reference_memory(&run),
        "shared_memory_peak: {case}"
    );
    Some(run.cycle.is_none())
}

/// `lb` with channel `ch` one step below its lower bound.
fn below_bound(graph: &SdfGraph, lb: &StorageDistribution, ch: usize) -> StorageDistribution {
    let step = graph.channel_step(ChannelId::new(ch));
    let mut caps = lb.as_slice().to_vec();
    caps[ch] = caps[ch].saturating_sub(step);
    StorageDistribution::from_capacities(caps)
}

/// Every SDF gallery graph at its lower-bound distribution and at each
/// point of its guided front; h263decoder, whose long periods make the
/// unit-step runs slow in debug builds, only at the lower bound and at
/// the maximal-throughput upper bound.
#[test]
fn gallery_bounds_and_fronts() {
    let limits = ExplorationLimits::default();
    for graph in gallery::all() {
        let observed = graph.default_observed_actor();
        let mut dists = vec![lower_bound_distribution(&graph)];
        if graph.name() == "h263decoder" {
            let (ub, _) = buffy_core::upper_bound_distribution(&graph, observed, limits).unwrap();
            dists.push(ub);
        } else {
            let front = explore_dependency_guided(&graph, &ExploreOptions::default()).unwrap();
            dists.extend(front.pareto.points().iter().map(|p| p.distribution.clone()));
        }
        for dist in &dists {
            agree(&graph, dist, limits, observed).expect("no limit is hit");
        }
    }
}

/// Random graphs of the `small` and `mixed_step(4, 5, ·)` families, 100
/// seeds each, at the lower bound (where cycles short of tokens still
/// deadlock some of them) and with the first channel whose bound exceeds
/// its step one step below it, which deadlocks every run.
#[test]
fn random_graphs_at_and_below_the_lower_bound() {
    let limits = ExplorationLimits::default();
    let (mut live, mut deadlocks) = (0, 0);
    for seed in 0..100 {
        for graph in [
            RandomGraphConfig::small(seed).generate(),
            RandomGraphConfig::mixed_step(4, 5, seed).generate(),
        ] {
            let observed = graph.default_observed_actor();
            let lb = lower_bound_distribution(&graph);
            if agree(&graph, &lb, limits, observed) == Some(false) {
                live += 1;
            }
            let ch = (0..graph.num_channels())
                .find(|&i| lb.as_slice()[i] > graph.channel_step(ChannelId::new(i)))
                .unwrap_or(0);
            if agree(&graph, &below_bound(&graph, &lb, ch), limits, observed) == Some(true) {
                deadlocks += 1;
            }
        }
    }
    assert!(live >= 50, "only {live} of 200 lower-bound runs are live");
    assert_eq!(deadlocks, 200, "every run below a lower bound deadlocks");
}

/// A zero-time actor: a source, a zero-time relay and a sink, the relay
/// also feeding the source back, at the lower bound and a little above.
#[test]
fn zero_time_actor() {
    let mut b = SdfGraph::builder("zero-time");
    let src = b.actor("src", 1);
    let z = b.actor("z", 0);
    let sink = b.actor("sink", 2);
    b.channel("in", src, 2, z, 1).unwrap();
    b.channel("out", z, 1, sink, 2).unwrap();
    b.channel_with_tokens("back", z, 1, src, 2, 2).unwrap();
    let g = b.build().unwrap();
    let lb = lower_bound_distribution(&g);
    for extra in 0..4 {
        let dist: StorageDistribution = lb.as_slice().iter().map(|&c| c + extra).collect();
        let outcome = agree(&g, &dist, ExplorationLimits::default(), sink);
        assert_eq!(outcome, Some(false), "{dist}");
    }
}

/// State and step limits of 1 to 5, alone and in every combination, on
/// the running example at ⟨4, 2⟩ (its cycle closes at t = 9) and at
/// ⟨3, 2⟩ (it deadlocks at t = 1).
#[test]
fn tiny_limits() {
    let g = gallery::example();
    let observed = g.default_observed_actor();
    for caps in [vec![4u64, 2], vec![3, 2]] {
        let dist = StorageDistribution::from_capacities(caps);
        let unlimited = ExplorationLimits::default();
        let mut limits = Vec::new();
        for a in 1..=5 {
            limits.push(ExplorationLimits {
                max_states: a,
                ..unlimited
            });
            limits.push(ExplorationLimits {
                max_steps: a as u64,
                ..unlimited
            });
            for b in 1..=5u64 {
                limits.push(ExplorationLimits {
                    max_states: a,
                    max_steps: b,
                });
            }
        }
        for limit in limits {
            agree(&g, &dist, limit, observed);
        }
    }
}
