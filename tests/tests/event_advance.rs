//! Differential check of the analysis kernel.
//!
//! The throughput analysis moves time with `DataflowEngine::advance`,
//! which jumps from one firing completion to the next, fast-forwards
//! windows of advances that repeat with a constant shift, stores reduced
//! states as packed rows of a flat arena, and collects the
//! storage-dependency flags and the peak occupancies inside its own cycle
//! search. This file keeps the unit-step versions of the cycle search
//! (over a `HashMap<ReducedState, _>`), of the dependency replay and of
//! the peak occupancies as references, driven by `DataflowEngine::step`
//! one time unit at a time. Every `ThroughputReport` field, every error,
//! every dependency flag and every peak must agree with the kernel's, and
//! the kernel's fused flags must also equal the library's replay
//! `dependencies_from_run_for` — on seeded random graphs (including a
//! family with mixed channel steps and one with long stretches between
//! completions), their single-phase CSDF embeddings, the SDF and CSDF
//! galleries, long multirate chains, zero-execution-time graphs and
//! deadlocking distributions.

use buffy_analysis::{
    dependencies_from_run_for, throughput_analysis, throughput_for, AnalysisError, AnalysisRequest,
    AnalysisWorkspace, CancelToken, Capacities, DataflowEngine, DataflowSemantics, DataflowState,
    ExplorationLimits, FiringEvents, FiringOutcome, LimitKind, ThroughputReport,
};
use buffy_core::lower_bound_distribution;
use buffy_csdf::CsdfGraph;
use buffy_gen::{gallery, RandomGraphConfig};
use buffy_graph::{ActorId, ChannelId, Rational, SdfGraph, StorageDistribution};
use std::collections::HashMap;

/// A state of the reduced state space (paper §7, Fig. 4): the timed state
/// at a completion of the observed actor, the time since its previous
/// completion, and the number of completions at this instant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ReducedState {
    state: DataflowState,
    dist: u64,
    firings: u32,
}

/// The reduced-state-space cycle search of paper §7, stepping one time
/// unit per engine call.
fn unit_step_throughput<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<ThroughputReport, AnalysisError> {
    let completions = |events: &FiringEvents| {
        events
            .completed
            .iter()
            .filter(|&&(a, _)| a == observed)
            .count() as u32
    };
    let mut engine = DataflowEngine::new(model, caps);
    let initial = engine.start_initial()?;
    let mut seen: HashMap<ReducedState, usize> = HashMap::new();
    let mut times = Vec::new();
    let mut firing_counts = Vec::new();
    let mut last_completion = 0;
    let pending = completions(&initial);
    if pending > 0 {
        let key = ReducedState {
            state: engine.state().clone(),
            dist: 0,
            firings: pending,
        };
        seen.insert(key, 0);
        times.push(0);
        firing_counts.push(pending);
    }
    loop {
        if engine.time() >= limits.max_steps {
            return Err(limits.exceeded(LimitKind::Steps, engine.capacities()));
        }
        let events = match engine.step()? {
            FiringOutcome::Deadlock => {
                return Ok(ThroughputReport {
                    throughput: Rational::ZERO,
                    deadlocked: true,
                    states_stored: seen.len(),
                    cycle_states: 0,
                    firings_per_period: 0,
                    period: 0,
                    cycle_entry_time: 0,
                })
            }
            FiringOutcome::Progress(events) => events,
        };
        let pending = completions(&events);
        if pending == 0 {
            continue;
        }
        let dist = engine.time() - last_completion;
        last_completion = engine.time();
        let key = ReducedState {
            state: engine.state().clone(),
            dist,
            firings: pending,
        };
        if let Some(&k) = seen.get(&key) {
            let period = engine.time() - times[k];
            if period == 0 {
                return Err(AnalysisError::ZeroPeriod);
            }
            let firings: u64 = firing_counts[k..].iter().map(|&f| u64::from(f)).sum();
            return Ok(ThroughputReport {
                throughput: Rational::new(firings as i128, period as i128),
                deadlocked: false,
                states_stored: seen.len(),
                cycle_states: times.len() - k,
                firings_per_period: firings,
                period,
                cycle_entry_time: times[k],
            });
        }
        seen.insert(key, times.len());
        times.push(engine.time());
        firing_counts.push(pending);
        if times.len() > limits.max_states {
            return Err(limits.exceeded(LimitKind::States, engine.capacities()));
        }
    }
}

/// Channels whose free space blocks an idle actor that has all its input
/// tokens.
fn space_blocked<M: DataflowSemantics>(engine: &DataflowEngine<'_, M>, out: &mut [bool]) {
    let model = engine.model();
    let state = engine.state();
    for i in 0..model.num_actors() {
        let actor = ActorId::new(i);
        let phase = state.phase[i];
        if state.act_clk[i] > 0
            || model
                .input_channels(actor)
                .iter()
                .any(|&c| state.tokens[c.index()] < model.consumption(c, phase))
        {
            continue;
        }
        for &c in model.output_channels(actor) {
            if let Some(cap) = engine.capacities().get(c) {
                if cap.saturating_sub(state.tokens[c.index()]) < model.production(c, phase) {
                    out[c.index()] = true;
                }
            }
        }
    }
}

/// The storage-dependency replay, inspecting every time unit of the
/// period (or the deadlock state).
fn unit_step_dependencies<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    report: &ThroughputReport,
) -> Result<Vec<bool>, AnalysisError> {
    let mut dependent = vec![false; model.num_channels()];
    let mut engine = DataflowEngine::new(model, Capacities::from_distribution(dist));
    engine.start_initial()?;
    if report.deadlocked {
        while let FiringOutcome::Progress(_) = engine.step()? {}
        space_blocked(&engine, &mut dependent);
    } else {
        while engine.time() < report.cycle_entry_time {
            engine.step()?;
        }
        space_blocked(&engine, &mut dependent);
        while engine.time() < report.cycle_entry_time + report.period {
            engine.step()?;
            space_blocked(&engine, &mut dependent);
        }
    }
    Ok(dependent)
}

/// Each channel's peak occupancy over the run of `report`, stepping one
/// time unit at a time from time 0 to the cycle's close (or to the
/// deadlock): its initial tokens, or the largest `tokens + production`
/// at a start of its producer.
///
/// A start is seen in the state its instant leaves. Only a zero-time
/// firing moves tokens within an instant, so the reference applies to
/// models without a zero-time phase.
fn unit_step_peaks<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    report: &ThroughputReport,
) -> Result<Vec<u64>, AnalysisError> {
    let mut peaks: Vec<u64> = (0..model.num_channels())
        .map(|i| model.initial_tokens(ChannelId::new(i)))
        .collect();
    let mut note = |events: &FiringEvents, tokens: &[u64]| {
        for &(actor, phase) in &events.started {
            for &c in model.output_channels(actor) {
                let claimed = tokens[c.index()] + model.production(c, phase);
                peaks[c.index()] = peaks[c.index()].max(claimed);
            }
        }
    };
    let mut engine = DataflowEngine::new(model, Capacities::from_distribution(dist));
    let initial = engine.start_initial()?;
    note(&initial, &engine.state().tokens);
    let close = report.cycle_entry_time + report.period;
    while report.deadlocked || engine.time() < close {
        match engine.step()? {
            FiringOutcome::Progress(events) => note(&events, &engine.state().tokens),
            FiringOutcome::Deadlock => break,
        }
    }
    Ok(peaks)
}

/// Whether some phase of some actor of `model` takes no time.
fn has_zero_time_phase<M: DataflowSemantics>(model: &M) -> bool {
    (0..model.num_actors()).map(ActorId::new).any(|actor| {
        (0..model.num_phases(actor)).any(|phase| model.execution_time(actor, phase) == 0)
    })
}

/// The kernel's analysis with the dependency flags and the peaks on, in
/// `ws`.
fn fused<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
    limits: ExplorationLimits,
    ws: &mut AnalysisWorkspace,
) -> Result<(ThroughputReport, Vec<bool>, Vec<u64>), AnalysisError> {
    let request = AnalysisRequest {
        limits,
        dependencies: true,
        peaks: true,
        ..AnalysisRequest::default()
    };
    let caps = Capacities::from_distribution(dist);
    throughput_analysis(model, caps, observed, &request, ws).map(|a| {
        (
            a.report,
            a.dependent.expect("flags were requested"),
            a.peaks.expect("peaks were requested"),
        )
    })
}

/// Compares the kernel with the unit-step references for one analysis,
/// including step and state limits placed exactly at the cycle's close.
/// One workspace serves every analysis, errors included.
fn assert_agrees<M: DataflowSemantics>(
    label: &str,
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
) {
    let check = |limits: ExplorationLimits, ws: &mut AnalysisWorkspace| {
        let caps = Capacities::from_distribution(dist);
        let fast = throughput_for(model, caps.clone(), observed, limits);
        let slow = unit_step_throughput(model, caps, observed, limits);
        assert_eq!(
            fast, slow,
            "{label} {dist} observed {observed:?} {limits:?}"
        );
        let flagged = fused(model, dist, observed, limits, ws);
        assert_eq!(
            flagged.as_ref().map(|(report, ..)| report),
            fast.as_ref(),
            "{label} {dist}: the flags changed the report"
        );
        flagged
    };
    let mut ws = AnalysisWorkspace::new();
    let Ok((report, flags, peaks)) = check(ExplorationLimits::default(), &mut ws) else {
        return;
    };
    if !has_zero_time_phase(model) {
        assert_eq!(
            Ok(peaks),
            unit_step_peaks(model, dist, &report),
            "{label} {dist} observed {observed:?}: peak occupancies differ"
        );
    }
    let replayed = dependencies_from_run_for(
        model,
        dist,
        report.deadlocked,
        report.cycle_entry_time,
        report.period,
    );
    let slow = unit_step_dependencies(model, dist, &report);
    assert_eq!(replayed, slow, "{label} {dist}: dependency flags differ");
    assert_eq!(
        Ok(flags),
        slow,
        "{label} {dist} observed {observed:?}: fused flags differ from the replay"
    );

    let mut run = |limits| check(limits, &mut ws).map(|(report, ..)| report);
    let steps = |max_steps| ExplorationLimits {
        max_steps,
        ..ExplorationLimits::default()
    };
    if !report.deadlocked {
        // The cycle closes at `close`: that many time units suffice, one
        // fewer does not.
        let close = report.cycle_entry_time + report.period;
        assert_eq!(run(steps(close)), Ok(report.clone()), "{label} {dist}");
        assert!(
            matches!(
                run(steps(close - 1)),
                Err(AnalysisError::StateLimitExceeded {
                    kind: LimitKind::Steps,
                    ..
                })
            ),
            "{label} {dist}"
        );
        let _ = run(steps(close / 2));
    }
    let _ = run(ExplorationLimits {
        max_states: report.states_stored.saturating_sub(1),
        ..ExplorationLimits::default()
    });
}

/// The lower-bound distribution, every channel grown by 1 and 3, and the
/// lower bound doubled.
fn distributions<M: DataflowSemantics>(model: &M) -> Vec<StorageDistribution> {
    let lb = lower_bound_distribution(model);
    let grown = |f: fn(u64) -> u64| {
        StorageDistribution::from_capacities(lb.as_slice().iter().map(|&c| f(c)).collect())
    };
    vec![
        lb.clone(),
        grown(|c| c + 1),
        grown(|c| c + 3),
        grown(|c| 2 * c),
    ]
}

/// Checks every distribution of [`distributions`], observing every actor
/// of small models and the default actor of larger ones.
fn assert_model_agrees<M: DataflowSemantics>(label: &str, model: &M) {
    let observed: Vec<ActorId> = if model.num_actors() <= 6 {
        (0..model.num_actors()).map(ActorId::new).collect()
    } else {
        vec![model.default_observed_actor()]
    };
    for dist in distributions(model) {
        for &actor in &observed {
            assert_agrees(label, model, &dist, actor);
        }
    }
}

/// Random graphs with long firings, so that most advances jump many time
/// units at once.
fn slow_random_graph(seed: u64) -> SdfGraph {
    RandomGraphConfig {
        max_execution_time: 40,
        seed,
        ..RandomGraphConfig::default()
    }
    .generate()
}

#[test]
fn random_graphs_agree_with_unit_steps() {
    for seed in 7000..7020u64 {
        let g = RandomGraphConfig::small(seed).generate();
        assert_model_agrees(&format!("random {seed}"), &g);
        assert_model_agrees(&format!("random {seed} (CSDF)"), &CsdfGraph::from_sdf(&g));
    }
}

#[test]
fn mixed_step_random_graphs_agree_with_unit_steps() {
    for seed in 1..=40u64 {
        let g = RandomGraphConfig::mixed_step(4, 5, seed).generate();
        assert_model_agrees(&format!("mixed-step random {seed}"), &g);
    }
}

#[test]
fn random_graphs_with_long_firings_agree_with_unit_steps() {
    for seed in 100..110u64 {
        let g = slow_random_graph(seed);
        assert_model_agrees(&format!("slow random {seed}"), &g);
        assert_model_agrees(
            &format!("slow random {seed} (CSDF)"),
            &CsdfGraph::from_sdf(&g),
        );
    }
}

/// The chain `src →(n:1) a →(1:1) b →(1:n) snk` with execution times 7,
/// 3, 2 and 11. Between two completions of the sink, `a` and `b` fire
/// `n` times each, two advances per token: the long stretches the cycle
/// search fast-forwards.
fn long_chain(n: u64) -> SdfGraph {
    let mut b = SdfGraph::builder("chain");
    let src = b.actor("src", 7);
    let a = b.actor("a", 3);
    let bb = b.actor("b", 2);
    let snk = b.actor("snk", 11);
    b.channel("c0", src, n, a, 1).unwrap();
    b.channel("c1", a, 1, bb, 1).unwrap();
    b.channel("c2", bb, 1, snk, n).unwrap();
    b.build().unwrap()
}

/// A producer `p` (1) feeding a consumer `q` (70) that takes 100 tokens
/// per firing. Observing `q`, a stretch ends on its token test (`q` waits
/// for 100 tokens) or on its busy clock running out, not on a capacity:
/// with capacity 200 the channel peaks at 170, claimed one advance before
/// `q` completes.
fn producer_and_slow_consumer() -> SdfGraph {
    let mut b = SdfGraph::builder("slow-consumer");
    let p = b.actor("p", 1);
    let q = b.actor("q", 70);
    b.channel("c", p, 1, q, 100).unwrap();
    b.build().unwrap()
}

/// A two-phase producer `p` (1, 1) that emits 1, then 2 tokens, feeding
/// `q` (100) that takes 300 per firing: `p`'s clock is the same after
/// every advance, but only windows of whole phase cycles repeat.
fn two_phase_producer() -> CsdfGraph {
    let mut b = CsdfGraph::builder("two-phase");
    let p = b.actor("p", vec![1, 1]);
    let q = b.actor("q", vec![100]);
    b.channel("c", p, vec![1, 2], q, vec![300], 0).unwrap();
    b.build().unwrap()
}

#[test]
fn long_stretch_graphs_agree_with_unit_steps() {
    let g = producer_and_slow_consumer();
    assert_model_agrees("slow consumer", &g);
    assert_model_agrees("slow consumer (CSDF)", &CsdfGraph::from_sdf(&g));
    assert_model_agrees("two-phase producer", &two_phase_producer());
    for n in [80, 300] {
        let g = long_chain(n);
        assert_model_agrees(&format!("chain {n}"), &g);
        assert_model_agrees(&format!("chain {n} (CSDF)"), &CsdfGraph::from_sdf(&g));
    }
    for seed in 0..10u64 {
        let g = RandomGraphConfig {
            max_repetition: 40,
            max_execution_time: 9,
            seed,
            ..RandomGraphConfig::default()
        }
        .generate();
        assert_model_agrees(&format!("long-stretch random {seed}"), &g);
        assert_model_agrees(
            &format!("long-stretch random {seed} (CSDF)"),
            &CsdfGraph::from_sdf(&g),
        );
    }
}

/// At its lower bounds ⟨n, 1, n⟩ the chain's sink completes every
/// `5n + 8` time units: from one sink completion, `b` fires once (2),
/// then `n − 1` more tokens pass `a` and `b` in series through the
/// one-place channel (5 each), and the sink fires (11).
#[test]
fn long_chain_throughput_has_a_closed_form() {
    for n in [10, 100] {
        let g = long_chain(n);
        let dist = lower_bound_distribution(&g);
        assert_eq!(dist.as_slice(), [n, 1, n]);
        let caps = Capacities::from_distribution(&dist);
        let snk = g.default_observed_actor();
        let limits = ExplorationLimits::default();
        let closed_form = Rational::new(1, i128::from(5 * n + 8));
        let fast = throughput_for(&g, caps.clone(), snk, limits).unwrap();
        assert_eq!(fast.throughput, closed_form, "n = {n}");
        assert_eq!(Ok(fast), unit_step_throughput(&g, caps, snk, limits));
    }
}

/// The cycle of the chain with `n = 10⁷` closes after about `6·10⁷`
/// advances of the engine; the fast-forward covers each stretch in a few
/// jumps, so even a debug build answers well within the deadline.
#[test]
fn long_chain_analysis_meets_a_deadline() {
    let n = 10_000_000;
    let g = long_chain(n);
    let token = CancelToken::new().with_deadline(std::time::Duration::from_secs(10));
    let request = AnalysisRequest {
        cancel: &token,
        ..AnalysisRequest::default()
    };
    let caps = Capacities::from_distribution(&StorageDistribution::from_capacities(vec![n, 1, n]));
    let analysis = throughput_analysis(
        &g,
        caps,
        g.default_observed_actor(),
        &request,
        &mut AnalysisWorkspace::new(),
    )
    .unwrap();
    assert_eq!(analysis.report.throughput, Rational::new(1, 50_000_008));
}

#[test]
fn gallery_graphs_agree_with_unit_steps() {
    for g in gallery::all() {
        assert_model_agrees(g.name(), &g);
    }
    for g in buffy_csdf::gallery::all() {
        assert_model_agrees(g.name(), &g);
    }
}

#[test]
fn deadlocking_distributions_agree_with_unit_steps() {
    let g = gallery::example();
    for caps in [[4u64, 1], [3, 2], [1, 2], [0, 0]] {
        let dist = StorageDistribution::from_capacities(caps.to_vec());
        for actor in 0..3 {
            assert_agrees("example", &g, &dist, ActorId::new(actor));
        }
    }
    let b = gallery::bipartite();
    let dist = StorageDistribution::from_capacities(vec![1, 1, 1, 1]);
    assert_agrees("bipartite", &b, &dist, b.default_observed_actor());
}

#[test]
fn zero_execution_time_graphs_agree_with_unit_steps() {
    // src (1) and a zero-time z in a ring, without and with the token
    // that lets them ping-pong.
    for tokens in [0, 1] {
        let mut b = SdfGraph::builder("zt");
        let src = b.actor("src", 1);
        let z = b.actor("z", 0);
        b.channel("c1", src, 1, z, 1).unwrap();
        b.channel_with_tokens("c2", z, 1, src, 1, tokens).unwrap();
        let g = b.build().unwrap();
        let dist = StorageDistribution::from_capacities(vec![1, 1]);
        for actor in [src, z] {
            assert_agrees("zt", &g, &dist, actor);
            assert_agrees("zt (CSDF)", &CsdfGraph::from_sdf(&g), &dist, actor);
        }
    }

    // A slow source feeding a zero-time sink.
    let mut b = SdfGraph::builder("z");
    let s = b.actor("s", 2);
    let z = b.actor("z", 0);
    b.channel("c", s, 1, z, 1).unwrap();
    let g = b.build().unwrap();
    for cap in 1..4 {
        let dist = StorageDistribution::from_capacities(vec![cap]);
        assert_agrees("z", &g, &dist, z);
        assert_agrees("z", &g, &dist, s);
    }

    // Two zero-time actors trading a token forever: both routes report
    // the livelock.
    let mut b = SdfGraph::builder("ll");
    let x = b.actor("x", 0);
    let y = b.actor("y", 0);
    b.channel("f", x, 1, y, 1).unwrap();
    b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
    let g = b.build().unwrap();
    let dist = StorageDistribution::from_capacities(vec![1, 1]);
    let caps = Capacities::from_distribution(&dist);
    let limits = ExplorationLimits::default();
    assert_eq!(
        throughput_for(&g, caps.clone(), x, limits),
        Err(AnalysisError::ZeroTimeLivelock)
    );
    assert_eq!(
        unit_step_throughput(&g, caps, x, limits),
        Err(AnalysisError::ZeroTimeLivelock)
    );
}
