//! Storage-dependency detection.
//!
//! A channel carries a *storage dependency* when, during the periodic phase
//! of the self-timed execution (or in the deadlock state), some actor is
//! idle and has all its input tokens but cannot start because that
//! channel's free space is insufficient. Growing any other channel cannot
//! raise the throughput; growing a dependent channel might. This is the
//! signal that drives the dependency-guided design-space exploration in
//! `buffy-core` — the pruning direction the paper's conclusions call for
//! (§11–12) and the refinement the authors later shipped in SDF3.

use crate::engine::{Capacities, DataflowEngine, FiringOutcome};
use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use crate::throughput::{throughput_for, ExplorationLimits, ThroughputReport};
use buffy_graph::{ActorId, ChannelId, SdfGraph, StorageDistribution};

/// A throughput report extended with the channels limiting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyReport {
    /// The plain throughput analysis result.
    pub report: ThroughputReport,
    /// Channels with a storage dependency: `true` at index `i` iff channel
    /// `i` blocked some token-ready actor during the periodic phase (or in
    /// the deadlock state).
    pub dependent: Vec<bool>,
}

impl DependencyReport {
    /// The dependent channels as ids.
    pub fn dependent_channels(&self) -> Vec<ChannelId> {
        self.dependent
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(ChannelId::new(i)))
            .collect()
    }
}

/// Channels whose lack of space currently blocks a token-ready, idle actor
/// (at its current phase's rates).
fn space_blocked_channels<M: DataflowSemantics>(engine: &DataflowEngine<'_, M>, out: &mut [bool]) {
    let model = engine.model();
    let state = engine.state();
    'actors: for i in 0..model.num_actors() {
        let actor = ActorId::new(i);
        if state.act_clk[i] > 0 {
            continue;
        }
        let phase = state.phase[i];
        for &cid in model.input_channels(actor) {
            if state.tokens[cid.index()] < model.consumption(cid, phase) {
                continue 'actors; // token-starved, not a storage dependency
            }
        }
        for &cid in model.output_channels(actor) {
            if let Some(cap) = engine.capacities().get(cid) {
                let free = cap.saturating_sub(state.tokens[cid.index()]);
                if free < model.production(cid, phase) {
                    out[cid.index()] = true;
                }
            }
        }
    }
}

/// Computes the throughput of `observed` under `dist` and the set of
/// storage-dependent channels.
///
/// For a periodic execution the dependencies are collected over one full
/// period; for a deadlocked execution they are collected in the final
/// (stable) state.
///
/// # Errors
///
/// Same as [`crate::throughput`].
pub fn throughput_with_dependencies(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<DependencyReport, AnalysisError> {
    throughput_with_dependencies_for(graph, dist, observed, limits)
}

/// The generic form of [`throughput_with_dependencies`]: works for any
/// [`DataflowSemantics`] model through the unified kernel.
///
/// # Errors
///
/// Same as [`crate::throughput`].
pub fn throughput_with_dependencies_for<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<DependencyReport, AnalysisError> {
    let report = throughput_for(model, Capacities::from_distribution(dist), observed, limits)?;
    let dependent = dependencies_from_run_for(
        model,
        dist,
        report.deadlocked,
        report.cycle_entry_time,
        report.period,
    )?;
    Ok(DependencyReport { report, dependent })
}

/// Replays one self-timed execution to collect the storage-dependent
/// channels, reusing an already-computed throughput result (its
/// `deadlocked` flag, `cycle_entry_time` and `period`) instead of
/// re-running the state-space analysis. This is what lets a memoized
/// evaluator answer dependency queries from its cache.
///
/// # Errors
///
/// Engine errors (e.g. arithmetic overflow) during the replay.
pub fn dependencies_from_run_for<M: DataflowSemantics>(
    model: &M,
    dist: &StorageDistribution,
    deadlocked: bool,
    cycle_entry_time: u64,
    period: u64,
) -> Result<Vec<bool>, AnalysisError> {
    let mut dependent = vec![false; model.num_channels()];
    let mut engine = DataflowEngine::new(model, Capacities::from_distribution(dist));
    engine.start_initial()?;

    // The blocked set depends on tokens, phases and idle actors only, which
    // change only at firing completions: inspecting the state after each
    // advance sees every set that unit steps would.
    if deadlocked {
        // Run to the deadlock and inspect the stable state.
        while let FiringOutcome::Progress(_) = engine.advance(u64::MAX)? {}
        space_blocked_channels(&engine, &mut dependent);
    } else {
        // Replay one full period and union the blocked sets.
        let end = cycle_entry_time + period;
        while engine.time() < cycle_entry_time {
            engine.advance(cycle_entry_time)?;
        }
        space_blocked_channels(&engine, &mut dependent);
        while engine.time() < end {
            engine.advance(end)?;
            space_blocked_channels(&engine, &mut dependent);
        }
    }
    Ok(dependent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_graph::{Rational, SdfGraph};

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    fn deps(g: &SdfGraph, caps: &[u64]) -> DependencyReport {
        throughput_with_dependencies(
            g,
            &StorageDistribution::from_capacities(caps.to_vec()),
            g.actor_by_name("c").unwrap(),
            ExplorationLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn saturated_distribution_has_dependencies() {
        let g = example();
        let r = deps(&g, &[4, 2]);
        assert_eq!(r.report.throughput, Rational::new(1, 7));
        // a is repeatedly blocked on α's space: α must be dependent.
        assert!(r.dependent[0], "α should carry a storage dependency");
        assert!(!r.dependent_channels().is_empty());
    }

    #[test]
    fn maximal_distribution_blocks_only_the_source() {
        // Even at maximal throughput the source a (rate 2 per step) outruns
        // b (rate 1.5 per step), so α eventually back-pressures a: the
        // dependency notion deliberately reports it. β, in balance, never
        // fills and must not be reported.
        let g = example();
        let r = deps(&g, &[20, 20]);
        assert_eq!(r.report.throughput, Rational::new(1, 4));
        assert_eq!(r.dependent, vec![true, false]);
    }

    #[test]
    fn deadlock_reports_blocking_channel() {
        let g = example();
        // α capacity 3 < production needs: a (token-free inputs) is blocked
        // on α forever.
        let r = deps(&g, &[3, 2]);
        assert!(r.report.deadlocked);
        assert!(r.dependent[0]);
    }

    #[test]
    fn growing_dependent_channels_reaches_the_maximum() {
        // From ⟨4,2⟩ the throughput 1/7 can be improved; below the maximal
        // throughput the dependent set is never empty, and growing every
        // dependent channel must eventually reach the maximum (this is the
        // soundness property the dependency-guided exploration relies on).
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let mut d = StorageDistribution::from_capacities(vec![4, 2]);
        let mut best = Rational::new(1, 7);
        for _ in 0..30 {
            let r = throughput_with_dependencies(&g, &d, c, ExplorationLimits::default()).unwrap();
            best = best.max(r.report.throughput);
            if best == Rational::new(1, 4) {
                break;
            }
            let deps = r.dependent_channels();
            assert!(!deps.is_empty(), "no dependencies but below max at {d}");
            for ch in deps {
                d = d.grown(ch, 1);
            }
        }
        assert_eq!(best, Rational::new(1, 4));
    }
}
