//! Storage-dependency detection by replay.
//!
//! A channel carries a *storage dependency* when, during the periodic phase
//! of the self-timed execution (or in the deadlock state), some actor is
//! idle and has all its input tokens but cannot start because that
//! channel's free space is insufficient. Growing any other channel cannot
//! raise the throughput; growing a dependent channel might. This is the
//! signal that drives the dependency-guided design-space exploration in
//! `buffy-core` — the pruning direction the paper's conclusions call for
//! (§11–12) and the refinement the authors later shipped in SDF3.
//!
//! The analysis collects the flags during its own cycle search
//! ([`throughput_analysis`](crate::throughput_analysis) with
//! `dependencies` set). [`dependencies_from_run_for`] derives the same set
//! a second way, by replaying the execution and rescanning every actor
//! after every advance; no exploration driver calls it.

use crate::engine::{Capacities, DataflowEngine, FiringOutcome};
use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, StorageDistribution};

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

/// Replays one self-timed execution to collect the storage-dependent
/// channels, given an already-computed throughput result (its
/// `deadlocked` flag, `cycle_entry_time` and `period`): a full rescan of
/// the actors after every advance over `[cycle_entry_time,
/// cycle_entry_time + period]`, or in the final state of a deadlock.
///
/// No exploration driver calls this: the analysis collects the same flags
/// during its cycle search. The replay is kept as the independent oracle
/// the differential tests compare those flags with, and for the
/// benchmark's per-layer replayer (`perfbench/replay`).
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
    use crate::throughput::{throughput_analysis, AnalysisRequest, AnalysisWorkspace};
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

    /// The fused analysis under `caps`, checked against the replay.
    fn deps(g: &SdfGraph, caps: &[u64]) -> (Rational, bool, Vec<bool>) {
        let dist = StorageDistribution::from_capacities(caps.to_vec());
        let request = AnalysisRequest {
            dependencies: true,
            ..AnalysisRequest::default()
        };
        let analysis = throughput_analysis(
            g,
            Capacities::from_distribution(&dist),
            g.actor_by_name("c").unwrap(),
            &request,
            &mut AnalysisWorkspace::new(),
        )
        .unwrap();
        let r = analysis.report;
        let flags = analysis.dependent.unwrap();
        let replayed =
            dependencies_from_run_for(g, &dist, r.deadlocked, r.cycle_entry_time, r.period)
                .unwrap();
        assert_eq!(
            flags, replayed,
            "{dist}: fused flags differ from the replay"
        );
        (r.throughput, r.deadlocked, flags)
    }

    #[test]
    fn saturated_distribution_has_dependencies() {
        let g = example();
        let (thr, _, flags) = deps(&g, &[4, 2]);
        assert_eq!(thr, Rational::new(1, 7));
        // a is repeatedly blocked on α's space: α must be dependent.
        assert!(flags[0], "α should carry a storage dependency");
    }

    #[test]
    fn maximal_distribution_blocks_only_the_source() {
        // Even at maximal throughput the source a (rate 2 per step) outruns
        // b (rate 1.5 per step), so α eventually back-pressures a: the
        // dependency notion deliberately reports it. β, in balance, never
        // fills and must not be reported.
        let g = example();
        let (thr, _, flags) = deps(&g, &[20, 20]);
        assert_eq!(thr, Rational::new(1, 4));
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn deadlock_reports_blocking_channel() {
        let g = example();
        // α capacity 3 < production needs: a (token-free inputs) is blocked
        // on α forever.
        let (_, deadlocked, flags) = deps(&g, &[3, 2]);
        assert!(deadlocked);
        assert!(flags[0]);
    }

    #[test]
    fn flags_cover_more_than_one_word_of_channels() {
        // A 70-channel pipeline whose slow sink back-pressures every
        // channel: the flag bitset spans two words. With capacity 1 the
        // sink's input is refilled only after it completes, so a sink
        // firing takes 3 + 1 time units.
        let mut b = SdfGraph::builder("pipeline");
        let actors: Vec<_> = (0..=70)
            .map(|i| b.actor(format!("a{i}"), if i == 70 { 3 } else { 1 }))
            .collect();
        for (i, pair) in actors.windows(2).enumerate() {
            b.channel(format!("c{i}"), pair[0], 1, pair[1], 1).unwrap();
        }
        let g = b.build().unwrap();
        let dist = StorageDistribution::from_capacities(vec![1; 70]);
        let request = AnalysisRequest {
            dependencies: true,
            ..AnalysisRequest::default()
        };
        let analysis = throughput_analysis(
            &g,
            Capacities::from_distribution(&dist),
            actors[70],
            &request,
            &mut AnalysisWorkspace::new(),
        )
        .unwrap();
        let r = analysis.report;
        assert_eq!(r.throughput, Rational::new(1, 4));
        let flags = analysis.dependent.unwrap();
        assert_eq!(
            flags,
            dependencies_from_run_for(&g, &dist, r.deadlocked, r.cycle_entry_time, r.period)
                .unwrap()
        );
        assert!(flags[64..].contains(&true), "{flags:?}");
    }

    #[test]
    fn growing_dependent_channels_reaches_the_maximum() {
        // From ⟨4,2⟩ the throughput 1/7 can be improved; below the maximal
        // throughput the dependent set is never empty, and growing every
        // dependent channel must eventually reach the maximum (this is the
        // soundness property the dependency-guided exploration relies on).
        let g = example();
        let mut caps = vec![4u64, 2];
        let mut best = Rational::new(1, 7);
        for _ in 0..30 {
            let (thr, _, flags) = deps(&g, &caps);
            best = best.max(thr);
            if best == Rational::new(1, 4) {
                break;
            }
            assert!(
                flags.contains(&true),
                "no dependencies but below max at {caps:?}"
            );
            for (cap, dependent) in caps.iter_mut().zip(flags) {
                *cap += u64::from(dependent);
            }
        }
        assert_eq!(best, Rational::new(1, 4));
    }
}
