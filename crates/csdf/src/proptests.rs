//! Property-based tests of the CSDF analyses.
//!
//! Deterministic seeded-loop style: each property draws many random
//! two-actor producer/consumer graphs from the in-repo [`SplitMix64`]
//! stream and asserts the invariant on every case. The failing seed is
//! part of the assertion message, so a failure is reproducible directly.

#![cfg(test)]

use crate::model::CsdfGraph;
use buffy_analysis::{
    maximal_throughput, throughput_for, Capacities, DataflowEngine, ExplorationLimits,
    FiringOutcome, ThroughputReport,
};
use buffy_gen::SplitMix64;
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};

const CASES: u64 = 120;

/// A random two-actor producer/consumer CSDF graph with a consistent
/// channel (the consumer consumes a constant rate per phase, which always
/// balances) — `None` when the draw yields zero total production.
fn producer_consumer(rng: &mut SplitMix64) -> Option<CsdfGraph> {
    let phases = rng.range_usize(1, 4);
    let prod: Vec<u64> = (0..phases).map(|_| rng.range_u64(0, 3)).collect();
    let prod_times: Vec<u64> = (0..phases).map(|_| rng.range_u64(1, 3)).collect();
    let cons_phases = rng.range_usize(1, 3);
    let cons_times: Vec<u64> = (0..cons_phases).map(|_| rng.range_u64(1, 3)).collect();
    let scale = rng.range_u64(1, 3);
    let tokens = rng.range_u64(0, 4);

    if prod.iter().sum::<u64>() == 0 {
        return None;
    }
    let mut b = CsdfGraph::builder("pc");
    let p = b.actor("p", prod_times);
    let c = b.actor("c", cons_times);
    b.channel("d", p, prod, c, vec![scale; cons_phases], tokens)
        .ok()?;
    b.build().ok()
}

/// The kernel's throughput of `observed` under `dist`, within limits
/// small enough for a property loop; `None` when the analysis fails.
fn analyse(
    g: &CsdfGraph,
    dist: &StorageDistribution,
    observed: ActorId,
) -> Option<ThroughputReport> {
    let limits = ExplorationLimits {
        max_states: 1 << 14,
        max_steps: 1 << 20,
    };
    throughput_for(g, Capacities::from_distribution(dist), observed, limits).ok()
}

/// Throughput is monotone in the channel capacity.
#[test]
fn throughput_monotone_in_capacity() {
    let mut rng = SplitMix64::seed_from_u64(0xC5DF_0001);
    for seed in 0..CASES {
        let Some(g) = producer_consumer(&mut rng) else {
            continue;
        };
        let base = rng.range_u64(1, 7);
        let obs = g.default_observed_actor();
        let d0 = StorageDistribution::from_capacities(vec![base]);
        let d1 = d0.grown(ChannelId::new(0), 2);
        let (Some(r0), Some(r1)) = (analyse(&g, &d0, obs), analyse(&g, &d1, obs)) else {
            continue;
        };
        assert!(
            r1.throughput >= r0.throughput,
            "case {seed}: thr {} -> {} when growing capacity {} -> {}",
            r0.throughput,
            r1.throughput,
            base,
            base + 2
        );
    }
}

/// The simulated throughput never exceeds the HSDF/MCM bound.
#[test]
fn simulation_respects_maximal_throughput() {
    let mut rng = SplitMix64::seed_from_u64(0xC5DF_0002);
    for seed in 0..CASES {
        let Some(g) = producer_consumer(&mut rng) else {
            continue;
        };
        let cap = rng.range_u64(1, 11);
        let obs = g.default_observed_actor();
        let Ok(bound) = maximal_throughput(&g, obs) else {
            continue;
        };
        let d = StorageDistribution::from_capacities(vec![cap]);
        let Some(r) = analyse(&g, &d, obs) else {
            continue;
        };
        assert!(
            r.throughput <= bound,
            "case {seed}: thr {} > bound {}",
            r.throughput,
            bound
        );
    }
}

/// Token counts never go negative or exceed the capacity, and the phase
/// index stays in range (engine safety invariants).
#[test]
fn engine_invariants_hold() {
    let mut rng = SplitMix64::seed_from_u64(0xC5DF_0003);
    for seed in 0..CASES {
        let Some(g) = producer_consumer(&mut rng) else {
            continue;
        };
        let cap = rng.range_u64(1, 9);
        let steps = rng.range_u64(1, 59);
        let d = StorageDistribution::from_capacities(vec![cap]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        if e.start_initial().is_err() {
            continue;
        }
        for _ in 0..steps {
            match e.step() {
                Ok(FiringOutcome::Deadlock) => break,
                Ok(FiringOutcome::Progress(_)) => {}
                Err(_) => break,
            }
            let s = e.state();
            // The channel may start over-full; it never grows beyond the
            // larger of capacity and initial fill.
            let ch = g.channel(ChannelId::new(0));
            assert!(
                s.tokens[0] <= cap.max(ch.initial_tokens()),
                "case {seed}: {} tokens with capacity {cap}",
                s.tokens[0]
            );
            for (i, &ph) in s.phase.iter().enumerate() {
                assert!(
                    (ph as usize) < g.actor(ActorId::new(i)).num_phases(),
                    "case {seed}: phase {ph} out of range for actor {i}"
                );
            }
        }
    }
}

/// Deadlocked executions report zero throughput and vice versa.
#[test]
fn deadlock_iff_zero_throughput() {
    let mut rng = SplitMix64::seed_from_u64(0xC5DF_0004);
    for seed in 0..CASES {
        let Some(g) = producer_consumer(&mut rng) else {
            continue;
        };
        let cap = rng.range_u64(1, 9);
        let obs = g.default_observed_actor();
        let d = StorageDistribution::from_capacities(vec![cap]);
        let Some(r) = analyse(&g, &d, obs) else {
            continue;
        };
        assert_eq!(
            r.deadlocked,
            r.throughput == Rational::ZERO,
            "case {seed}: deadlocked={} but throughput={}",
            r.deadlocked,
            r.throughput
        );
    }
}
