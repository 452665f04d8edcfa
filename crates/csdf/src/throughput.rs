//! Throughput analysis of CSDF graphs via the reduced state space.
//!
//! The analysis is the unified kernel's [`buffy_analysis::throughput`],
//! which runs the reduced-state-space cycle detection of the paper (§7)
//! for any [`DataflowSemantics`](buffy_analysis::DataflowSemantics) model:
//! the bounded self-timed execution is deterministic and finite-state, so
//! it is periodic or deadlocks, and the throughput of the observed actor
//! is its number of *complete firings* (phase executions) on the cycle
//! divided by the cycle duration. Full phase cycles per time unit are that
//! figure divided by the actor's phase count. The tests below pin the
//! analysis on CSDF graphs.

#[cfg(test)]
mod tests {
    use crate::CsdfGraph;
    use buffy_analysis::{
        throughput, throughput_for, AnalysisError, Capacities, ExplorationLimits,
    };
    use buffy_graph::{Rational, SdfGraph, StorageDistribution};

    #[test]
    fn matches_sdf_on_single_phase_graphs() {
        // The paper's example embedded as single-phase CSDF must reproduce
        // every throughput value of the SDF analysis.
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        let sdf = b.build().unwrap();
        let csdf = CsdfGraph::from_sdf(&sdf);
        let c_sdf = sdf.actor_by_name("c").unwrap();
        let c_csdf = csdf.actor_by_name("c").unwrap();
        for caps in [[4u64, 2], [5, 2], [6, 2], [6, 3], [7, 3], [4, 1], [9, 9]] {
            let d = StorageDistribution::from_capacities(caps.to_vec());
            let s = throughput(&sdf, &d, c_sdf).unwrap();
            let r = throughput(&csdf, &d, c_csdf).unwrap();
            assert_eq!(s, r, "caps {caps:?}");
        }
    }

    #[test]
    fn bursty_producer_steady_state() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let c = g.actor_by_name("c").unwrap();
        // Ample capacity: c fires every step.
        let r = throughput(&g, &StorageDistribution::from_capacities(vec![4]), c).unwrap();
        assert_eq!(r.throughput, Rational::ONE);
        // Capacity 2: p can only refill after c drained both tokens —
        // throughput drops below 1.
        let r2 = throughput(&g, &StorageDistribution::from_capacities(vec![2]), c).unwrap();
        assert!(!r2.deadlocked);
        assert!(r2.throughput < Rational::ONE, "{}", r2.throughput);
        // Capacity 1: the burst of 2 never fits.
        let r3 = throughput(&g, &StorageDistribution::from_capacities(vec![1]), c).unwrap();
        assert!(r3.deadlocked);
    }

    #[test]
    fn observed_actor_with_phases_counts_phase_firings() {
        // Consumer with two phases consuming (1, 1): each of its phase
        // firings takes the token of one producer firing, so its phase
        // throughput equals the producer's firing rate — twice its cycle
        // throughput.
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1]);
        let c = b.actor("c", vec![1, 1]);
        b.channel("d", p, vec![1], c, vec![1, 1], 0).unwrap();
        let g = b.build().unwrap();
        let dist = StorageDistribution::from_capacities(vec![2]);
        let phase = throughput(&g, &dist, c).unwrap().throughput;
        assert!(phase > Rational::ZERO);
        assert_eq!(phase, throughput(&g, &dist, p).unwrap().throughput);
    }

    #[test]
    fn state_limit_enforced() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1]);
        let c = b.actor("c", vec![3]);
        b.channel("d", p, vec![1], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let c = g.actor_by_name("c").unwrap();
        let err = throughput_for(
            &g,
            Capacities::from_distribution(&StorageDistribution::from_capacities(vec![5])),
            c,
            ExplorationLimits {
                max_states: 1,
                max_steps: 2,
            },
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::StateLimitExceeded { .. }));
    }
}
