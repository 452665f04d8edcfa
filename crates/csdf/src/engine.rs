//! Timed self-timed execution of CSDF graphs.
//!
//! The phased operational semantics live in the unified kernel:
//! [`buffy_analysis::DataflowEngine`] executes any
//! [`DataflowSemantics`](buffy_analysis::DataflowSemantics) model, and
//! [`CsdfGraph`](crate::CsdfGraph) implements that trait. An actor in
//! phase `k` may start a firing when it is idle, every input channel holds
//! at least `consumption[k]` tokens, and every output channel has room for
//! `production[k]` tokens (claimed at the start); tokens move at the end
//! of the firing and the actor advances to phase `(k+1) mod n`. Phases
//! with rate 0 neither require tokens nor space on that channel. The tests
//! below pin these rules on CSDF graphs.

#[cfg(test)]
mod tests {
    use crate::CsdfGraph;
    use buffy_analysis::{Capacities, DataflowEngine, FiringOutcome};
    use buffy_graph::{ActorId, StorageDistribution};

    /// Two-phase producer p: phase 0 produces 2 tokens (1 step), phase 1
    /// produces none (1 step). Consumer c consumes 1 per firing.
    fn updown() -> CsdfGraph {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        b.build().unwrap()
    }

    fn engine(g: &CsdfGraph, caps: Vec<u64>) -> DataflowEngine<'_, CsdfGraph> {
        let dist = StorageDistribution::from_capacities(caps);
        DataflowEngine::new(g, Capacities::from_distribution(&dist))
    }

    #[test]
    fn phases_cycle_and_rates_apply() {
        let g = updown();
        let mut e = engine(&g, vec![4]);
        e.start_initial().unwrap();
        assert_eq!(e.state().phase, vec![0, 0]);
        e.step().unwrap(); // p completes phase 0: +2 tokens; p enters phase 1; c starts
        assert_eq!(e.state().tokens, vec![2]);
        assert_eq!(e.state().phase[0], 1);
        e.step().unwrap(); // p completes phase 1 (no production); c completes (−1)
        assert_eq!(e.state().tokens, vec![1]);
        assert_eq!(e.state().phase[0], 0);
    }

    #[test]
    fn zero_rate_phase_needs_no_space() {
        // Capacity 2: phase 0 needs 2 free; phase 1 needs none, so it can
        // run even when the channel is full.
        let g = updown();
        let mut e = engine(&g, vec![2]);
        e.start_initial().unwrap();
        e.step().unwrap(); // tokens 2 (full); p starts phase 1 regardless
        assert_eq!(e.state().tokens, vec![2]);
        assert!(
            e.state().act_clk[0] > 0,
            "phase 1 must start despite full channel"
        );
    }

    #[test]
    fn deadlock_when_capacity_below_burst() {
        let g = updown();
        let mut e = engine(&g, vec![1]);
        e.start_initial().unwrap();
        // p's phase 0 needs 2 free spaces; c has no tokens: deadlock.
        assert_eq!(e.step().unwrap(), FiringOutcome::Deadlock);
    }

    #[test]
    fn zero_time_phase_completes_instantly() {
        let mut b = CsdfGraph::builder("z");
        let p = b.actor("p", vec![2, 0]); // second phase instantaneous
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![1, 1], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let mut e = engine(&g, vec![4]);
        e.start_initial().unwrap();
        e.step().unwrap();
        e.step().unwrap(); // phase 0 completes (+1); phase 1 fires instantly (+1)
        assert_eq!(e.state().tokens[0] + 1, 3); // one consumed start by c? tokens: 2 produced, c started but consumes at end
        assert_eq!(e.state().phase[0], 0); // back to phase 0
    }

    #[test]
    fn events_carry_phases() {
        let g = updown();
        let mut e = engine(&g, vec![4]);
        let ev = e.start_initial().unwrap();
        assert_eq!(ev.started, vec![(ActorId::new(0), 0)]);
        if let FiringOutcome::Progress(ev) = e.step().unwrap() {
            assert!(ev.completed.contains(&(ActorId::new(0), 0)));
            assert!(ev.started.contains(&(ActorId::new(0), 1)));
        } else {
            panic!("expected progress");
        }
    }

    #[test]
    fn wrapper_reports_graph_and_enabledness() {
        let g = updown();
        let e = engine(&g, vec![4]);
        assert_eq!(e.model().name(), "updown");
        assert!(e.is_enabled(ActorId::new(0)));
        assert!(!e.is_enabled(ActorId::new(1))); // no tokens yet
        assert_eq!(e.time(), 0);
    }
}
