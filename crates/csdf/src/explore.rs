//! Buffer/throughput exploration of CSDF graphs.
//!
//! The exploration is the unified kernel's: `buffy_core`'s
//! `explore_design_space` and `explore_dependency_guided` run for any
//! [`DataflowSemantics`](buffy_analysis::DataflowSemantics) model, and
//! [`CsdfGraph`](crate::CsdfGraph) answers its questions with phase-aware
//! channel bounds: capacities move in steps of the gcd of all the
//! channel's (non-zero) rates, and single-phase channels get the exact SDF
//! buffer minimum so that embedded SDF graphs explore exactly the SDF
//! grid. The tests below pin that behaviour on phased graphs.

#[cfg(test)]
mod tests {
    use crate::CsdfGraph;
    use buffy_analysis::{CancelToken, DataflowSemantics};
    use buffy_core::{explore_design_space, ExploreError, ExploreOptions};
    use buffy_graph::{GraphError, Rational};
    use std::sync::Arc;

    #[test]
    fn lower_bound_and_step() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![4, 2], c, vec![2], 3).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.channel_lower_bound(ch), 4);
        assert_eq!(g.channel_step(ch), 2);
    }

    #[test]
    fn single_phase_lower_bound_is_the_bmlb() {
        // An embedded SDF channel must use the exact SDF bound, not the
        // coarser max-burst bound, so the grids coincide.
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![2], c, vec![3], 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.channel_lower_bound(ch), 4); // 2+3−1
        assert_eq!(g.channel_step(ch), 1);
    }

    #[test]
    fn explore_updown() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        // The front is monotone and reaches throughput 1 (c every step).
        let pts = r.pareto.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].size < w[1].size && w[0].throughput < w[1].throughput);
        }
        assert_eq!(r.max_throughput, Rational::ONE);
        assert_eq!(pts.last().unwrap().throughput, Rational::ONE);
        // The smallest live capacity is 2 (the burst must fit).
        assert_eq!(pts[0].size, 2);
    }

    #[test]
    fn explore_matches_sdf_front_on_single_phase() {
        // Embedding the paper's example graph must reproduce its front
        // (6, 1/7), (8, 1/6), (9, 1/5), (10, 1/4).
        let mut b = buffy_graph::SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        let sdf = b.build().unwrap();
        let csdf = CsdfGraph::from_sdf(&sdf);
        let r = explore_design_space(&csdf, &ExploreOptions::default()).unwrap();
        let front: Vec<(u64, Rational)> = r
            .pareto
            .points()
            .iter()
            .map(|p| (p.size, p.throughput))
            .collect();
        assert_eq!(
            front,
            vec![
                (6, Rational::new(1, 7)),
                (8, Rational::new(1, 6)),
                (9, Rational::new(1, 5)),
                (10, Rational::new(1, 4)),
            ]
        );
    }

    #[test]
    fn inconsistent_graph_rejected() {
        let mut b = CsdfGraph::builder("bad");
        let x = b.actor("x", vec![1]);
        let y = b.actor("y", vec![1]);
        b.channel("f", x, vec![2], y, vec![1], 0).unwrap();
        b.channel("r", y, vec![1], x, vec![1], 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            explore_design_space(&g, &ExploreOptions::default()),
            Err(ExploreError::Graph(GraphError::Inconsistent { .. }))
        ));
    }

    #[test]
    fn phase_dependent_buffering_pays_off() {
        // Three-phase producer with a large burst in one phase: capacities
        // between the burst size and burst+cycle trade throughput.
        let mut b = CsdfGraph::builder("burst3");
        let p = b.actor("p", vec![1, 1, 1]);
        let c = b.actor("c", vec![2]);
        b.channel("d", p, vec![3, 0, 3], c, vec![2], 0).unwrap();
        let g = b.build().unwrap();
        let r = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert!(r.pareto.len() >= 2, "front: {:?}", r.pareto.points());
        assert!(r.max_throughput > Rational::ZERO);
    }

    #[test]
    fn eval_budget_degrades_to_a_sound_partial_front() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let exact = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        assert!(exact.completeness.exact);
        assert!(exact.skipped.is_empty() && exact.failures.is_empty());
        // Grant enough budget for the bounds phase but not the sweep.
        let budget = exact.stats.evaluations - 1;
        let options = ExploreOptions {
            cancel: Some(Arc::new(CancelToken::new().with_eval_budget(budget))),
            ..ExploreOptions::default()
        };
        match explore_design_space(&g, &options) {
            Ok(partial) => {
                assert!(!partial.completeness.exact);
                // Every surviving point is a genuinely evaluated point of
                // the exact front's domination region.
                for pt in partial.pareto.points() {
                    assert!(exact
                        .pareto
                        .points()
                        .iter()
                        .any(|e| e.size <= pt.size && e.throughput >= pt.throughput));
                }
            }
            // The budget can also fire inside the bounds phase, where
            // nothing is salvageable.
            Err(e) => assert!(matches!(e, ExploreError::Cancelled { .. })),
        }
    }

    #[test]
    fn threads_and_quantum_are_honored() {
        let mut b = CsdfGraph::builder("updown");
        let p = b.actor("p", vec![1, 1]);
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![2, 0], c, vec![1], 0).unwrap();
        let g = b.build().unwrap();
        let sequential = explore_design_space(&g, &ExploreOptions::default()).unwrap();
        let threaded = explore_design_space(
            &g,
            &ExploreOptions {
                threads: 4,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.pareto.points(), threaded.pareto.points());
        // Statistics are deterministic across thread counts.
        assert_eq!(sequential.stats, threaded.stats);
        // A coarse quantum collapses the front to at most a few points.
        let quantized = explore_design_space(
            &g,
            &ExploreOptions {
                quantum: Some(Rational::new(1, 2)),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(quantized.pareto.len() <= sequential.pareto.len());
        assert!(!quantized.pareto.is_empty());
    }
}
