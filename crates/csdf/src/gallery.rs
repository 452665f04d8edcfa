//! Small gallery of CSDF benchmark graphs used by examples, tests and
//! benches.

use crate::model::CsdfGraph;

/// A bursty two-phase producer feeding a unit-rate consumer: produces 2
/// tokens in its first phase and none in the second.
///
/// # Examples
///
/// The consumer can fire every step: the maximal throughput over all
/// storage distributions (from the homogeneous expansion) is 1, and the
/// kernel's throughput analysis reaches that bound under a capacity of 4.
///
/// ```
/// use buffy_analysis::{maximal_throughput, throughput};
/// use buffy_csdf::gallery;
/// use buffy_graph::{Rational, StorageDistribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = gallery::updown();
/// let c = g.actor_by_name("c").unwrap();
/// assert_eq!(maximal_throughput(&g, c)?, Rational::ONE);
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![4]), c)?;
/// assert_eq!(r.throughput, Rational::ONE); // c fires every step at steady state
/// # Ok(())
/// # }
/// ```
pub fn updown() -> CsdfGraph {
    let mut b = CsdfGraph::builder("updown");
    let p = b.actor("p", vec![1, 1]);
    let c = b.actor("c", vec![1]);
    b.channel("d", p, vec![2, 0], c, vec![1], 0)
        .expect("static graph");
    b.build().expect("static graph")
}

/// A line-based image scaler: per line it bursts 4 blocks, then 2, then is
/// silent while reading ahead; a filter consumes 2 blocks per firing and
/// streams pixels to a sink.
pub fn line_scaler() -> CsdfGraph {
    let mut b = CsdfGraph::builder("line-scaler");
    let scaler = b.actor("scaler", vec![1, 1, 2]);
    let filter = b.actor("filter", vec![1]);
    let sink = b.actor("sink", vec![1]);
    b.channel("blocks", scaler, vec![4, 2, 0], filter, vec![2], 0)
        .expect("static graph");
    b.channel("pixels", filter, vec![1], sink, vec![1], 0)
        .expect("static graph");
    b.build().expect("static graph")
}

/// A cyclo-static refinement of the H.263 decoder front end: the VLD
/// emits macroblock rows (6 phases of 99 blocks) instead of one
/// 594-block burst, exposing buffer savings SDF cannot express.
pub fn h263_rows() -> CsdfGraph {
    let mut b = CsdfGraph::builder("h263-rows");
    // Six row phases, roughly equal work per row.
    let vld = b.actor("vld", vec![44, 43, 43, 43, 43, 44]);
    let iq = b.actor("iq", vec![6]);
    let idct = b.actor("idct", vec![5]);
    let mc = b.actor("mc", vec![110]);
    b.channel("vld_iq", vld, vec![99; 6], iq, vec![1], 0)
        .expect("static graph");
    b.channel("iq_idct", iq, vec![1], idct, vec![1], 0)
        .expect("static graph");
    b.channel("idct_mc", idct, vec![1], mc, vec![594], 0)
        .expect("static graph");
    b.build().expect("static graph")
}

/// [`h263_rows`] with an actor power model (active/idle, dimensionless
/// energy per time step) for energy-aware exploration. Kept out of
/// [`all`] so the unannotated gallery stays byte-compatible; the figures
/// reflect the relative complexity of the decoder stages (motion
/// compensation dominates, the IDCT is cheap).
pub fn h263_rows_power() -> CsdfGraph {
    let mut b = CsdfGraph::builder("h263-rows-power");
    let vld = b
        .actor_with_power("vld", vec![44, 43, 43, 43, 43, 44], 30, 6)
        .expect("static graph");
    let iq = b
        .actor_with_power("iq", vec![6], 10, 2)
        .expect("static graph");
    let idct = b
        .actor_with_power("idct", vec![5], 8, 1)
        .expect("static graph");
    let mc = b
        .actor_with_power("mc", vec![110], 45, 9)
        .expect("static graph");
    b.channel("vld_iq", vld, vec![99; 6], iq, vec![1], 0)
        .expect("static graph");
    b.channel("iq_idct", iq, vec![1], idct, vec![1], 0)
        .expect("static graph");
    b.channel("idct_mc", idct, vec![1], mc, vec![594], 0)
        .expect("static graph");
    b.build().expect("static graph")
}

/// All gallery graphs.
pub fn all() -> Vec<CsdfGraph> {
    vec![updown(), line_scaler(), h263_rows()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_analysis::{maximal_throughput, DataflowSemantics};
    use buffy_core::{explore_design_space, ExploreOptions};
    use buffy_graph::{ActorId, Rational};

    #[test]
    fn gallery_is_consistent() {
        for g in all() {
            assert!(g.repetition_cycles().is_ok(), "{}", g.name());
        }
    }

    #[test]
    fn h263_rows_repetition() {
        let g = h263_rows();
        let q = g.repetition_cycles().unwrap();
        let vld = g.actor_by_name("vld").unwrap();
        let iq = g.actor_by_name("iq").unwrap();
        let firings = |a: ActorId| q[a.index()] * u64::from(g.num_phases(a));
        assert_eq!(q[vld.index()], 1);
        assert_eq!(firings(vld), 6);
        assert_eq!(firings(iq), 594);
    }

    #[test]
    fn gallery_explores() {
        for g in [updown(), line_scaler()] {
            let r = explore_design_space(&g, &ExploreOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            assert!(!r.pareto.is_empty(), "{}", g.name());
            let obs = g.default_observed_actor();
            let bound = maximal_throughput(&g, obs).unwrap();
            assert_eq!(
                r.pareto.maximal().unwrap().throughput,
                bound,
                "{}",
                g.name()
            );
            assert!(bound > Rational::ZERO);
        }
    }

    #[test]
    fn power_variant_mirrors_the_unannotated_topology() {
        let base = h263_rows();
        let powered = h263_rows_power();
        assert!(powered.repetition_cycles().is_ok());
        assert_eq!(powered.num_actors(), base.num_actors());
        assert_eq!(powered.num_channels(), base.num_channels());
        for (id, a) in base.actors() {
            assert_eq!(powered.actor(id).phase_times(), a.phase_times());
        }
        let mc = powered.actor_by_name("mc").unwrap();
        assert_eq!(powered.actor(mc).active_power(), 45);
        assert_eq!(powered.actor(mc).idle_power(), 9);
    }

    #[test]
    fn row_based_vld_smooths_the_burst() {
        // The row-phased VLD needs a visibly smaller first buffer than the
        // 594-token burst of the SDF model to achieve any throughput:
        // 99 (one row) vs 594.
        let g = h263_rows();
        let ch = g.channel_by_name("vld_iq").unwrap();
        assert_eq!(DataflowSemantics::channel_lower_bound(&g, ch), 99);
    }
}
