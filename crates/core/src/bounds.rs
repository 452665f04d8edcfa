//! Bounds on the storage/throughput design space (paper §8, Fig. 7).
//!
//! Three bounds box the space the exploration must search:
//!
//! - a **per-channel lower bound** on the capacity needed for any positive
//!   throughput (the classical BMLB bound of \[ALP97\]/\[Mur96\]):
//!   `p + c − gcd(p,c) + (d mod gcd(p,c))`, or `d` when the initial tokens
//!   alone exceed that;
//! - their sum, the **combined lower bound** `lb` on the distribution size;
//! - an **upper bound** `ub`: the size of a distribution realizing the
//!   maximal achievable throughput (the role \[GGD02\] plays in the paper).
//!   Larger distributions can never improve throughput further.
//!
//! Capacities only matter in steps of `gcd(p, c)`
//! ([`DataflowSemantics::channel_step`]): the
//! token count of a channel is always congruent to `d` modulo that gcd, so
//! intermediate capacities behave identically to the next-lower step.
//!
//! Both bounds are computed through the unified kernel:
//! [`lower_bound_distribution`] and [`upper_bound_distribution`] only ask
//! a model the [`DataflowSemantics`] questions, so the same code boxes the
//! SDF and CSDF design spaces.
//!
//! # The upper bound from peak occupancies
//!
//! The `ub` search grows a distribution until it reaches the maximal
//! throughput, then shrinks one channel at a time to its per-channel
//! minimum by binary search over the channel's capacity steps. Each bound
//! probe also records every channel's *peak occupancy*: the largest
//! `tokens + claimed production` at any start of the channel's producer,
//! and at least its initial tokens
//! ([`ThroughputAnalysis::peaks`](buffy_analysis::ThroughputAnalysis::peaks)).
//!
//! *Peak lemma.* Lowering a channel's capacity to any value no smaller
//! than its peak changes no firing: every start that happened still fits,
//! and a smaller capacity enables no start that was blocked. So the
//! capacity `max(peak, lower bound)`, rounded up to the step grid, keeps
//! the maximal throughput, and by capacity monotonicity the minimum the
//! binary search looks for lies at or below it. Each channel's search
//! therefore starts there instead of at the grown capacity. The predicate
//! it bisects (the other channels held at their current capacities) is
//! the same as before, and so is its smallest true point: the `ub`
//! distribution is the one the search from the grown capacities finds,
//! with fewer probes.
//!
//! *Refusal lemma.* The peak is the lower face of the analysis's
//! capacity box; the upper face is each channel's smallest refused claim
//! ([`ThroughputAnalysis::refused`](buffy_analysis::ThroughputAnalysis::refused)):
//! the smallest `tokens + production` an idle actor holding its input
//! tokens lacked the space for, with the channel as its first short
//! output. Raising the capacity to anything below it changes no firing
//! either: that output still refuses. Every distribution inside the box
//! therefore runs exactly like the probe, which is how the exhaustive
//! pipeline answers later candidates, bound probes included, without
//! simulating them.
//!
//! The peaks belong to the current distribution. They come from the
//! probe that produced it, or are kept when a search made no successful
//! probe and only lowered its channel to the start value (the same
//! execution, so the same peaks). A checkpoint-replayed probe carries
//! none: the search fetches them from one uncounted, cancellable analysis,
//! and only when a channel can still shrink (its capacity lies above its
//! lower bound).

use crate::error::ExploreError;
use buffy_analysis::{
    maximal_throughput, throughput_analysis, AnalysisRequest, AnalysisWorkspace, Capacities,
    DataflowSemantics, ExplorationLimits,
};
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use std::sync::Arc;

/// The distribution assigning every channel its lower bound
/// ([`DataflowSemantics::channel_lower_bound`], the BMLB of
/// \[ALP97\]/\[Mur96\] for SDF); its size is the combined lower bound `lb`
/// of Fig. 7.
///
/// ```
/// # use buffy_graph::SdfGraph;
/// # use buffy_core::lower_bound_distribution;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
/// // α: p + c − gcd = 2 + 3 − 1 = 4, β: 1 + 2 − 1 = 2 — the paper's
/// // smallest positive-throughput distribution ⟨4, 2⟩.
/// assert_eq!(lower_bound_distribution(&g).as_slice(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
pub fn lower_bound_distribution<M: DataflowSemantics>(model: &M) -> StorageDistribution {
    (0..model.num_channels())
        .map(|i| model.channel_lower_bound(ChannelId::new(i)))
        .collect()
}

/// A distribution realizing the maximal achievable throughput of
/// `observed`, found by growing from the lower bounds and then shrinking
/// channel-by-channel, each channel's binary search starting at its peak
/// occupancy in the current distribution's execution; its size is the
/// `ub` of Fig. 7.
///
/// The result is per-channel minimal (no single channel can shrink further
/// without losing throughput) but not necessarily size-minimal — the exact
/// minimum is what the design-space exploration itself determines.
///
/// # Errors
///
/// Propagates analysis failures; [`ExploreError::NoPositiveThroughput`] if
/// growth never reaches the maximal throughput within a generous cap.
pub fn upper_bound_distribution<M: DataflowSemantics>(
    model: &M,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<(StorageDistribution, Rational), ExploreError> {
    let probe = |dist: &StorageDistribution| -> Result<Probe, ExploreError> {
        let request = AnalysisRequest {
            limits,
            peaks: true,
            ..AnalysisRequest::default()
        };
        let analysis = throughput_analysis(
            model,
            Capacities::from_distribution(dist),
            observed,
            &request,
            &mut AnalysisWorkspace::new(),
        )?;
        Ok((analysis.report.throughput, analysis.peaks.map(Arc::from)))
    };
    // Every probe here records its peaks, so none is ever missing.
    upper_bound_distribution_with(model, observed, &probe, &|_| Ok(None))
}

/// Each channel's peak occupancy, when an analysis recorded it.
pub(crate) type Peaks = Option<Arc<[u64]>>;

/// One bound probe's answer: the throughput and the peaks.
pub(crate) type Probe = (Rational, Peaks);

/// [`upper_bound_distribution`] with the analyses routed through the
/// caller: `probe` answers every bound probe (the exploration drivers pass
/// their memoized pipeline, so that bound probes are cached, counted in
/// the [`crate::ExplorationStats`] and reported to the
/// [`crate::ExploreObserver`]), and `peaks` supplies the peak occupancies
/// of a probed distribution whose answer came without them.
pub(crate) fn upper_bound_distribution_with<M: DataflowSemantics>(
    model: &M,
    observed: ActorId,
    probe: &dyn Fn(&StorageDistribution) -> Result<Probe, ExploreError>,
    peaks: &dyn Fn(&StorageDistribution) -> Result<Peaks, ExploreError>,
) -> Result<(StorageDistribution, Rational), ExploreError> {
    let q = model.repetition_cycles()?;
    let thr_max = maximal_throughput(model, observed)?;

    // Start from a heuristic: room for one full iteration of productions
    // and consumptions plus initial tokens, at least the lower bound.
    let mut dist: StorageDistribution = (0..model.num_channels())
        .map(|i| {
            let cid = ChannelId::new(i);
            let iter_room = model.initial_tokens(cid)
                + model.cycle_production(cid) * q[model.channel_source(cid).index()]
                + model.cycle_consumption(cid) * q[model.channel_target(cid).index()];
            iter_room.max(model.channel_lower_bound(cid))
        })
        .collect();

    // Grow until the maximal throughput is reached (monotonicity
    // guarantees this terminates at some finite size).
    let mut guard = 0;
    // The peak occupancies of `dist`'s execution, when known.
    let mut dist_peaks = loop {
        let (throughput, peaks) = probe(&dist)?;
        if throughput == thr_max {
            break peaks;
        }
        dist = dist.as_slice().iter().map(|&c| c * 2).collect();
        guard += 1;
        if guard > 64 {
            return Err(ExploreError::NoPositiveThroughput);
        }
    };

    // Shrink each channel in turn to its per-channel minimum (binary
    // search over capacity steps, holding the other channels fixed).
    for i in 0..model.num_channels() {
        let cid = ChannelId::new(i);
        let step = model.channel_step(cid);
        let lo_cap = model.channel_lower_bound(cid);
        let cap = dist.get(cid);
        // In steps above `lo_cap`: `lo` may lose the maximal throughput,
        // `hi` keeps it. `hi` starts at the capacity rounded up to the step
        // grid (monotonicity: rounding up keeps the maximal throughput), or
        // at the peak when that is lower (the peak lemma).
        let mut lo = 0u64;
        let mut hi = (cap - lo_cap).div_ceil(step);
        if hi > 0 {
            if dist_peaks.is_none() {
                dist_peaks = peaks(&dist)?;
            }
            if let Some(p) = &dist_peaks {
                hi = hi.min((p[i].max(lo_cap) - lo_cap).div_ceil(step));
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = dist.clone();
            candidate.set(cid, lo_cap + mid * step);
            let (throughput, peaks) = probe(&candidate)?;
            if throughput == thr_max {
                hi = mid;
                // The candidate's capacity is the one `dist` takes below,
                // unless a later probe lowers `hi` again.
                dist_peaks = peaks;
            } else {
                lo = mid + 1;
            }
        }
        let shrunk = lo_cap + hi * step;
        if shrunk > cap {
            // Rounding an off-grid capacity up may change the execution;
            // lowering a capacity to no less than its peak does not.
            dist_peaks = None;
        }
        dist.set(cid, shrunk);
    }

    Ok((dist, thr_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffy_analysis::throughput;
    use buffy_graph::SdfGraph;

    fn example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example_lower_bounds() {
        let g = example();
        let lb = lower_bound_distribution(&g);
        // α: 2+3−1 = 4; β: 1+2−1 = 2 — the paper's ⟨4, 2⟩.
        assert_eq!(lb.as_slice(), &[4, 2]);
        assert_eq!(lb.size(), 6);
    }

    #[test]
    fn lower_bound_respects_initial_tokens() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        // gcd(4,6) = 2; d = 3 → bound 4+6−2 + (3 mod 2) = 9.
        b.channel_with_tokens("c1", x, 4, y, 6, 3).unwrap();
        // Initial tokens dominate: d = 50 > p+c−g.
        b.channel_with_tokens("c2", x, 4, y, 6, 50).unwrap();
        let g = b.build().unwrap();
        let lb = lower_bound_distribution(&g);
        assert_eq!(lb.as_slice(), &[9, 50]);
    }

    #[test]
    fn channel_steps() {
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c1", x, 4, y, 6).unwrap();
        b.channel("c2", x, 1, y, 5).unwrap();
        let g = b.build().unwrap();
        let steps: Vec<u64> = g.channels().map(|(id, _)| g.channel_step(id)).collect();
        assert_eq!(steps, vec![2, 1]);
    }

    #[test]
    fn capacities_between_steps_are_equivalent() {
        // With rates 4:6 every reachable token count is even; capacities 9
        // (= lb) and 10 must behave identically.
        let mut b = SdfGraph::builder("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 3);
        b.channel("c", x, 4, y, 6).unwrap();
        let g = b.build().unwrap();
        let y = g.actor_by_name("y").unwrap();
        let t9 = throughput(&g, &StorageDistribution::from_capacities(vec![10]), y).unwrap();
        let t10 = throughput(&g, &StorageDistribution::from_capacities(vec![11]), y).unwrap();
        assert_eq!(t9.throughput, t10.throughput);
    }

    #[test]
    fn upper_bound_reaches_maximal_throughput() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let (ub, thr_max) = upper_bound_distribution(&g, c, ExplorationLimits::default()).unwrap();
        assert_eq!(thr_max, Rational::new(1, 4));
        let r = throughput(&g, &ub, c).unwrap();
        assert_eq!(r.throughput, thr_max);
        // Per-channel minimal: shrinking any single channel by its step
        // loses the maximal throughput.
        for (cid, ch) in g.channels() {
            let step = g.channel_step(cid);
            if ub.get(cid) < g.channel_lower_bound(cid) + step {
                continue;
            }
            let mut probe = ub.clone();
            probe.set(cid, ub.get(cid) - step);
            let r = throughput(&g, &probe, c).unwrap();
            assert!(r.throughput < thr_max, "channel {} not minimal", ch.name());
        }
        // The paper: maximal throughput is reached at distribution size 10.
        // The per-channel-minimal ub may be slightly larger than the global
        // optimum, but never smaller.
        assert!(ub.size() >= 10);
    }

    #[test]
    fn lower_bound_distribution_of_example_is_live() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let lb = lower_bound_distribution(&g);
        let r = throughput(&g, &lb, c).unwrap();
        assert!(!r.deadlocked);
    }
}
