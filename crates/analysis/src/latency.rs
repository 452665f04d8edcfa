//! Latency analysis.
//!
//! The paper motivates its work with timing constraints "expressed as
//! throughput or latency constraints" (§1). This module measures the
//! latency side of a storage distribution: the time until the observed
//! actor produces its first result, and the spacing of its outputs in the
//! steady state (relevant for jitter-sensitive consumers such as the
//! display refresh of the paper's television example).

use crate::engine::Capacities;
use crate::error::AnalysisError;
use crate::state_space::{walk, Recurrence};
use crate::throughput::ExplorationLimits;
use buffy_graph::{ActorId, SdfGraph, StorageDistribution};

/// Latency metrics of the self-timed execution under one storage
/// distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyReport {
    /// Time at which the observed actor completes its first firing
    /// (`None` when the execution deadlocks before it ever fires).
    pub initial_latency: Option<u64>,
    /// Shortest gap between consecutive completions in the periodic phase
    /// (`None` on deadlock or when the actor fires at most once per
    /// period).
    pub min_output_interval: Option<u64>,
    /// Longest gap between consecutive completions in the periodic phase.
    pub max_output_interval: Option<u64>,
    /// Whether the execution deadlocks.
    pub deadlocked: bool,
}

impl LatencyReport {
    /// Output jitter: the difference between the longest and shortest
    /// inter-output gaps of the periodic phase (0 for perfectly regular
    /// output, `None` on deadlock).
    pub fn jitter(&self) -> Option<u64> {
        Some(self.max_output_interval? - self.min_output_interval?)
    }
}

/// Measures [`LatencyReport`] for `observed` under `dist`.
///
/// The periodic phase is identified exactly as in the throughput analysis
/// (first recurrence of the timed state); the output intervals are
/// measured over one full period.
///
/// # Errors
///
/// Same as [`crate::throughput::throughput`].
///
/// # Examples
///
/// ```
/// use buffy_analysis::{latency, ExplorationLimits};
/// use buffy_graph::{SdfGraph, StorageDistribution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
/// let r = latency(&g, &StorageDistribution::from_capacities(vec![4, 2]), c,
///                 ExplorationLimits::default())?;
/// assert_eq!(r.initial_latency, Some(9)); // c's first output at t = 9
/// assert_eq!(r.max_output_interval, Some(7)); // one output per period
/// # Ok(())
/// # }
/// ```
pub fn latency(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<LatencyReport, AnalysisError> {
    let mut completions: Vec<u64> = Vec::new();
    let recurrence = walk(
        graph,
        Capacities::from_distribution(dist),
        limits,
        |time, _, events| {
            for _ in events.completed.iter().filter(|&&(a, _)| a == observed) {
                completions.push(time);
            }
        },
    )?;
    let Some(Recurrence { entry, close: end }) = recurrence else {
        return Ok(LatencyReport {
            initial_latency: completions.first().copied(),
            min_output_interval: None,
            max_output_interval: None,
            deadlocked: true,
        });
    };

    // Completions within (entry, end] repeat with period end − entry.
    let period = end - entry;
    let periodic: Vec<u64> = completions
        .iter()
        .copied()
        .filter(|&t| t > entry && t <= end)
        .collect();
    let (mut min_gap, mut max_gap) = (None, None);
    if !periodic.is_empty() {
        // Wrap around the cycle: the gap from the last completion of one
        // period to the first of the next.
        let mut gaps = Vec::with_capacity(periodic.len());
        for w in periodic.windows(2) {
            gaps.push(w[1] - w[0]);
        }
        gaps.push(periodic[0] + period - periodic[periodic.len() - 1]);
        min_gap = gaps.iter().copied().min();
        max_gap = gaps.iter().copied().max();
    }

    Ok(LatencyReport {
        initial_latency: completions.first().copied(),
        min_output_interval: min_gap,
        max_output_interval: max_gap,
        deadlocked: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn example_latency_matches_trace() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let r = latency(
            &g,
            &StorageDistribution::from_capacities(vec![4, 2]),
            c,
            ExplorationLimits::default(),
        )
        .unwrap();
        assert_eq!(r.initial_latency, Some(9));
        assert_eq!(r.min_output_interval, Some(7));
        assert_eq!(r.max_output_interval, Some(7));
        assert_eq!(r.jitter(), Some(0));
        assert!(!r.deadlocked);
    }

    #[test]
    fn bigger_buffers_do_not_hurt_initial_latency_here() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let tight = latency(
            &g,
            &StorageDistribution::from_capacities(vec![4, 2]),
            c,
            ExplorationLimits::default(),
        )
        .unwrap();
        let roomy = latency(
            &g,
            &StorageDistribution::from_capacities(vec![7, 3]),
            c,
            ExplorationLimits::default(),
        )
        .unwrap();
        assert!(roomy.initial_latency <= tight.initial_latency);
    }

    #[test]
    fn deadlock_reported() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let r = latency(
            &g,
            &StorageDistribution::from_capacities(vec![4, 1]),
            c,
            ExplorationLimits::default(),
        )
        .unwrap();
        assert!(r.deadlocked);
        assert_eq!(r.initial_latency, None);
        assert_eq!(r.jitter(), None);
    }

    #[test]
    fn irregular_output_has_jitter() {
        // a (exec 1) produces 2 per firing; sink consumes 1 (exec 1) —
        // with capacity 2 the sink drains in bursts: intervals alternate.
        let mut b = SdfGraph::builder("burst");
        let s = b.actor("s", 2);
        let t = b.actor("t", 1);
        b.channel("ch", s, 2, t, 1).unwrap();
        let g = b.build().unwrap();
        let t_id = g.actor_by_name("t").unwrap();
        let r = latency(
            &g,
            &StorageDistribution::from_capacities(vec![2]),
            t_id,
            ExplorationLimits::default(),
        )
        .unwrap();
        assert!(!r.deadlocked);
        // Two outputs per period, back to back, then a refill gap.
        assert_eq!(r.min_output_interval, Some(1));
        assert!(r.max_output_interval.unwrap() > 1);
        assert!(r.jitter().unwrap() > 0);
    }

    #[test]
    fn multi_output_period_intervals_sum_to_period() {
        let g = example();
        let a = g.actor_by_name("a").unwrap();
        // a fires 3 times per 7-step period.
        let r = latency(
            &g,
            &StorageDistribution::from_capacities(vec![4, 2]),
            a,
            ExplorationLimits::default(),
        )
        .unwrap();
        assert!(r.min_output_interval.unwrap() >= 1);
        assert!(r.max_output_interval.unwrap() <= 7);
    }
}
