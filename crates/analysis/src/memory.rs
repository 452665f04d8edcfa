//! Shared-memory storage model.
//!
//! The paper's §3 distinguishes two ways of realizing channel storage: a
//! *separate memory per channel* (the model the paper and this crate's
//! exploration use — conservative, right for multi-processor systems) and
//! a *memory shared between all channels* (Murthy et al. \[MB00\] — natural
//! for single processors), where the requirement is the maximum number of
//! tokens alive *simultaneously*, and hybrids of the two.
//!
//! This module measures the shared-memory requirement of the self-timed
//! execution under a given per-channel distribution, enabling the
//! comparison the paper alludes to: the shared peak is never larger than
//! the distribution size, and the gap quantifies how much memory a
//! single-processor implementation could save.

use crate::engine::Capacities;
use crate::error::AnalysisError;
use crate::state_space::walk;
use crate::throughput::ExplorationLimits;
use buffy_graph::{SdfGraph, StorageDistribution};

/// Shared-memory usage of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemoryReport {
    /// Maximum total number of tokens stored across all channels at any
    /// time instant, over the transient and one full period (or up to the
    /// deadlock).
    pub peak_tokens: u64,
    /// Per-channel peak occupancies summed up — the capacity a *separate*
    /// memory implementation would need to not constrain this execution
    /// further.
    pub sum_of_channel_peaks: u64,
    /// Whether the execution deadlocks.
    pub deadlocked: bool,
}

/// Measures the shared-memory peak of the self-timed execution of `graph`
/// under the per-channel capacities `dist`.
///
/// # Errors
///
/// Same as [`crate::throughput::throughput`].
///
/// # Examples
///
/// ```
/// use buffy_analysis::{shared_memory_peak, ExplorationLimits};
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
/// let dist = StorageDistribution::from_capacities(vec![4, 2]);
/// let r = shared_memory_peak(&g, &dist, ExplorationLimits::default())?;
/// // A shared memory needs at most the distribution size …
/// assert!(r.peak_tokens <= dist.size());
/// // … and here strictly less: α and β are never simultaneously full.
/// assert!(r.peak_tokens < dist.size());
/// # Ok(())
/// # }
/// ```
pub fn shared_memory_peak(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    limits: ExplorationLimits,
) -> Result<SharedMemoryReport, AnalysisError> {
    // The states of the transient and one full period (or up to the
    // deadlock) are all the states the execution ever reaches.
    let mut peak: u64 = 0;
    let mut channel_peaks: Vec<u64> = vec![0; graph.num_channels()];
    let recurrence = walk(
        graph,
        Capacities::from_distribution(dist),
        limits,
        |_, state, _| {
            peak = peak.max(state.tokens.iter().sum());
            for (p, &t) in channel_peaks.iter_mut().zip(&state.tokens) {
                *p = (*p).max(t);
            }
        },
    )?;
    Ok(SharedMemoryReport {
        peak_tokens: peak,
        sum_of_channel_peaks: channel_peaks.iter().sum(),
        deadlocked: recurrence.is_none(),
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
    fn peak_bounded_by_distribution_size() {
        let g = example();
        for caps in [[4u64, 2], [6, 2], [7, 3], [10, 10]] {
            let d = StorageDistribution::from_capacities(caps.to_vec());
            let r = shared_memory_peak(&g, &d, ExplorationLimits::default()).unwrap();
            assert!(r.peak_tokens <= d.size(), "γ = {d}");
            assert!(r.peak_tokens <= r.sum_of_channel_peaks);
            assert!(r.sum_of_channel_peaks <= d.size());
            assert!(!r.deadlocked);
        }
    }

    #[test]
    fn shared_model_needs_less_on_example() {
        // α (4) and β (2) are never simultaneously full under ⟨4,2⟩: the
        // shared model saves memory, as §3 suggests for single processors.
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let r = shared_memory_peak(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(r.peak_tokens < 6, "peak {}", r.peak_tokens);
    }

    #[test]
    fn per_channel_peaks_are_reached() {
        // Under ⟨4,2⟩, α actually reaches its capacity (the source blocks
        // on it), so the sum of channel peaks equals 4 + its β peak.
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let r = shared_memory_peak(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(r.sum_of_channel_peaks >= 4);
    }

    #[test]
    fn deadlocked_execution_reports_prefix_peak() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 1]);
        let r = shared_memory_peak(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(r.deadlocked);
        assert!(r.peak_tokens >= 4); // α fills before the deadlock
    }

    #[test]
    fn initial_tokens_counted() {
        let mut b = SdfGraph::builder("init");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel_with_tokens("c", x, 1, y, 1, 3).unwrap();
        let g = b.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![4]);
        let r = shared_memory_peak(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(r.peak_tokens >= 3);
    }
}
