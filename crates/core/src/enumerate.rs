//! Enumeration of storage distributions of a given size.
//!
//! The paper's exploration must, for a given distribution size, search "all
//! possible storage distributions of the given size … till one is found"
//! meeting the desired throughput (§9). This module enumerates exactly the
//! distributions worth checking: every channel starts at its positive-
//! throughput lower bound and grows in steps of `gcd(production,
//! consumption)` — intermediate capacities are behaviourally equivalent
//! (see [`DataflowSemantics::channel_step`]).

use buffy_analysis::DataflowSemantics;
use buffy_graph::{ChannelId, StorageDistribution};
use core::ops::ControlFlow;

/// The grid of meaningful storage distributions of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionSpace {
    mins: Vec<u64>,
    steps: Vec<u64>,
    maxs: Option<Vec<u64>>,
}

impl DistributionSpace {
    /// Builds the grid for any [`DataflowSemantics`] model from its
    /// declared per-channel lower bounds and step sizes.
    pub fn for_model<M: DataflowSemantics>(model: &M) -> DistributionSpace {
        let channels = 0..model.num_channels();
        DistributionSpace {
            mins: channels
                .clone()
                .map(|i| model.channel_lower_bound(ChannelId::new(i)))
                .collect(),
            steps: channels
                .map(|i| model.channel_step(ChannelId::new(i)))
                .collect(),
            maxs: None,
        }
    }

    /// A space with explicit minimums and steps (for tests and custom
    /// constraints, e.g. pinning a channel's capacity).
    pub fn with_grid(mins: Vec<u64>, steps: Vec<u64>) -> DistributionSpace {
        assert_eq!(mins.len(), steps.len());
        assert!(steps.iter().all(|&s| s > 0), "steps must be positive");
        DistributionSpace {
            mins,
            steps,
            maxs: None,
        }
    }

    /// Restricts every channel to at most the capacity given by `caps`
    /// (the paper's §8: distributed memories impose "extra constraints on
    /// the channel capacities"). Capacities below a channel's lower bound
    /// make the space empty for that channel's sizes.
    pub fn with_max_capacities(mut self, caps: &StorageDistribution) -> DistributionSpace {
        assert_eq!(caps.len(), self.mins.len());
        self.maxs = Some(caps.as_slice().to_vec());
        self
    }

    /// The per-channel maximum capacity, if constrained.
    pub fn max_of(&self, channel: usize) -> Option<u64> {
        self.maxs.as_ref().map(|m| m[channel])
    }

    /// The capacity step of `channel`.
    pub(crate) fn step_of(&self, channel: usize) -> u64 {
        self.steps[channel]
    }

    /// The smallest distribution size on the grid (every channel at its
    /// lower bound) — the combined lower bound `lb` of the paper's Fig. 7.
    pub fn min_size(&self) -> u64 {
        self.mins.iter().sum()
    }

    /// The distribution with every channel at its minimum.
    pub fn min_distribution(&self) -> StorageDistribution {
        self.mins.iter().copied().collect()
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// Whether the space covers no channels.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Calls `f` for every grid distribution of exactly `size` tokens.
    /// Stops early when `f` returns [`ControlFlow::Break`]; the return
    /// value tells whether enumeration ran to completion.
    ///
    /// Distributions are produced in lexicographic order of the extra
    /// capacity given to each channel.
    pub fn for_each_of_size(
        &self,
        size: u64,
        mut f: impl FnMut(StorageDistribution) -> ControlFlow<()>,
    ) -> bool {
        let n = self.len();
        if n == 0 || size < self.min_size() {
            return true;
        }
        let budget = size - self.min_size();
        // Depth-first over channels; channel i receives extra[i] = k·step.
        let mut caps = self.mins.clone();
        self.rec(0, budget, &mut caps, &mut f).is_continue()
    }

    fn rec(
        &self,
        i: usize,
        budget: u64,
        caps: &mut Vec<u64>,
        f: &mut impl FnMut(StorageDistribution) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let n = self.len();
        let cap_limit = |i: usize| self.max_of(i).unwrap_or(u64::MAX);
        if i == n - 1 {
            // Last channel absorbs the remaining budget, if on-grid and
            // within its capacity constraint.
            if budget.is_multiple_of(self.steps[i]) && self.mins[i] + budget <= cap_limit(i) {
                caps[i] = self.mins[i] + budget;
                let d = StorageDistribution::from_capacities(caps.clone());
                caps[i] = self.mins[i];
                return f(d);
            }
            return ControlFlow::Continue(());
        }
        let mut extra = 0;
        while extra <= budget && self.mins[i] + extra <= cap_limit(i) {
            caps[i] = self.mins[i] + extra;
            self.rec(i + 1, budget - extra, caps, f)?;
            extra += self.steps[i];
        }
        caps[i] = self.mins[i];
        ControlFlow::Continue(())
    }

    /// Whether at least one grid distribution has exactly `size` tokens.
    ///
    /// Not every size in `[min_size, ub]` is realizable: channel
    /// capacities move in per-channel steps, so e.g. with two channels of
    /// step 2 only every other size holds distributions. Size-dimension
    /// searches must probe realizable sizes only — a hole would make a
    /// monotone feasibility predicate appear false and cut off genuine
    /// Pareto points below it.
    pub fn contains_size(&self, size: u64) -> bool {
        let mut any = false;
        self.for_each_of_size(size, |_| {
            any = true;
            ControlFlow::Break(())
        });
        any
    }

    /// Whether `dist` is a grid point of this space: every channel at its
    /// minimum plus whole steps, and within its ceiling when one is set.
    pub(crate) fn contains(&self, dist: &StorageDistribution) -> bool {
        dist.len() == self.mins.len()
            && dist.as_slice().iter().enumerate().all(|(i, &cap)| {
                cap >= self.mins[i]
                    && (cap - self.mins[i]).is_multiple_of(self.steps[i])
                    && self.max_of(i).is_none_or(|max| cap <= max)
            })
    }

    /// The realizable grid sizes in `lo..=hi`, ascending. Sizes whose
    /// budget over [`min_size`](Self::min_size) is not a multiple of the
    /// gcd of all channel steps are skipped without enumeration.
    pub fn sizes_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let min = self.min_size();
        let g = self
            .steps
            .iter()
            .fold(0u64, |acc, &s| buffy_graph::gcd_u64(acc, s))
            .max(1);
        (lo.max(min)..=hi)
            .filter(|&s| (s - min).is_multiple_of(g) && self.contains_size(s))
            .collect()
    }

    /// Collects every grid distribution of exactly `size` tokens.
    pub fn all_of_size(&self, size: u64) -> Vec<StorageDistribution> {
        let mut out = Vec::new();
        self.for_each_of_size(size, |d| {
            out.push(d);
            ControlFlow::Continue(())
        });
        out
    }

    /// Number of grid distributions of exactly `size` tokens.
    pub fn count_of_size(&self, size: u64) -> u64 {
        let mut count = 0;
        self.for_each_of_size(size, |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }

    /// Like [`count_of_size`](Self::count_of_size), but stops counting at
    /// `cap` — annotating the skipped part of a truncated search must not
    /// itself enumerate an exploding space.
    pub fn count_of_size_capped(&self, size: u64, cap: u64) -> u64 {
        let mut count = 0;
        self.for_each_of_size(size, |_| {
            count += 1;
            if count >= cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        count
    }

    /// Total number of grid distributions across every realizable size in
    /// `lo..=hi`, or `None` once the running total reaches `cap`.
    ///
    /// Progress reporting wants "percent of the realizable space covered",
    /// which needs the denominator exactly once up front; the cap keeps
    /// that pre-pass cheap on exploding spaces (a capped-out space simply
    /// reports no percentage).
    pub fn count_in_capped(&self, lo: u64, hi: u64, cap: u64) -> Option<u64> {
        let mut total: u64 = 0;
        for size in self.sizes_in(lo, hi) {
            total += self.count_of_size_capped(size, cap.saturating_sub(total));
            if total >= cap {
                return None;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_space() -> DistributionSpace {
        // The paper's example: mins ⟨4, 2⟩, steps ⟨1, 1⟩.
        DistributionSpace::with_grid(vec![4, 2], vec![1, 1])
    }

    #[test]
    fn from_graph_matches_bounds() {
        let mut b = SdfGraph::builder("example");
        let a = b.actor("a", 1);
        let bb = b.actor("b", 2);
        let c = b.actor("c", 2);
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        let g = b.build().unwrap();
        let s = DistributionSpace::for_model(&g);
        assert_eq!(s, example_space());
        assert_eq!(s.min_size(), 6);
        assert_eq!(s.min_distribution().as_slice(), &[4, 2]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn enumerates_exact_size() {
        let s = example_space();
        let all = s.all_of_size(8);
        assert_eq!(all.len(), 3);
        let as_vecs: Vec<&[u64]> = all.iter().map(|d| d.as_slice()).collect();
        assert_eq!(as_vecs, vec![&[4, 4][..], &[5, 3][..], &[6, 2][..]]);
        assert!(all.iter().all(|d| d.size() == 8));
    }

    #[test]
    fn sizes_below_minimum_are_empty() {
        let s = example_space();
        assert_eq!(s.count_of_size(5), 0);
        assert_eq!(s.count_of_size(6), 1);
    }

    #[test]
    fn count_in_capped_totals_and_caps() {
        let s = example_space();
        // Sizes 6..=8 hold 1 + 2 + 3 distributions.
        assert_eq!(s.count_in_capped(6, 8, 1000), Some(6));
        // Range clamps to the realizable minimum.
        assert_eq!(s.count_in_capped(0, 6, 1000), Some(1));
        // Hitting the cap means "too many to count".
        assert_eq!(s.count_in_capped(6, 8, 6), None);
        assert_eq!(s.count_in_capped(6, 8, 3), None);
    }

    #[test]
    fn step_grids_respected() {
        // Channel 0: min 4, step 2; channel 1: min 1, step 3.
        let s = DistributionSpace::with_grid(vec![4, 1], vec![2, 3]);
        // size 9: budget 4 → (0,4)? 4 not mult of 3; (2,2)? no; (4,0) ✓.
        let all = s.all_of_size(9);
        let as_vecs: Vec<&[u64]> = all.iter().map(|d| d.as_slice()).collect();
        assert_eq!(as_vecs, vec![&[8, 1][..]]);
        // size 11: budget 6 → (0,6) ✓, (2,4)✗, (4,2)✗, (6,0) ✓.
        assert_eq!(s.count_of_size(11), 2);
    }

    #[test]
    fn early_exit_works() {
        let s = example_space();
        let mut seen = 0;
        let completed = s.for_each_of_size(10, |_| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(!completed);
        assert_eq!(seen, 2);
        // Without early exit, size 10 has 5 grid points (⟨4,6⟩…⟨8,2⟩).
        assert_eq!(s.count_of_size(10), 5);
    }

    #[test]
    fn counts_grow_with_size() {
        let s = example_space();
        for size in 6..12 {
            assert_eq!(s.count_of_size(size), size - 5);
        }
    }

    #[test]
    fn capped_counts_saturate_at_the_cap() {
        let s = example_space();
        // Size 10 has 5 grid points.
        assert_eq!(s.count_of_size_capped(10, 3), 3);
        assert_eq!(s.count_of_size_capped(10, 5), 5);
        assert_eq!(s.count_of_size_capped(10, 100), 5);
        assert_eq!(s.count_of_size_capped(5, 100), 0);
    }

    #[test]
    fn single_channel_space() {
        let s = DistributionSpace::with_grid(vec![3], vec![2]);
        assert_eq!(s.count_of_size(3), 1);
        assert_eq!(s.count_of_size(4), 0);
        assert_eq!(s.count_of_size(5), 1);
        assert_eq!(s.all_of_size(7)[0].as_slice(), &[7]);
    }

    #[test]
    fn contains_size_reflects_the_grid() {
        // Both channels step by 2: only even budgets are realizable.
        let s = DistributionSpace::with_grid(vec![4, 2], vec![2, 2]);
        assert!(!s.contains_size(5));
        assert!(s.contains_size(6));
        assert!(!s.contains_size(7));
        assert!(s.contains_size(8));
    }

    #[test]
    fn sizes_in_lists_only_realizable_sizes() {
        let s = DistributionSpace::with_grid(vec![4, 2], vec![2, 2]);
        assert_eq!(s.sizes_in(0, 12), vec![6, 8, 10, 12]);
        assert_eq!(s.sizes_in(7, 11), vec![8, 10]);
        assert_eq!(s.sizes_in(13, 5), Vec::<u64>::new());
        // Mixed steps gcd 1, but individual sizes can still be holes:
        // min 4 step 2 and min 1 step 3 → size 6 needs budget 1, which
        // neither (2k) nor (3m) nor a 2k+3m sum can reach.
        let t = DistributionSpace::with_grid(vec![4, 1], vec![2, 3]);
        assert_eq!(t.sizes_in(5, 10), vec![5, 7, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let _ = DistributionSpace::with_grid(vec![1], vec![0]);
    }

    #[test]
    fn max_capacities_prune_enumeration() {
        let s = example_space()
            .with_max_capacities(&StorageDistribution::from_capacities(vec![5, 100]));
        // Size 8 normally has ⟨4,4⟩, ⟨5,3⟩, ⟨6,2⟩; the α ≤ 5 cap removes
        // the last one.
        let all = s.all_of_size(8);
        let as_vecs: Vec<&[u64]> = all.iter().map(|d| d.as_slice()).collect();
        assert_eq!(as_vecs, vec![&[4, 4][..], &[5, 3][..]]);
        assert_eq!(s.max_of(0), Some(5));
        assert_eq!(s.max_of(1), Some(100));
        assert_eq!(example_space().max_of(0), None);
    }

    #[test]
    fn cap_below_minimum_empties_the_space() {
        let s = example_space()
            .with_max_capacities(&StorageDistribution::from_capacities(vec![3, 100]));
        for size in 6..10 {
            assert_eq!(s.count_of_size(size), 0, "size {size}");
        }
    }

    #[test]
    fn cap_on_last_channel_respected() {
        let s = example_space()
            .with_max_capacities(&StorageDistribution::from_capacities(vec![100, 2]));
        // β pinned at its minimum: exactly one distribution per size.
        for size in 6..10 {
            let all = s.all_of_size(size);
            assert_eq!(all.len(), 1, "size {size}");
            assert_eq!(all[0].as_slice()[1], 2);
        }
    }

    use buffy_graph::SdfGraph;
}
