//! The per-run table of pair bounds behind the exhaustive sweep.
//!
//! [`PairBounds`] bounds the throughput of any distribution by
//! `min_i P_i(d_i)`, where `P_i(c)` comes from the two-actor model of
//! channel `i` at capacity `c`. A [`BoundTable`] tabulates each `P_i`
//! lazily, one pair analysis per capacity box, from the channel's minimum
//! upward. Pair analyses are uncounted: they emit no event, charge no
//! states, take no memo entry, and are shared by every size of the run. A
//! tripped evaluation or state budget does not cancel them either.
//!
//! The sweeps read the table through integer thresholds: `τ_i(L)`, the
//! smallest grid capacity of channel `i` with `P_i ≥ L`, listed only for
//! the channels where it lies above the minimum. A candidate with
//! `d_i < τ_i` on some channel has throughput below `L` and is skipped
//! without an evaluation. The thresholds come from a walk over the
//! analysed boxes in capacity order, so every capacity below `τ_i` was
//! shown to bound below `L`. The liveness thresholds, the smallest
//! capacities with a positive bound, prove deadlocks for the minimal-size
//! phase. The sweeps' exactness arguments live beside them:
//! `Sweeps::max_throughput_for_size` and `Sweeps::has_positive` in
//! `explore.rs`.
//!
//! The table also proposes a *seed* per size: a grid distribution of
//! exactly that size built by water-filling, which the exhaustive sweep
//! evaluates for a lower bound on its own result. No pass over a size's
//! distributions chooses it: some sizes hold tens of millions of them.

use crate::enumerate::DistributionSpace;
use crate::error::ExploreError;
use crate::runtime::SearchPhase;
use buffy_analysis::{
    AnalysisError, AnalysisRequest, AnalysisWorkspace, CancelReason, CancelToken,
    DataflowSemantics, ExplorationLimits, PairBounds,
};
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use buffy_telemetry::{labeled, names, Counter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Whether `dist` reaches every threshold of [`BoundTable::thresholds`].
pub(crate) fn admits(dist: &StorageDistribution, thresholds: &[(usize, u64)]) -> bool {
    let caps = dist.as_slice();
    thresholds.iter().all(|&(i, tau)| caps[i] >= tau)
}

/// The installed recorder's discard counter of `phase`.
fn skip_counter(phase: SearchPhase) -> Option<Arc<Counter>> {
    buffy_telemetry::active().map(|r| {
        r.counter(
            &labeled(names::CANDIDATES_BOUND_SKIPPED, "phase", phase.name()),
            "Sweep candidates skipped because a pair bound rules them out.",
        )
    })
}

/// The pair bounds of one run, tabulated lazily per channel.
pub(crate) struct BoundTable<'a, M: ?Sized> {
    /// `None` when the model has no pair bounds at all (disconnected or
    /// inconsistent): then every channel starts without a bound.
    pairs: Option<PairBounds<'a, M>>,
    mins: Vec<u64>,
    steps: Vec<u64>,
    /// Per-channel capacity ceilings, `u64::MAX` when unconstrained.
    caps: Vec<u64>,
    channels: Vec<ChannelTable>,
    limits: ExplorationLimits,
    cancel: Arc<CancelToken>,
    workspace: AnalysisWorkspace,
    /// The candidates the thresholds discarded, by phase; observation
    /// only.
    skipped: Option<Arc<Counter>>,
}

/// The tabulated part of one channel's `P_i`.
#[derive(Default)]
struct ChannelTable {
    /// `(first capacity, bound)` per analysed box, ascending: every grid
    /// capacity from one start up to the next (or up to `known`) has that
    /// bound.
    boxes: Vec<(u64, Rational)>,
    /// The smallest grid capacity not tabulated yet; `u64::MAX` once the
    /// last box reaches every larger capacity.
    known: u64,
    /// Set when the channel has no bound: the model has none, or a pair
    /// analysis of the channel failed.
    unbounded: bool,
}

impl<'a, M: DataflowSemantics + ?Sized> BoundTable<'a, M> {
    /// An empty table for the grid `space` of `model` observing
    /// `observed`, running its pair analyses under `limits` and `cancel`.
    /// The discard counter of `phase` is fetched here, once.
    pub(crate) fn new(
        model: &'a M,
        observed: ActorId,
        space: &DistributionSpace,
        limits: ExplorationLimits,
        cancel: Arc<CancelToken>,
        phase: SearchPhase,
    ) -> BoundTable<'a, M> {
        let pairs = PairBounds::new(model, observed)
            .ok()
            .filter(PairBounds::is_usable);
        let mins = space.min_distribution().as_slice().to_vec();
        let channels = mins
            .iter()
            .map(|&min| ChannelTable {
                known: min,
                unbounded: pairs.is_none(),
                ..ChannelTable::default()
            })
            .collect();
        BoundTable {
            pairs,
            steps: (0..mins.len()).map(|i| space.step_of(i)).collect(),
            caps: (0..mins.len())
                .map(|i| space.max_of(i).unwrap_or(u64::MAX))
                .collect(),
            mins,
            channels,
            limits,
            cancel,
            workspace: AnalysisWorkspace::new(),
            skipped: skip_counter(phase),
        }
    }

    /// Counts this table's later discards under `phase`.
    pub(crate) fn count_phase(&mut self, phase: SearchPhase) {
        self.skipped = skip_counter(phase);
    }

    /// Counts this table's discards on `counter` instead of the installed
    /// recorder's.
    #[cfg(test)]
    pub(crate) fn counting_on(mut self, counter: Arc<Counter>) -> Self {
        self.skipped = Some(counter);
        self
    }

    /// Adds `n` discarded candidates to the phase's counter.
    pub(crate) fn note_skipped(&self, n: u64) {
        if let Some(c) = &self.skipped {
            c.add(n);
        }
    }

    /// Tabulates the next box of channel `i`, at its first untabulated
    /// capacity. A failed pair analysis leaves the channel without a
    /// bound; a cancelled one cancels the sweep.
    fn extend(&mut self, i: usize) -> Result<(), ExploreError> {
        let Some(pairs) = &self.pairs else {
            self.channels[i].unbounded = true;
            return Ok(());
        };
        let capacity = self.channels[i].known;
        // A tripped budget stops evaluations, not these uncounted analyses:
        // the sweep that asked meets the budget at its next evaluation, so
        // a run whose budget covers all of its evaluations stays exact.
        static UNBUDGETED: CancelToken = CancelToken::new();
        let cancel = match self.cancel.check() {
            Some(CancelReason::EvaluationBudget | CancelReason::MemoryBudget) => &UNBUDGETED,
            _ => &*self.cancel,
        };
        let request = AnalysisRequest {
            limits: self.limits,
            cancel,
            ..AnalysisRequest::default()
        };
        let workspace = &mut self.workspace;
        let analysed = catch_unwind(AssertUnwindSafe(|| {
            pairs.channel_bound(ChannelId::new(i), capacity, &request, workspace)
        }));
        let channel = &mut self.channels[i];
        match analysed {
            Ok(Ok(Some(p))) => {
                channel.boxes.push((capacity, p.bound));
                // The next grid capacity at or above the box's end.
                let (min, step) = (self.mins[i], self.steps[i]);
                let end = p.until.max(capacity + 1);
                channel.known = (end - min)
                    .div_ceil(step)
                    .checked_mul(step)
                    .and_then(|extra| extra.checked_add(min))
                    .unwrap_or(u64::MAX);
            }
            Ok(Err(AnalysisError::Cancelled { reason })) => {
                return Err(ExploreError::Cancelled { reason })
            }
            Ok(Ok(None) | Err(_)) => channel.unbounded = true,
            Err(_) => {
                // The workspace may hold a half-run analysis.
                self.workspace = AnalysisWorkspace::new();
                channel.unbounded = true;
            }
        }
        Ok(())
    }

    /// `P_i(capacity)` for a grid capacity of channel `i` with the first
    /// grid capacity above its box, or `None` when the channel has no
    /// bound.
    fn bound_at(
        &mut self,
        i: usize,
        capacity: u64,
    ) -> Result<Option<(Rational, u64)>, ExploreError> {
        while !self.channels[i].unbounded && self.channels[i].known <= capacity {
            self.extend(i)?;
        }
        let channel = &self.channels[i];
        if channel.unbounded {
            return Ok(None);
        }
        let k = channel
            .boxes
            .partition_point(|&(start, _)| start <= capacity)
            - 1;
        let end = channel.boxes.get(k + 1).map_or(channel.known, |b| b.0);
        Ok(Some((channel.boxes[k].1, end)))
    }

    /// The channels `i` whose smallest grid capacity `τ_i` with a pair
    /// bound of at least `floor` lies above the channel's minimum, with
    /// `τ_i`, for the candidates of `size`: `u64::MAX` when no capacity a
    /// candidate of `size` can give the channel reaches `floor`. Empty
    /// when `floor` is zero; a channel without a bound never appears.
    pub(crate) fn thresholds(
        &mut self,
        floor: Rational,
        size: u64,
    ) -> Result<Vec<(usize, u64)>, ExploreError> {
        if floor.is_zero() {
            return Ok(Vec::new());
        }
        self.thresholds_where(size, |bound| bound >= floor)
    }

    /// The thresholds of liveness for the candidates of `size`: per
    /// channel the smallest grid capacity with a positive pair bound, as
    /// in [`Self::thresholds`]. A candidate under one has a channel whose
    /// two end actors deadlock alone, so it deadlocks too.
    pub(crate) fn live_thresholds(&mut self, size: u64) -> Result<Vec<(usize, u64)>, ExploreError> {
        self.thresholds_where(size, |bound| !bound.is_zero())
    }

    /// [`Self::thresholds`] for the bounds that satisfy `enough`, which
    /// must hold for every bound at least as large as one it holds for.
    fn thresholds_where(
        &mut self,
        size: u64,
        enough: impl Fn(Rational) -> bool,
    ) -> Result<Vec<(usize, u64)>, ExploreError> {
        let budget = size.saturating_sub(self.mins.iter().sum());
        let mut thresholds = Vec::new();
        for i in 0..self.mins.len() {
            let limit = self.caps[i].min(self.mins[i].saturating_add(budget));
            let mut k = 0;
            let tau = loop {
                let channel = &self.channels[i];
                if channel.unbounded {
                    break self.mins[i];
                }
                if let Some(&(start, _)) = channel.boxes[k..].iter().find(|b| enough(b.1)) {
                    break start;
                }
                if channel.known > limit {
                    break u64::MAX;
                }
                k = channel.boxes.len();
                self.extend(i)?;
            };
            if tau > self.mins[i] {
                thresholds.push((i, tau));
            }
        }
        Ok(thresholds)
    }

    /// A grid distribution of exactly `size` by water-filling: from the
    /// minimal distribution, repeatedly one step to the channel with the
    /// smallest pair bound (the lowest index on ties) among those whose
    /// step still fits the remaining budget and the capacity ceilings.
    /// `None` when the budget cannot be placed exactly, or when no channel
    /// has a bound (a seed could then discard nothing).
    ///
    /// A channel keeps the smallest bound while its capacity stays inside
    /// one box, so it takes all those steps at once: the loop runs once per
    /// box, not once per step.
    pub(crate) fn seed(&mut self, size: u64) -> Result<Option<StorageDistribution>, ExploreError> {
        if self.channels.iter().all(|c| c.unbounded) {
            return Ok(None);
        }
        let Some(mut budget) = size.checked_sub(self.mins.iter().sum()) else {
            return Ok(None);
        };
        let mut dist = self.mins.clone();
        while budget > 0 {
            // (channel, rank, box end); a channel without a bound ranks
            // above every bound.
            let mut pick: Option<(usize, (bool, Option<Rational>), u64)> = None;
            for (i, &capacity) in dist.iter().enumerate() {
                let step = self.steps[i];
                if step > budget || capacity.saturating_add(step) > self.caps[i] {
                    continue;
                }
                let (bound, end) = match self.bound_at(i, capacity)? {
                    Some((bound, end)) => (Some(bound), end),
                    None => (None, u64::MAX),
                };
                let rank = (bound.is_none(), bound);
                if pick.as_ref().is_none_or(|p| rank < p.1) {
                    pick = Some((i, rank, end));
                }
            }
            let Some((i, _, end)) = pick else {
                return Ok(None);
            };
            let step = self.steps[i];
            let in_box = (end - dist[i]).div_ceil(step);
            let fits = (budget / step).min((self.caps[i] - dist[i]) / step);
            let take = in_box.min(fits) * step;
            dist[i] += take;
            budget -= take;
        }
        Ok(Some(StorageDistribution::from_capacities(dist)))
    }
}
