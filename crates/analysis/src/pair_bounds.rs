//! Two-actor throughput bounds, one channel at a time.
//!
//! The exhaustive sweep of the paper (§9) analyses candidate distributions
//! of one size until one reaches the size's ceiling. Many candidates are
//! hopeless from one channel alone: a channel at a small capacity can cap
//! the whole graph below what the size already reaches. [`PairBounds`]
//! turns that into a number. For channel `i` at capacity `c`, the
//! *pair bound* `P_i(c)` is the throughput of the channel's target in the
//! two-actor model that keeps only `src_i`, `tgt_i` and channel `i` — with
//! the channel's rates, phases and initial tokens, at capacity `c` —
//! scaled to the observed actor by `(q_obs·phases_obs)/(q_tgt·phases_tgt)`,
//! the repetition cycles of the full model. Then every distribution `d`
//! has throughput at most `min_i P_i(d_i)`.
//!
//! # Soundness
//!
//! - *Relaxation.* Every start condition of the two-actor model (tokens on
//!   channel `i`, space on channel `i`, an actor never overlapping its own
//!   firings) is a start condition of the full model too; the full model
//!   only adds conditions. Self-timed execution is a max-plus system, and
//!   dropping constraints from it can only make its events earlier
//!   (Skelin & Geilen, arXiv:1404.0089): each firing of `tgt_i` starts no
//!   later in the pair than in the full model, so its long-run rate in the
//!   pair is at least the full model's.
//! - *Rate scaling.* In a connected model that runs periodically, every
//!   actor completes `q·phases` firings per iteration, so the observed
//!   actor's rate is `tgt_i`'s rate times the scale. A model that
//!   deadlocks has throughput zero, below any bound.
//! - *Disconnected models* tie no rates across components, so they get no
//!   bound at all ([`PairBounds::is_usable`] is `false`), as for
//!   [`StaticBounds`](crate::StaticBounds).
//! - *Monotonicity.* Throughput is monotone in capacity, so `P_i` is
//!   nondecreasing in `c`: a threshold "the smallest capacity with
//!   `P_i ≥ L`" splits the channel's capacities in two.
//!
//! Each pair analysis also returns its capacity box (see
//! [`throughput_analysis`]): every capacity in `[c, until)` gives the same
//! pair run and so the same bound, which lets a caller tabulate `P_i`
//! with one analysis per box. A pair analysis is an ordinary
//! [`throughput_analysis`] of a view of the model that implements
//! [`DataflowSemantics`] by delegation, so SDF and CSDF share it.

use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use crate::static_bounds::is_connected;
use crate::throughput::{throughput_analysis, AnalysisRequest, AnalysisWorkspace};
use crate::Capacities;
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};

/// One pair analysis: the bound and the capacities it holds for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairBound {
    /// Upper bound on the observed actor's throughput under any
    /// distribution that gives the channel the analysed capacity.
    pub bound: Rational,
    /// Every capacity from the analysed one up to, not including, this
    /// one gives the same pair run and so the same bound (`u64::MAX`: all
    /// larger capacities do).
    pub until: u64,
}

/// The two-actor relaxations of one model's channels.
///
/// # Examples
///
/// The running example's `alpha` channel at its lower bound: `a` and `b`
/// alone let `b` fire twice per 7 time units, and `c` fires half as often
/// as `b`. That is already the exact throughput of the paper's ⟨4, 2⟩.
///
/// ```
/// use buffy_analysis::{AnalysisRequest, AnalysisWorkspace, PairBounds};
/// use buffy_graph::{Rational, SdfGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SdfGraph::builder("example");
/// let a = b.actor("a", 1);
/// let bb = b.actor("b", 2);
/// let c = b.actor("c", 2);
/// let alpha = b.channel("alpha", a, 2, bb, 3)?;
/// b.channel("beta", bb, 1, c, 2)?;
/// let g = b.build()?;
///
/// let pairs = PairBounds::new(&g, c)?;
/// let request = AnalysisRequest::default();
/// let p = pairs
///     .channel_bound(alpha, 4, &request, &mut AnalysisWorkspace::new())?
///     .expect("connected graph");
/// assert_eq!(p.bound, Rational::new(1, 7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PairBounds<'a, M: ?Sized> {
    model: &'a M,
    /// Per channel, `(q_obs·phases_obs)/(q_tgt·phases_tgt)`; `None` when the
    /// model is disconnected or the product overflows.
    scales: Vec<Option<Rational>>,
}

impl<'a, M: DataflowSemantics + ?Sized> PairBounds<'a, M> {
    /// The relaxations of `model`'s channels, scaled to `observed`.
    ///
    /// # Errors
    ///
    /// An error when the model is inconsistent (no repetition vector).
    pub fn new(model: &'a M, observed: ActorId) -> Result<PairBounds<'a, M>, AnalysisError> {
        let cycles = model.repetition_cycles()?;
        let firings = |actor: ActorId| {
            i128::from(cycles[actor.index()]).checked_mul(i128::from(model.num_phases(actor)))
        };
        let connected = is_connected(model.num_actors(), model);
        let scales = (0..model.num_channels())
            .map(|c| {
                let target = model.channel_target(ChannelId::new(c));
                match (connected, firings(observed), firings(target)) {
                    (true, Some(num), Some(den)) if den > 0 => Some(Rational::new(num, den)),
                    _ => None,
                }
            })
            .collect();
        Ok(PairBounds { model, scales })
    }

    /// Whether any channel has a bound: `false` for a disconnected model.
    pub fn is_usable(&self) -> bool {
        self.scales.iter().any(Option::is_some)
    }

    /// `P_channel(capacity)` from one analysis of the channel's two-actor
    /// model under `request` (its limits and cancel token), in `workspace`.
    /// `Ok(None)` when the channel has no bound: the model is disconnected,
    /// or the scaled throughput overflows.
    ///
    /// # Errors
    ///
    /// The pair analysis's errors: a zero period, a zero-time livelock, a
    /// state limit, a cancellation. A channel whose pair analysis errors
    /// gives no bound; the caller decides what else the error means.
    pub fn channel_bound(
        &self,
        channel: ChannelId,
        capacity: u64,
        request: &AnalysisRequest<'_>,
        workspace: &mut AnalysisWorkspace,
    ) -> Result<Option<PairBound>, AnalysisError> {
        let Some(scale) = self.scales[channel.index()] else {
            return Ok(None);
        };
        let pair = ChannelPair::new(self.model, channel);
        let request = AnalysisRequest {
            dependencies: false,
            peaks: true,
            ..*request
        };
        let analysis = throughput_analysis(
            &pair,
            Capacities::from_distribution(&StorageDistribution::from_capacities(vec![capacity])),
            pair.target(),
            &request,
            workspace,
        )?;
        let until = analysis
            .refused
            .and_then(|refused| refused.first().copied())
            .unwrap_or(u64::MAX);
        Ok(analysis
            .report
            .throughput
            .checked_mul(&scale)
            .map(|bound| PairBound { bound, until }))
    }
}

/// The sub-model of one channel and its end actors: the channel's source
/// is actor 0, its target actor 1 (also 0 for a self-loop), and the
/// channel is channel 0. Everything else delegates to the full model.
struct ChannelPair<'a, M: ?Sized> {
    model: &'a M,
    channel: ChannelId,
    /// The full model's actors, source first; one for a self-loop.
    actors: Vec<ActorId>,
    only: [ChannelId; 1],
}

impl<'a, M: DataflowSemantics + ?Sized> ChannelPair<'a, M> {
    fn new(model: &'a M, channel: ChannelId) -> ChannelPair<'a, M> {
        let (src, dst) = (model.channel_source(channel), model.channel_target(channel));
        let actors = if src == dst {
            vec![src]
        } else {
            vec![src, dst]
        };
        ChannelPair {
            model,
            channel,
            actors,
            only: [ChannelId::new(0)],
        }
    }

    fn target(&self) -> ActorId {
        ActorId::new(self.actors.len() - 1)
    }

    fn full(&self, actor: ActorId) -> ActorId {
        self.actors[actor.index()]
    }
}

impl<M: DataflowSemantics + ?Sized> DataflowSemantics for ChannelPair<'_, M> {
    fn name(&self) -> &str {
        self.model.channel_name(self.channel)
    }

    fn kind(&self) -> &'static str {
        self.model.kind()
    }

    fn num_actors(&self) -> usize {
        self.actors.len()
    }

    fn num_channels(&self) -> usize {
        1
    }

    fn actor_name(&self, actor: ActorId) -> &str {
        self.model.actor_name(self.full(actor))
    }

    fn channel_name(&self, _channel: ChannelId) -> &str {
        self.model.channel_name(self.channel)
    }

    fn channel_source(&self, _channel: ChannelId) -> ActorId {
        ActorId::new(0)
    }

    fn channel_target(&self, _channel: ChannelId) -> ActorId {
        self.target()
    }

    fn initial_tokens(&self, _channel: ChannelId) -> u64 {
        self.model.initial_tokens(self.channel)
    }

    fn input_channels(&self, actor: ActorId) -> &[ChannelId] {
        if actor == self.target() {
            &self.only
        } else {
            &[]
        }
    }

    fn output_channels(&self, actor: ActorId) -> &[ChannelId] {
        if actor.index() == 0 {
            &self.only
        } else {
            &[]
        }
    }

    fn num_phases(&self, actor: ActorId) -> u32 {
        self.model.num_phases(self.full(actor))
    }

    fn execution_time(&self, actor: ActorId, phase: u32) -> u64 {
        self.model.execution_time(self.full(actor), phase)
    }

    fn production(&self, _channel: ChannelId, phase: u32) -> u64 {
        self.model.production(self.channel, phase)
    }

    fn consumption(&self, _channel: ChannelId, phase: u32) -> u64 {
        self.model.consumption(self.channel, phase)
    }

    fn default_observed_actor(&self) -> ActorId {
        self.target()
    }

    fn channel_lower_bound(&self, _channel: ChannelId) -> u64 {
        self.model.channel_lower_bound(self.channel)
    }

    fn channel_step(&self, _channel: ChannelId) -> u64 {
        self.model.channel_step(self.channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{throughput_for, ExplorationLimits};
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

    fn bound(pairs: &PairBounds<'_, SdfGraph>, channel: usize, capacity: u64) -> PairBound {
        pairs
            .channel_bound(
                ChannelId::new(channel),
                capacity,
                &AnalysisRequest::default(),
                &mut AnalysisWorkspace::new(),
            )
            .unwrap()
            .unwrap()
    }

    #[test]
    fn the_pair_view_keeps_one_channel_and_its_actors() {
        let g = example();
        let pair = ChannelPair::new(&g, ChannelId::new(1));
        assert_eq!((pair.num_actors(), pair.num_channels()), (2, 1));
        assert_eq!(pair.actor_name(ActorId::new(0)), "b");
        assert_eq!(pair.actor_name(pair.target()), "c");
        assert_eq!(pair.input_channels(ActorId::new(0)), &[]);
        assert_eq!(pair.output_channels(ActorId::new(0)), &[ChannelId::new(0)]);
        assert_eq!(pair.input_channels(ActorId::new(1)), &[ChannelId::new(0)]);
        assert_eq!(pair.execution_time(ActorId::new(1), 0), 2);
        assert_eq!(pair.repetition_cycles().unwrap(), vec![2, 1]);
    }

    #[test]
    fn bounds_cap_the_exact_throughput_and_grow_with_capacity() {
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let pairs = PairBounds::new(&g, c).unwrap();
        assert!(pairs.is_usable());
        for a in 4..10u64 {
            for b in 2..6u64 {
                let exact = throughput_for(
                    &g,
                    Capacities::from_distribution(&StorageDistribution::from_capacities(vec![
                        a, b,
                    ])),
                    c,
                    ExplorationLimits::default(),
                )
                .unwrap()
                .throughput;
                let p = bound(&pairs, 0, a).bound.min(bound(&pairs, 1, b).bound);
                assert!(exact <= p, "<{a}, {b}>: {exact} > {p}");
            }
        }
        for channel in 0..2 {
            let mut previous = Rational::ZERO;
            for capacity in [4, 2][channel]..12 {
                let p = bound(&pairs, channel, capacity);
                assert!(p.bound >= previous, "channel {channel} at {capacity}");
                assert!(p.until > capacity);
                previous = p.bound;
            }
        }
    }

    #[test]
    fn every_capacity_in_the_box_gives_the_same_bound() {
        let g = example();
        let pairs = PairBounds::new(&g, g.actor_by_name("c").unwrap()).unwrap();
        for channel in 0..2 {
            for capacity in [4, 2][channel]..10 {
                let p = bound(&pairs, channel, capacity);
                for inside in capacity..p.until.min(capacity + 8) {
                    assert_eq!(bound(&pairs, channel, inside).bound, p.bound);
                }
            }
        }
    }

    #[test]
    fn a_self_loop_is_a_one_actor_model() {
        let mut b = SdfGraph::builder("loop");
        let x = b.actor("x", 3);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("s", x, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        let pairs = PairBounds::new(&g, y).unwrap();
        let pair = ChannelPair::new(&g, ChannelId::new(1));
        assert_eq!(pair.num_actors(), 1);
        assert_eq!(pair.input_channels(ActorId::new(0)), &[ChannelId::new(0)]);
        // A firing claims its space at its start: at capacity 1 the
        // stored token leaves none, and x never fires. At capacity 2 x
        // fires once per 3 time units, and so does y.
        assert_eq!(bound(&pairs, 1, 1).bound, Rational::ZERO);
        assert_eq!(bound(&pairs, 1, 2).bound, Rational::new(1, 3));
    }

    #[test]
    fn disconnected_models_have_no_bound() {
        let mut b = SdfGraph::builder("two");
        let x = b.actor("x", 1);
        b.channel_with_tokens("sx", x, 1, x, 1, 1).unwrap();
        let y = b.actor("y", 5);
        b.channel_with_tokens("sy", y, 1, y, 1, 1).unwrap();
        let g = b.build().unwrap();
        let pairs = PairBounds::new(&g, x).unwrap();
        assert!(!pairs.is_usable());
        let none = pairs
            .channel_bound(
                ChannelId::new(0),
                4,
                &AnalysisRequest::default(),
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        assert_eq!(none, None);
    }
}
