//! The generic dataflow model interface behind the unified kernel.
//!
//! The paper's method — timed self-timed execution, reduced state-space
//! cycle detection, storage-distribution exploration — never looks inside
//! a model beyond a small set of questions: which actors and channels
//! exist, how many tokens one firing consumes and produces, how long a
//! firing takes, how firings repeat, and what the analytical bounds are.
//! [`DataflowSemantics`] captures exactly those questions so that the
//! execution engine ([`DataflowEngine`](crate::DataflowEngine)), the
//! throughput analysis and the exploration drivers in `buffy-core` can be
//! written once and instantiated for SDF, CSDF, or any future model class.
//!
//! A model presents each actor as a cyclic sequence of *phases*
//! (`0 .. num_phases`): every firing executes the actor's current phase
//! and advances it by one, wrapping around. Plain SDF is the single-phase
//! special case, which is why the unified kernel reproduces the SDF
//! analyses bit for bit (see the cross-model property tests).

use crate::error::AnalysisError;
use buffy_graph::{gcd_u64, solve_balance_equations, ActorId, ChannelId, SdfGraph};

/// What a dataflow model must provide for the unified analysis kernel.
///
/// Channel and actor identifiers index dense arrays
/// (`0 .. num_channels`, `0 .. num_actors`), exactly as in
/// [`SdfGraph`]. Production rates are indexed by the *source* actor's
/// phase, consumption rates by the *target* actor's phase.
pub trait DataflowSemantics {
    /// Display name of the model.
    fn name(&self) -> &str;

    /// The model class, as reports label it (`"sdf"`, `"csdf"`).
    fn kind(&self) -> &'static str;

    /// Number of actors in the model.
    fn num_actors(&self) -> usize;

    /// Number of channels in the model.
    fn num_channels(&self) -> usize;

    /// Display name of `actor`.
    fn actor_name(&self, actor: ActorId) -> &str;

    /// Display name of `channel`.
    fn channel_name(&self, channel: ChannelId) -> &str;

    /// Producing actor of `channel`.
    fn channel_source(&self, channel: ChannelId) -> ActorId;

    /// Consuming actor of `channel`.
    fn channel_target(&self, channel: ChannelId) -> ActorId;

    /// Tokens stored on `channel` before execution starts.
    fn initial_tokens(&self, channel: ChannelId) -> u64;

    /// Channels consumed by `actor`.
    fn input_channels(&self, actor: ActorId) -> &[ChannelId];

    /// Channels produced by `actor`.
    fn output_channels(&self, actor: ActorId) -> &[ChannelId];

    /// Number of firing phases of `actor` (1 for plain SDF).
    fn num_phases(&self, actor: ActorId) -> u32;

    /// Execution time of `actor` in `phase`.
    fn execution_time(&self, actor: ActorId, phase: u32) -> u64;

    /// Tokens produced on `channel` by one firing of its source in
    /// `phase` (the source actor's phase).
    fn production(&self, channel: ChannelId, phase: u32) -> u64;

    /// Tokens consumed from `channel` by one firing of its target in
    /// `phase` (the target actor's phase).
    fn consumption(&self, channel: ChannelId, phase: u32) -> u64;

    /// Tokens produced on `channel` over one full phase cycle of its
    /// source.
    fn cycle_production(&self, channel: ChannelId) -> u64 {
        let n = self.num_phases(self.channel_source(channel));
        (0..n).map(|p| self.production(channel, p)).sum()
    }

    /// Tokens consumed from `channel` over one full phase cycle of its
    /// target.
    fn cycle_consumption(&self, channel: ChannelId) -> u64 {
        let n = self.num_phases(self.channel_target(channel));
        (0..n).map(|p| self.consumption(channel, p)).sum()
    }

    /// The default actor whose firings define the throughput.
    fn default_observed_actor(&self) -> ActorId;

    /// Repetition counts in *phase cycles* per actor: the minimal
    /// non-trivial solution of the balance equations at cycle
    /// granularity, with [`cycle_production`](Self::cycle_production) and
    /// [`cycle_consumption`](Self::cycle_consumption) as the rates (for
    /// SDF this is the ordinary repetition vector). One solver serves
    /// every model class: [`solve_balance_equations`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Graph`] when the model is inconsistent (naming the
    /// first channel whose balance fails) or an entry overflows `u64`.
    fn repetition_cycles(&self) -> Result<Vec<u64>, AnalysisError> {
        let channels: Vec<_> = (0..self.num_channels())
            .map(ChannelId::new)
            .map(|c| {
                let (src, dst) = (self.channel_source(c), self.channel_target(c));
                (
                    src,
                    dst,
                    self.cycle_production(c),
                    self.cycle_consumption(c),
                )
            })
            .collect();
        Ok(solve_balance_equations(
            self.num_actors(),
            &channels,
            |c| self.channel_name(c).to_string(),
        )?)
    }

    /// A per-channel capacity below which the model certainly deadlocks
    /// (the exploration never tries smaller capacities).
    fn channel_lower_bound(&self, channel: ChannelId) -> u64;

    /// The granularity at which growing `channel` can change behaviour;
    /// the exploration only tries capacities `lower_bound + k * step`.
    fn channel_step(&self, channel: ChannelId) -> u64;

    /// Power drawn per time step while `actor` is firing.
    ///
    /// Zero (the default) means the model carries no power annotation;
    /// the energy objective of such a model is identically zero.
    fn active_power(&self, _actor: ActorId) -> u64 {
        0
    }

    /// Power drawn per time step while `actor` sits idle between firings.
    ///
    /// Never exceeds [`active_power`](Self::active_power) for models
    /// built through the validated constructors.
    fn idle_power(&self, _actor: ActorId) -> u64 {
        0
    }
}

/// The buffer minimal for a live channel (\[ALP97\]/\[Mur96\], paper §8):
/// `prd + cns − gcd(prd, cns) + tokens mod gcd(prd, cns)`, and never
/// below the initial tokens already stored.
///
/// ```
/// assert_eq!(buffy_analysis::bmlb(2, 3, 0), 4);
/// assert_eq!(buffy_analysis::bmlb(1, 2, 0), 2);
/// ```
pub fn bmlb(production: u64, consumption: u64, initial_tokens: u64) -> u64 {
    let g = gcd_u64(production, consumption);
    let bound = production + consumption - g + initial_tokens % g;
    bound.max(initial_tokens)
}

/// The capacity granularity of a channel with scalar rates: `gcd(prd,
/// cns)` — capacities between multiples behave like the next multiple
/// down (paper §8).
pub fn rate_step(production: u64, consumption: u64) -> u64 {
    gcd_u64(production, consumption)
}

impl DataflowSemantics for SdfGraph {
    fn name(&self) -> &str {
        SdfGraph::name(self)
    }

    fn kind(&self) -> &'static str {
        "sdf"
    }

    fn num_actors(&self) -> usize {
        SdfGraph::num_actors(self)
    }

    fn num_channels(&self) -> usize {
        SdfGraph::num_channels(self)
    }

    fn actor_name(&self, actor: ActorId) -> &str {
        self.actor(actor).name()
    }

    fn channel_name(&self, channel: ChannelId) -> &str {
        self.channel(channel).name()
    }

    fn channel_source(&self, channel: ChannelId) -> ActorId {
        self.channel(channel).source()
    }

    fn channel_target(&self, channel: ChannelId) -> ActorId {
        self.channel(channel).target()
    }

    fn initial_tokens(&self, channel: ChannelId) -> u64 {
        self.channel(channel).initial_tokens()
    }

    fn input_channels(&self, actor: ActorId) -> &[ChannelId] {
        SdfGraph::input_channels(self, actor)
    }

    fn output_channels(&self, actor: ActorId) -> &[ChannelId] {
        SdfGraph::output_channels(self, actor)
    }

    fn num_phases(&self, _actor: ActorId) -> u32 {
        1
    }

    fn execution_time(&self, actor: ActorId, _phase: u32) -> u64 {
        self.actor(actor).execution_time()
    }

    fn production(&self, channel: ChannelId, _phase: u32) -> u64 {
        self.channel(channel).production()
    }

    fn consumption(&self, channel: ChannelId, _phase: u32) -> u64 {
        self.channel(channel).consumption()
    }

    fn default_observed_actor(&self) -> ActorId {
        SdfGraph::default_observed_actor(self)
    }

    fn channel_lower_bound(&self, channel: ChannelId) -> u64 {
        let ch = self.channel(channel);
        bmlb(ch.production(), ch.consumption(), ch.initial_tokens())
    }

    fn channel_step(&self, channel: ChannelId) -> u64 {
        let ch = self.channel(channel);
        rate_step(ch.production(), ch.consumption())
    }

    fn active_power(&self, actor: ActorId) -> u64 {
        self.actor(actor).active_power()
    }

    fn idle_power(&self, actor: ActorId) -> u64 {
        self.actor(actor).idle_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sdf_is_the_single_phase_case() {
        let g = example();
        let a = g.actor_by_name("a").unwrap();
        let alpha = g.channel_by_name("alpha").unwrap();
        let m: &dyn DataflowSemantics = &g;
        assert_eq!((m.name(), m.kind()), ("example", "sdf"));
        assert_eq!(m.num_phases(a), 1);
        assert_eq!(m.execution_time(a, 0), 1);
        assert_eq!(m.production(alpha, 0), 2);
        assert_eq!(m.consumption(alpha, 0), 3);
        assert_eq!(m.cycle_production(alpha), 2);
        assert_eq!(m.cycle_consumption(alpha), 3);
        assert_eq!(m.channel_lower_bound(alpha), 4);
        assert_eq!(m.channel_step(alpha), 1);
    }

    #[test]
    fn sdf_repetition_cycles_match_the_repetition_vector() {
        let g = example();
        assert_eq!(g.repetition_cycles().unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn bmlb_respects_initial_tokens() {
        // 4 + 2 − 2 + 9 mod 2 = 5, but 9 tokens are already stored.
        assert_eq!(bmlb(4, 2, 9), 9);
        assert_eq!(bmlb(4, 2, 1), 5);
        assert_eq!(rate_step(4, 2), 2);
    }
}
