//! The Cyclo-Static Dataflow (CSDF) graph model.
//!
//! CSDF generalizes SDF: an actor cycles through a fixed sequence of
//! *phases*; each phase has its own execution time, and each port has one
//! rate *per phase of its actor* (rates may be zero in individual phases).
//! Every SDF graph is a CSDF graph with a single phase per actor.

use buffy_analysis::{bmlb, DataflowSemantics};
use buffy_graph::{gcd_u64, ActorId, ChannelId, SdfGraph};
use core::fmt;
use std::collections::HashSet;

/// Errors raised while building or analyzing a CSDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsdfError {
    /// Two actors share a name.
    DuplicateActorName {
        /// The clashing name.
        name: String,
    },
    /// Two channels share a name.
    DuplicateChannelName {
        /// The clashing name.
        name: String,
    },
    /// An actor id was out of range.
    UnknownActor {
        /// Display form of the id.
        name: String,
    },
    /// An actor was declared with no phases.
    NoPhases {
        /// The offending actor.
        actor: String,
    },
    /// A channel's per-phase rate vector length does not match its actor's
    /// phase count.
    RateArityMismatch {
        /// The offending channel.
        channel: String,
    },
    /// An actor's idle power exceeds its active power (the energy model
    /// requires idle ≤ active; see `buffy_graph::SdfGraphBuilder`).
    IdlePowerExceedsActive {
        /// The offending actor.
        actor: String,
    },
    /// A port produces or consumes nothing over a whole phase cycle.
    ZeroCycleRate {
        /// The offending channel.
        channel: String,
    },
    /// The graph has no actors.
    EmptyGraph,
}

impl fmt::Display for CsdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsdfError::DuplicateActorName { name } => write!(f, "duplicate actor name {name:?}"),
            CsdfError::DuplicateChannelName { name } => {
                write!(f, "duplicate channel name {name:?}")
            }
            CsdfError::UnknownActor { name } => write!(f, "unknown actor {name:?}"),
            CsdfError::NoPhases { actor } => write!(f, "actor {actor:?} has no phases"),
            CsdfError::RateArityMismatch { channel } => write!(
                f,
                "channel {channel:?} rate vector length does not match the actor's phase count"
            ),
            CsdfError::IdlePowerExceedsActive { actor } => write!(
                f,
                "actor {actor:?} has idle power exceeding its active power"
            ),
            CsdfError::ZeroCycleRate { channel } => write!(
                f,
                "channel {channel:?} transfers no tokens over a full phase cycle"
            ),
            CsdfError::EmptyGraph => write!(f, "graph has no actors"),
        }
    }
}

impl std::error::Error for CsdfError {}

/// A CSDF actor: a cyclic sequence of phases with per-phase execution
/// times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfActor {
    pub(crate) name: String,
    pub(crate) phase_times: Vec<u64>,
    /// Power drawn while any phase executes (dimensionless energy per
    /// time step; zero = unannotated). One figure covers all phases.
    pub(crate) active_power: u64,
    /// Power drawn while idle; never exceeds `active_power`.
    pub(crate) idle_power: u64,
}

impl CsdfActor {
    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution times, one per phase.
    pub fn phase_times(&self) -> &[u64] {
        &self.phase_times
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phase_times.len()
    }

    /// Power drawn while the actor executes (any phase); zero when the
    /// graph carries no power annotations.
    pub fn active_power(&self) -> u64 {
        self.active_power
    }

    /// Power drawn while the actor is idle.
    pub fn idle_power(&self) -> u64 {
        self.idle_power
    }
}

/// A CSDF channel with per-phase rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfChannel {
    pub(crate) name: String,
    pub(crate) source: ActorId,
    pub(crate) target: ActorId,
    /// Tokens produced per phase of the source actor.
    pub(crate) production: Vec<u64>,
    /// Tokens consumed per phase of the target actor.
    pub(crate) consumption: Vec<u64>,
    pub(crate) initial_tokens: u64,
}

impl CsdfChannel {
    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The producing actor.
    pub fn source(&self) -> ActorId {
        self.source
    }

    /// The consuming actor.
    pub fn target(&self) -> ActorId {
        self.target
    }

    /// Tokens produced per source phase.
    pub fn production(&self) -> &[u64] {
        &self.production
    }

    /// Tokens consumed per target phase.
    pub fn consumption(&self) -> &[u64] {
        &self.consumption
    }

    /// Initial tokens.
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Tokens produced over one full phase cycle of the source.
    pub fn cycle_production(&self) -> u64 {
        self.production.iter().sum()
    }

    /// Tokens consumed over one full phase cycle of the target.
    pub fn cycle_consumption(&self) -> u64 {
        self.consumption.iter().sum()
    }
}

/// An immutable CSDF graph.
///
/// # Examples
///
/// ```
/// use buffy_csdf::CsdfGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CsdfGraph::builder("updown");
/// // A two-phase producer: 2 tokens in its first phase, none in the second.
/// let p = b.actor("p", vec![1, 1]);
/// let c = b.actor("c", vec![2]);
/// b.channel("data", p, vec![2, 0], c, vec![1], 0)?;
/// let g = b.build()?;
/// assert_eq!(g.num_actors(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfGraph {
    pub(crate) name: String,
    pub(crate) actors: Vec<CsdfActor>,
    pub(crate) channels: Vec<CsdfChannel>,
    pub(crate) outputs: Vec<Vec<ChannelId>>,
    pub(crate) inputs: Vec<Vec<ChannelId>>,
}

impl CsdfGraph {
    /// Starts building a CSDF graph.
    pub fn builder(name: impl Into<String>) -> CsdfGraphBuilder {
        CsdfGraphBuilder {
            name: name.into(),
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actors.
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The actor with the given id.
    pub fn actor(&self, id: ActorId) -> &CsdfActor {
        &self.actors[id.index()]
    }

    /// The channel with the given id.
    pub fn channel(&self, id: ChannelId) -> &CsdfChannel {
        &self.channels[id.index()]
    }

    /// Iterates `(id, actor)`.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &CsdfActor)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (ActorId::new(i), a))
    }

    /// Iterates `(id, channel)`.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &CsdfChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId::new(i), c))
    }

    /// All actor ids.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len()).map(ActorId::new)
    }

    /// All channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.channels.len()).map(ChannelId::new)
    }

    /// Output channels of `actor`.
    pub fn output_channels(&self, actor: ActorId) -> &[ChannelId] {
        &self.outputs[actor.index()]
    }

    /// Input channels of `actor`.
    pub fn input_channels(&self, actor: ActorId) -> &[ChannelId] {
        &self.inputs[actor.index()]
    }

    /// Finds an actor by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors
            .iter()
            .position(|a| a.name == name)
            .map(ActorId::new)
    }

    /// Finds a channel by name.
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(ChannelId::new)
    }

    /// The default observed actor: the first actor without outputs, or the
    /// last actor.
    pub fn default_observed_actor(&self) -> ActorId {
        self.actor_ids()
            .find(|&a| self.outputs[a.index()].is_empty())
            .unwrap_or(ActorId::new(self.actors.len() - 1))
    }

    /// Converts an SDF graph into the equivalent single-phase CSDF graph.
    pub fn from_sdf(graph: &SdfGraph) -> CsdfGraph {
        let mut b = CsdfGraph::builder(graph.name());
        let ids: Vec<_> = graph
            .actors()
            .map(|(_, a)| {
                b.actor_with_power(
                    a.name(),
                    vec![a.execution_time()],
                    a.active_power(),
                    a.idle_power(),
                )
                .expect("valid SDF graph maps to valid CSDF")
            })
            .collect();
        for (_, ch) in graph.channels() {
            b.channel(
                ch.name(),
                ids[ch.source().index()],
                vec![ch.production()],
                ids[ch.target().index()],
                vec![ch.consumption()],
                ch.initial_tokens(),
            )
            .expect("valid SDF graph maps to valid CSDF");
        }
        b.build().expect("valid SDF graph maps to valid CSDF")
    }
}

/// Builder for [`CsdfGraph`].
#[derive(Debug, Clone)]
pub struct CsdfGraphBuilder {
    name: String,
    actors: Vec<CsdfActor>,
    channels: Vec<CsdfChannel>,
}

impl CsdfGraphBuilder {
    /// Adds an actor with the given per-phase execution times.
    pub fn actor(&mut self, name: impl Into<String>, phase_times: Vec<u64>) -> ActorId {
        let id = ActorId::new(self.actors.len());
        self.actors.push(CsdfActor {
            name: name.into(),
            phase_times,
            active_power: 0,
            idle_power: 0,
        });
        id
    }

    /// Adds an actor annotated with a power model: `active_power` while
    /// any phase executes, `idle_power` otherwise (both dimensionless
    /// energy per time step, shared across phases).
    ///
    /// # Errors
    ///
    /// [`CsdfError::IdlePowerExceedsActive`] when `idle_power >
    /// active_power`.
    pub fn actor_with_power(
        &mut self,
        name: impl Into<String>,
        phase_times: Vec<u64>,
        active_power: u64,
        idle_power: u64,
    ) -> Result<ActorId, CsdfError> {
        let name = name.into();
        if idle_power > active_power {
            return Err(CsdfError::IdlePowerExceedsActive { actor: name });
        }
        let id = ActorId::new(self.actors.len());
        self.actors.push(CsdfActor {
            name,
            phase_times,
            active_power,
            idle_power,
        });
        Ok(id)
    }

    /// Adds a channel with per-phase production/consumption vectors and
    /// initial tokens.
    ///
    /// # Errors
    ///
    /// Rejects unknown actors, rate vectors whose length does not match
    /// the actor's phase count, and ports that transfer no tokens over a
    /// whole cycle.
    pub fn channel(
        &mut self,
        name: impl Into<String>,
        source: ActorId,
        production: Vec<u64>,
        target: ActorId,
        consumption: Vec<u64>,
        initial_tokens: u64,
    ) -> Result<ChannelId, CsdfError> {
        let name = name.into();
        for id in [source, target] {
            if id.index() >= self.actors.len() {
                return Err(CsdfError::UnknownActor {
                    name: format!("{id}"),
                });
            }
        }
        if production.len() != self.actors[source.index()].num_phases()
            || consumption.len() != self.actors[target.index()].num_phases()
        {
            return Err(CsdfError::RateArityMismatch { channel: name });
        }
        if production.iter().sum::<u64>() == 0 || consumption.iter().sum::<u64>() == 0 {
            return Err(CsdfError::ZeroCycleRate { channel: name });
        }
        let id = ChannelId::new(self.channels.len());
        self.channels.push(CsdfChannel {
            name,
            source,
            target,
            production,
            consumption,
            initial_tokens,
        });
        Ok(id)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Rejects empty graphs, phase-less actors and duplicate names.
    pub fn build(self) -> Result<CsdfGraph, CsdfError> {
        if self.actors.is_empty() {
            return Err(CsdfError::EmptyGraph);
        }
        let mut names = HashSet::new();
        for a in &self.actors {
            if a.phase_times.is_empty() {
                return Err(CsdfError::NoPhases {
                    actor: a.name.clone(),
                });
            }
            if !names.insert(a.name.clone()) {
                return Err(CsdfError::DuplicateActorName {
                    name: a.name.clone(),
                });
            }
        }
        let mut cnames = HashSet::new();
        for c in &self.channels {
            if !cnames.insert(c.name.clone()) {
                return Err(CsdfError::DuplicateChannelName {
                    name: c.name.clone(),
                });
            }
        }
        let mut outputs = vec![Vec::new(); self.actors.len()];
        let mut inputs = vec![Vec::new(); self.actors.len()];
        for (i, c) in self.channels.iter().enumerate() {
            outputs[c.source.index()].push(ChannelId::new(i));
            inputs[c.target.index()].push(ChannelId::new(i));
        }
        Ok(CsdfGraph {
            name: self.name,
            actors: self.actors,
            channels: self.channels,
            outputs,
            inputs,
        })
    }
}

/// [`CsdfGraph`] plugs into the unified analysis kernel: the engine,
/// throughput analysis and exploration drivers in `buffy-analysis` /
/// `buffy-core` run CSDF graphs through this impl. Production rates are
/// indexed by the source actor's phase, consumption rates by the target
/// actor's phase, exactly as stored on [`CsdfChannel`].
impl DataflowSemantics for CsdfGraph {
    fn name(&self) -> &str {
        CsdfGraph::name(self)
    }

    fn kind(&self) -> &'static str {
        "csdf"
    }

    fn num_actors(&self) -> usize {
        CsdfGraph::num_actors(self)
    }

    fn num_channels(&self) -> usize {
        CsdfGraph::num_channels(self)
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
        CsdfGraph::input_channels(self, actor)
    }

    fn output_channels(&self, actor: ActorId) -> &[ChannelId] {
        CsdfGraph::output_channels(self, actor)
    }

    fn num_phases(&self, actor: ActorId) -> u32 {
        self.actor(actor).num_phases() as u32
    }

    fn execution_time(&self, actor: ActorId, phase: u32) -> u64 {
        self.actor(actor).phase_times()[phase as usize]
    }

    fn production(&self, channel: ChannelId, phase: u32) -> u64 {
        self.channel(channel).production()[phase as usize]
    }

    fn consumption(&self, channel: ChannelId, phase: u32) -> u64 {
        self.channel(channel).consumption()[phase as usize]
    }

    fn cycle_production(&self, channel: ChannelId) -> u64 {
        self.channel(channel).cycle_production()
    }

    fn cycle_consumption(&self, channel: ChannelId) -> u64 {
        self.channel(channel).cycle_consumption()
    }

    fn default_observed_actor(&self) -> ActorId {
        CsdfGraph::default_observed_actor(self)
    }

    /// Single-phase channels (both rate vectors of length 1, i.e. the SDF
    /// embedding) get the exact buffer minimal for liveness ([`bmlb`]), so
    /// the exploration grid of an embedded SDF graph is identical to the
    /// SDF explorer's. Phased channels fall back to the largest single
    /// production or consumption burst; the initial tokens must be storable
    /// either way.
    fn channel_lower_bound(&self, channel: ChannelId) -> u64 {
        let ch = self.channel(channel);
        if let ([p], [c]) = (ch.production(), ch.consumption()) {
            return bmlb(*p, *c, ch.initial_tokens());
        }
        let max_prod = ch.production().iter().copied().max().unwrap_or(0);
        let max_cons = ch.consumption().iter().copied().max().unwrap_or(0);
        max_prod.max(max_cons).max(ch.initial_tokens())
    }

    /// The gcd of all the channel's non-zero rates: token counts are always
    /// congruent to the initial tokens modulo it.
    fn channel_step(&self, channel: ChannelId) -> u64 {
        let ch = self.channel(channel);
        let mut g = 0u64;
        for &r in ch.production().iter().chain(ch.consumption()) {
            g = gcd_u64(g, r);
        }
        g.max(1)
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
    use buffy_analysis::{maximal_throughput, AnalysisError};
    use buffy_graph::{GraphError, Rational};

    #[test]
    fn build_and_query() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1, 2]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![1, 0], c, vec![1], 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.name(), "g");
        assert_eq!(g.actor(p).num_phases(), 2);
        assert_eq!(g.actor(p).phase_times(), &[1, 2]);
        assert_eq!(g.channel(ch).cycle_production(), 1);
        assert_eq!(g.channel(ch).cycle_consumption(), 1);
        assert_eq!(g.channel(ch).initial_tokens(), 2);
        assert_eq!(g.output_channels(p), &[ch]);
        assert_eq!(g.input_channels(c), &[ch]);
        assert_eq!(g.actor_by_name("c"), Some(c));
        assert_eq!(g.channel_by_name("d"), Some(ch));
        assert_eq!(g.default_observed_actor(), c);
    }

    #[test]
    fn validation_errors() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1, 2]);
        let c = b.actor("c", vec![1]);
        assert!(matches!(
            b.channel("d", p, vec![1], c, vec![1], 0),
            Err(CsdfError::RateArityMismatch { .. })
        ));
        assert!(matches!(
            b.channel("d", p, vec![0, 0], c, vec![1], 0),
            Err(CsdfError::ZeroCycleRate { .. })
        ));
        assert!(matches!(
            b.channel("d", p, vec![1, 0], ActorId::new(9), vec![1], 0),
            Err(CsdfError::UnknownActor { .. })
        ));

        let mut b = CsdfGraph::builder("g");
        b.actor("x", vec![]);
        assert!(matches!(b.build(), Err(CsdfError::NoPhases { .. })));

        let mut b = CsdfGraph::builder("g");
        b.actor("x", vec![1]);
        b.actor("x", vec![1]);
        assert!(matches!(
            b.build(),
            Err(CsdfError::DuplicateActorName { .. })
        ));

        assert!(matches!(
            CsdfGraph::builder("g").build(),
            Err(CsdfError::EmptyGraph)
        ));
    }

    #[test]
    fn power_annotation_is_carried_and_validated() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor_with_power("p", vec![1, 2], 9, 4).unwrap();
        let c = b.actor("c", vec![1]);
        b.channel("d", p, vec![1, 0], c, vec![1], 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.actor(p).active_power(), 9);
        assert_eq!(g.actor(p).idle_power(), 4);
        assert_eq!(g.actor(c).active_power(), 0);
        let m: &dyn DataflowSemantics = &g;
        assert_eq!(m.active_power(p), 9);
        assert_eq!(m.idle_power(p), 4);

        let mut b = CsdfGraph::builder("g");
        assert!(matches!(
            b.actor_with_power("p", vec![1], 2, 3),
            Err(CsdfError::IdlePowerExceedsActive { .. })
        ));
    }

    #[test]
    fn from_sdf_copies_power_annotations() {
        let mut b = SdfGraph::builder("sdf");
        let x = b.actor_with_power("x", 3, 12, 5).unwrap();
        let y = b.actor("y", 1);
        b.channel_with_tokens("c", x, 2, y, 3, 1).unwrap();
        let csdf = CsdfGraph::from_sdf(&b.build().unwrap());
        let x = csdf.actor_by_name("x").unwrap();
        let y = csdf.actor_by_name("y").unwrap();
        assert_eq!(csdf.actor(x).active_power(), 12);
        assert_eq!(csdf.actor(x).idle_power(), 5);
        assert_eq!(csdf.actor(y).active_power(), 0);
        assert_eq!(csdf.actor(y).idle_power(), 0);
    }

    #[test]
    fn from_sdf_single_phase() {
        let mut b = SdfGraph::builder("sdf");
        let x = b.actor("x", 3);
        let y = b.actor("y", 1);
        b.channel_with_tokens("c", x, 2, y, 3, 1).unwrap();
        let sdf = b.build().unwrap();
        let csdf = CsdfGraph::from_sdf(&sdf);
        assert_eq!(csdf.num_actors(), 2);
        let x = csdf.actor_by_name("x").unwrap();
        assert_eq!(csdf.actor(x).phase_times(), &[3]);
        let c = csdf.channel_by_name("c").unwrap();
        assert_eq!(csdf.channel(c).production(), &[2]);
        assert_eq!(csdf.channel(c).consumption(), &[3]);
        assert_eq!(csdf.channel(c).initial_tokens(), 1);
    }

    #[test]
    fn error_messages() {
        for e in [
            CsdfError::EmptyGraph,
            CsdfError::ZeroCycleRate {
                channel: "x".into(),
            },
            CsdfError::IdlePowerExceedsActive { actor: "x".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn dataflow_semantics_exposes_phases() {
        let mut b = CsdfGraph::builder("g");
        let p = b.actor("p", vec![1, 2]);
        let c = b.actor("c", vec![1]);
        let ch = b.channel("d", p, vec![1, 0], c, vec![1], 2).unwrap();
        let g = b.build().unwrap();
        let m: &dyn DataflowSemantics = &g;
        assert_eq!(m.num_phases(p), 2);
        assert_eq!(m.num_phases(c), 1);
        assert_eq!(m.execution_time(p, 1), 2);
        assert_eq!(m.production(ch, 0), 1);
        assert_eq!(m.production(ch, 1), 0);
        assert_eq!(m.consumption(ch, 0), 1);
        assert_eq!(m.cycle_production(ch), 1);
        assert_eq!(m.cycle_consumption(ch), 1);
        assert_eq!(m.channel_source(ch), p);
        assert_eq!(m.channel_target(ch), c);
        assert_eq!(m.initial_tokens(ch), 2);
        assert_eq!(m.default_observed_actor(), c);
        assert_eq!(g.repetition_cycles().unwrap(), vec![1, 1]);
        assert!(maximal_throughput(&g, c).unwrap() > Rational::ZERO);
    }

    #[test]
    fn error_conversions_round_trip() {
        // Balance-equation failures come out of the one balance solver as
        // the graph layer's errors, rendered the graph layer's way.
        let mut b = CsdfGraph::builder("bad");
        let x = b.actor("x", vec![1, 1]);
        let y = b.actor("y", vec![1]);
        b.channel("d", x, vec![2, 0], y, vec![1], 0).unwrap();
        b.channel("r", y, vec![1], x, vec![1, 0], 1).unwrap();
        let e = b.build().unwrap().repetition_cycles().unwrap_err();
        assert_eq!(
            e,
            AnalysisError::Graph(GraphError::Inconsistent {
                channel: "r".into(),
            })
        );
        assert!(
            e.to_string().contains("balance equation of channel \"r\""),
            "{e}"
        );
    }
}
