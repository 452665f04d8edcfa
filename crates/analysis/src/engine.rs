//! The timed self-timed execution engine.
//!
//! Implements the operational semantics of the paper (§2, §6, Fig. 2 and
//! the generated code of Fig. 8):
//!
//! - an actor may start firing when it is idle, enough tokens are present
//!   on every input channel, and enough free space is present on every
//!   output channel (*claiming* the space — sound because each channel has
//!   exactly one producer and auto-concurrency is excluded);
//! - tokens are consumed from the inputs and produced on the outputs at the
//!   *end* of the firing;
//! - every enabled actor fires as soon as possible, which maximizes
//!   throughput (§5) and makes execution deterministic (§6).
//!
//! The executor is [`DataflowEngine`], generic over any
//! [`DataflowSemantics`] model: each firing executes the actor's current
//! phase and advances it, so plain SDF (one phase per actor) and CSDF
//! (cyclic phase sequences) run through the same code.
//!
//! Time advances event by event. Between two firing completions nothing
//! changes but the busy clocks counting down: tokens, phases and the set
//! of idle actors stay put, so no new firing can become enabled. One call
//! to [`DataflowEngine::advance`] therefore jumps straight to the next
//! completion (or to a caller-given horizon, whichever comes first): it
//! subtracts the gap from every busy clock, completes the firings whose
//! clock reaches zero, then starts every enabled firing. The state it
//! leaves is exactly the one unit-by-unit ticking reaches at that instant.
//! [`DataflowEngine::step`] is `advance` with a horizon one unit ahead;
//! the analyses that look at every time instant (the full state space,
//! schedules, latency, memory peaks) share one walk that advances the
//! same way and reads the events in place. Actors with execution time 0
//! complete within the instant they start; a fixpoint loop handles chains
//! of zero-time firings. A timed start changes no token count, so it
//! cannot enable another actor: the start pass sweeps the actors again
//! only after a zero-time firing.

use crate::error::AnalysisError;
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId, StorageDistribution};

/// Per-channel capacities; `None` means conceptually unbounded storage.
///
/// ```
/// use buffy_analysis::Capacities;
/// use buffy_graph::{ChannelId, StorageDistribution};
///
/// let c = Capacities::from_distribution(&StorageDistribution::from_capacities(vec![4, 2]));
/// assert_eq!(c.get(ChannelId::new(0)), Some(4));
/// let u = Capacities::unbounded(2);
/// assert_eq!(u.get(ChannelId::new(0)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capacities {
    caps: Vec<Option<u64>>,
}

impl Capacities {
    /// All channels unbounded.
    pub fn unbounded(num_channels: usize) -> Capacities {
        Capacities {
            caps: vec![None; num_channels],
        }
    }

    /// Bounded capacities taken from a storage distribution.
    pub fn from_distribution(dist: &StorageDistribution) -> Capacities {
        Capacities {
            caps: dist.as_slice().iter().map(|&c| Some(c)).collect(),
        }
    }

    /// The capacity of `channel` (`None` = unbounded).
    pub fn get(&self, channel: ChannelId) -> Option<u64> {
        self.caps[channel.index()]
    }

    /// The raw per-channel capacities (`None` = unbounded), in channel
    /// order.
    pub fn as_slice(&self) -> &[Option<u64>] {
        &self.caps
    }

    /// Number of channels covered.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether no channels are covered.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

impl From<&StorageDistribution> for Capacities {
    fn from(d: &StorageDistribution) -> Self {
        Capacities::from_distribution(d)
    }
}

/// A snapshot of the execution state: remaining firing times, current
/// firing phases, and channel fill levels (paper Def. 5).
///
/// Plain SDF keeps every phase at 0: single-phase models hash and compare
/// identically whether they entered the kernel as SDF or as a
/// single-phase CSDF embedding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataflowState {
    /// Remaining time of the current firing per actor (0 = idle).
    pub act_clk: Vec<u64>,
    /// Current phase per actor (always 0 for plain SDF).
    pub phase: Vec<u32>,
    /// Tokens currently stored per channel.
    pub tokens: Vec<u64>,
}

/// What happened during one [`DataflowEngine::advance`] (or
/// [`step`](DataflowEngine::step)): completed and started firings with the
/// phase that fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FiringEvents {
    /// `(actor, phase)` firings completed at the instant reached (zero-time
    /// firings appear once per completed firing).
    pub completed: Vec<(ActorId, u32)>,
    /// `(actor, phase)` firings started at the instant reached (ditto).
    pub started: Vec<(ActorId, u32)>,
}

/// Outcome of advancing a [`DataflowEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FiringOutcome {
    /// Time advanced normally.
    Progress(FiringEvents),
    /// No actor is firing and none can start: the model is deadlocked
    /// (paper §3); the state will never change again.
    Deadlock,
}

/// Maximum number of zero-execution-time firings tolerated within a single
/// time instant before declaring a livelock.
const ZERO_TIME_FIRING_CAP: u64 = 1 << 22;

/// Deterministic self-timed executor for any [`DataflowSemantics`] model
/// under given channel capacities.
///
/// Events carry `(actor, phase)` pairs; for plain SDF the phase is
/// always 0.
///
/// # Examples
///
/// Reproducing the first states of the paper's §6 trace for the running
/// example with storage distribution ⟨4, 2⟩:
///
/// ```
/// use buffy_analysis::{Capacities, DataflowEngine};
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
///
/// let dist = StorageDistribution::from_capacities(vec![4, 2]);
/// let mut engine = DataflowEngine::new(&g, Capacities::from_distribution(&dist));
/// engine.start_initial()?;                     // a starts firing
/// assert_eq!(engine.state().act_clk, vec![1, 0, 0]);
/// assert_eq!(engine.state().tokens, vec![0, 0]);
/// engine.step()?;                              // a completes, produces 2, restarts
/// assert_eq!(engine.state().act_clk, vec![1, 0, 0]);
/// assert_eq!(engine.state().tokens, vec![2, 0]);
/// engine.step()?;                              // a completes; b starts (3 tokens)
/// assert_eq!(engine.state().act_clk, vec![0, 2, 0]);
/// assert_eq!(engine.state().tokens, vec![4, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataflowEngine<'g, M: DataflowSemantics + ?Sized> {
    model: &'g M,
    caps: Capacities,
    state: DataflowState,
    time: u64,
    started: bool,
    /// The events of the last [`advance_in_place`](Self::advance_in_place)
    /// (or start pass), reused from call to call.
    events: FiringEvents,
    /// When tracking is on, the channels whose lack of space blocks an
    /// idle actor that has all its input tokens, in the current state.
    space_blocked: Option<Vec<ChannelId>>,
    /// When tracking is on, each channel's peak occupancy so far: its
    /// initial tokens, or the largest `tokens + claimed production` at a
    /// start of its producer.
    peaks: Option<Vec<u64>>,
    /// Tracked with the peaks: each channel's smallest refused claim so
    /// far, the `tokens + production` its producer lacked the space for
    /// when the channel was that idle, token-ready actor's first short
    /// output (`u64::MAX` while the channel refused nothing).
    refused: Option<Vec<u64>>,
    /// Completed phase firings per actor, kept to cross-check token
    /// counts.
    #[cfg(feature = "strict-invariants")]
    fired: Vec<u64>,
    /// Time at the last invariant check; time must never move backwards.
    #[cfg(feature = "strict-invariants")]
    last_time: u64,
}

impl<'g, M: DataflowSemantics + ?Sized> DataflowEngine<'g, M> {
    /// Creates an engine at time 0 with all actors idle in phase 0 and
    /// channels at their initial token counts. Call
    /// [`start_initial`](Self::start_initial) before stepping.
    ///
    /// # Panics
    ///
    /// Panics if `caps` does not cover exactly the model's channels.
    pub fn new(model: &'g M, caps: Capacities) -> DataflowEngine<'g, M> {
        assert_eq!(
            caps.len(),
            model.num_channels(),
            "capacities must cover every channel"
        );
        let tokens = (0..model.num_channels())
            .map(|i| model.initial_tokens(ChannelId::new(i)))
            .collect();
        DataflowEngine {
            model,
            caps,
            state: DataflowState {
                act_clk: vec![0; model.num_actors()],
                phase: vec![0; model.num_actors()],
                tokens,
            },
            time: 0,
            started: false,
            events: FiringEvents::default(),
            space_blocked: None,
            peaks: None,
            refused: None,
            #[cfg(feature = "strict-invariants")]
            fired: vec![0; model.num_actors()],
            #[cfg(feature = "strict-invariants")]
            last_time: 0,
        }
    }

    /// Hard invariant checks compiled in by the `strict-invariants`
    /// feature: the clock is monotone, every channel's fill level equals
    /// `initial + produced − consumed` (token conservation, summing the
    /// phase rates of the completed firings), capacities are respected
    /// (channels whose initial tokens exceed the capacity may stay
    /// over-full until drained) and no running firing exceeds its phase's
    /// execution time.
    #[cfg(feature = "strict-invariants")]
    fn assert_invariants(&mut self) {
        assert!(self.time >= self.last_time, "time moved backwards");
        self.last_time = self.time;
        // Tokens moved by `fired` phase firings of `actor`, which always
        // executes its phases in order starting at 0.
        let moved = |fired: u64, actor: ActorId, rate: &dyn Fn(u32) -> u64| -> i128 {
            let n = self.model.num_phases(actor) as u64;
            let cycle: i128 = (0..n as u32).map(|p| rate(p) as i128).sum();
            let full = (fired / n) as i128 * cycle;
            let partial: i128 = (0..(fired % n) as u32).map(|p| rate(p) as i128).sum();
            full + partial
        };
        for i in 0..self.model.num_channels() {
            let cid = ChannelId::new(i);
            let src = self.model.channel_source(cid);
            let tgt = self.model.channel_target(cid);
            let produced = moved(self.fired[src.index()], src, &|p| {
                self.model.production(cid, p)
            });
            let consumed = moved(self.fired[tgt.index()], tgt, &|p| {
                self.model.consumption(cid, p)
            });
            let initial = self.model.initial_tokens(cid);
            let expected = initial as i128 + produced - consumed;
            assert_eq!(
                self.state.tokens[i] as i128,
                expected,
                "token conservation violated on channel {}",
                self.model.channel_name(cid)
            );
            if let Some(cap) = self.caps.get(cid) {
                assert!(
                    self.state.tokens[i] <= cap.max(initial),
                    "capacity exceeded on channel {}",
                    self.model.channel_name(cid)
                );
            }
        }
        for i in 0..self.model.num_actors() {
            let aid = ActorId::new(i);
            assert!(
                self.state.act_clk[i] <= self.model.execution_time(aid, self.state.phase[i]),
                "clock of actor {} exceeds its execution time",
                self.model.actor_name(aid)
            );
        }
    }

    /// The model being executed.
    pub fn model(&self) -> &'g M {
        self.model
    }

    /// The channel capacities in effect.
    pub fn capacities(&self) -> &Capacities {
        &self.caps
    }

    /// The current state.
    pub fn state(&self) -> &DataflowState {
        &self.state
    }

    /// The current time, in time units since the start.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether `actor` can start a firing of its current phase in the
    /// current state.
    pub fn is_enabled(&self, actor: ActorId) -> bool {
        if self.state.act_clk[actor.index()] > 0 {
            return false; // no auto-concurrency
        }
        self.has_input_tokens(actor) && self.first_space_short(actor).is_none()
    }

    /// Whether every input channel of idle `actor` holds the tokens its
    /// current phase consumes.
    fn has_input_tokens(&self, actor: ActorId) -> bool {
        let phase = self.state.phase[actor.index()];
        self.model
            .input_channels(actor)
            .iter()
            .all(|&cid| self.state.tokens[cid.index()] >= self.model.consumption(cid, phase))
    }

    /// The position, among `actor`'s output channels, of the first one
    /// whose free space is below what the current phase produces.
    fn first_space_short(&self, actor: ActorId) -> Option<usize> {
        let phase = self.state.phase[actor.index()];
        self.model.output_channels(actor).iter().position(|&cid| {
            lacks_space(
                &self.caps,
                &self.state.tokens,
                cid,
                self.model.production(cid, phase),
            )
        })
    }

    /// Switches on tracking of the space-blocked channels: from the next
    /// start pass on, [`space_blocked`](Self::space_blocked) lists the
    /// channels whose lack of free space keeps an idle, token-ready actor
    /// from starting. The start pass derives the set while it tests
    /// enabledness, so tracking costs no extra scan.
    pub(crate) fn track_space_blocked(&mut self) {
        self.space_blocked.get_or_insert_with(Vec::new);
    }

    /// The channels whose lack of free space blocks an idle actor that
    /// has all its input tokens, in the current state: each listed once,
    /// in the order the start pass met them. Empty unless
    /// [`track_space_blocked`](Self::track_space_blocked) was called
    /// before the last start pass.
    pub(crate) fn space_blocked(&self) -> &[ChannelId] {
        self.space_blocked.as_deref().unwrap_or(&[])
    }

    /// Switches on tracking of the channels' capacity box: from the next
    /// start pass on, every start raises each output channel's peak to
    /// the tokens it holds plus the production the start claims, and
    /// every idle, token-ready actor that lacks space lowers its first
    /// short output's smallest refused claim to the same sum. The start
    /// pass records both as it decides, so tracking costs no extra scan.
    pub(crate) fn track_capacity_box(&mut self) {
        self.peaks.get_or_insert_with(|| {
            (0..self.model.num_channels())
                .map(|i| self.model.initial_tokens(ChannelId::new(i)))
                .collect()
        });
        let channels = self.model.num_channels();
        self.refused.get_or_insert_with(|| vec![u64::MAX; channels]);
    }

    /// The peak occupancies and the smallest refused claims recorded
    /// since [`track_capacity_box`](Self::track_capacity_box), one of each
    /// per channel; `None` when tracking is off.
    pub(crate) fn take_capacity_box(&mut self) -> Option<(Vec<u64>, Vec<u64>)> {
        self.peaks.take().zip(self.refused.take())
    }

    /// The events of the last [`advance_in_place`](Self::advance_in_place)
    /// that made progress (empty after one that found a deadlock).
    pub(crate) fn events(&self) -> &FiringEvents {
        &self.events
    }

    /// Performs the initial start phase (time stays 0): every enabled actor
    /// begins its first firing, zero-time firings complete immediately.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ZeroTimeLivelock`] if zero-time firings never
    /// stabilize.
    pub fn start_initial(&mut self) -> Result<FiringEvents, AnalysisError> {
        assert!(!self.started, "start_initial must be called exactly once");
        self.started = true;
        self.events.completed.clear();
        self.events.started.clear();
        self.start_enabled()?;
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants();
        Ok(self.events.clone())
    }

    /// Advances the execution by one time unit: [`advance`](Self::advance)
    /// with a horizon one unit ahead.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ZeroTimeLivelock`] if zero-time firings never
    /// stabilize at the instant reached.
    ///
    /// # Panics
    ///
    /// Panics if [`start_initial`](Self::start_initial) has not been called.
    pub fn step(&mut self) -> Result<FiringOutcome, AnalysisError> {
        self.advance(self.time.saturating_add(1))
    }

    /// Advances the execution to the next firing completion, but not past
    /// `horizon`: time moves by the smallest remaining busy clock or by
    /// `horizon − time`, whichever is smaller, and by at least one unit.
    /// The gap is subtracted from every busy clock, the firings whose
    /// clock reaches 0 complete in actor index order, and every enabled
    /// firing starts.
    ///
    /// Nothing happens strictly inside the gap: no clock expires there, so
    /// tokens, phases and the idle set are those of the current instant,
    /// and after the start fixpoint no idle actor is enabled. The state
    /// reached is therefore exactly the one that [`step`](Self::step)
    /// reaches after the same number of time units.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ZeroTimeLivelock`] if zero-time firings never
    /// stabilize at the instant reached.
    ///
    /// # Panics
    ///
    /// Panics if [`start_initial`](Self::start_initial) has not been called.
    pub fn advance(&mut self, horizon: u64) -> Result<FiringOutcome, AnalysisError> {
        Ok(if self.advance_in_place(horizon)? {
            FiringOutcome::Progress(std::mem::take(&mut self.events))
        } else {
            FiringOutcome::Deadlock
        })
    }

    /// [`advance`](Self::advance) without handing the events out: they
    /// stay in the engine's buffer, readable through
    /// [`events`](Self::events), which the next call clears and refills
    /// without allocating. Returns `false` when the model is deadlocked
    /// (time and state stay put).
    ///
    /// # Errors
    ///
    /// See [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if [`start_initial`](Self::start_initial) has not been called.
    pub(crate) fn advance_in_place(&mut self, horizon: u64) -> Result<bool, AnalysisError> {
        assert!(self.started, "call start_initial before step");
        self.events.completed.clear();
        self.events.started.clear();
        // The start pass leaves no idle actor enabled, so the model is
        // deadlocked exactly when nothing is firing.
        let Some(next_expiry) = self.state.act_clk.iter().copied().filter(|&c| c > 0).min() else {
            debug_assert!(!self.any_enabled());
            return Ok(false);
        };

        let gap = next_expiry.min(horizon.saturating_sub(self.time)).max(1);
        self.time += gap;

        // 1. Advance clocks; complete firings that reach zero.
        for i in 0..self.state.act_clk.len() {
            if self.state.act_clk[i] > 0 {
                self.state.act_clk[i] -= gap;
                if self.state.act_clk[i] == 0 {
                    let phase = self.state.phase[i];
                    self.complete(ActorId::new(i));
                    self.events.completed.push((ActorId::new(i), phase));
                }
            }
        }

        // 2. Start every enabled firing (fixpoint for zero-time phases).
        self.start_enabled()?;
        #[cfg(feature = "strict-invariants")]
        self.assert_invariants();
        Ok(true)
    }

    /// Fast-forwards over `reps` repetitions of a window of advances that
    /// lasted `span` time units, moved each channel's tokens by `drift`
    /// and completed `completed[a]` firings of each actor `a`. An actor
    /// that is busy at the window's end without a completion in it was
    /// busy throughout, so its clock falls by `reps · span`; every other
    /// clock, and every phase, is the same after each repetition.
    ///
    /// The caller proves that every skipped repetition makes the window's
    /// decisions again (the cycle search's fast-forward, see the
    /// `throughput` module); the state reached is then the one that many
    /// more advances would reach. Events, space-blocked channels, peaks
    /// and refused claims stay those of the window's last advance.
    #[cold]
    pub(crate) fn repeat_window(
        &mut self,
        reps: u64,
        span: u64,
        drift: &[i128],
        completed: &[u64],
    ) {
        let elapsed = reps * span;
        self.time += elapsed;
        for (clk, &n) in self.state.act_clk.iter_mut().zip(completed) {
            if *clk > 0 && n == 0 {
                *clk -= elapsed;
            }
        }
        for (tokens, &d) in self.state.tokens.iter_mut().zip(drift) {
            *tokens = u64::try_from(i128::from(*tokens) + i128::from(reps) * d)
                .expect("a repeated window keeps every token count in range");
        }
        #[cfg(feature = "strict-invariants")]
        {
            for (fired, &n) in self.fired.iter_mut().zip(completed) {
                *fired += reps * n;
            }
            self.assert_invariants();
        }
    }

    fn any_enabled(&self) -> bool {
        (0..self.model.num_actors()).any(|i| self.is_enabled(ActorId::new(i)))
    }

    /// Applies the end-of-firing effects of `actor`'s current phase:
    /// consume inputs, produce outputs, advance the phase (paper Fig. 2).
    fn complete(&mut self, actor: ActorId) {
        #[cfg(feature = "strict-invariants")]
        {
            self.fired[actor.index()] += 1;
        }
        let phase = self.state.phase[actor.index()];
        for &cid in self.model.input_channels(actor) {
            let consume = self.model.consumption(cid, phase);
            debug_assert!(self.state.tokens[cid.index()] >= consume);
            self.state.tokens[cid.index()] -= consume;
        }
        for &cid in self.model.output_channels(actor) {
            let produce = self.model.production(cid, phase);
            self.state.tokens[cid.index()] += produce;
            if let Some(cap) = self.caps.get(cid) {
                // Over-full channels (initial tokens above the capacity)
                // are tolerated as long as nothing is produced on them.
                debug_assert!(
                    produce == 0 || self.state.tokens[cid.index()] <= cap,
                    "claimed space was violated on channel {}",
                    self.model.channel_name(cid)
                );
            }
        }
        self.state.phase[actor.index()] =
            (self.state.phase[actor.index()] + 1) % self.model.num_phases(actor);
    }

    /// Starts all enabled firings; zero-time firings complete immediately
    /// and may enable more starts (possibly of the actor's next phase),
    /// hence the fixpoint loop.
    ///
    /// Only a zero-time firing moves tokens within the instant: a timed
    /// start sets the starter's clock and nothing else, so it neither
    /// enables nor disables any other actor. A sweep without zero-time
    /// firings therefore ends the fixpoint, and it also sees every idle
    /// actor exactly as the instant leaves it — which is where the
    /// space-blocked channels are collected, when tracked. Peak
    /// occupancies, when tracked, are raised at each start, and the
    /// smallest refused claims lowered at each refusal.
    fn start_enabled(&mut self) -> Result<(), AnalysisError> {
        let mut zero_firings: u64 = 0;
        loop {
            let mut fired_zero_time = false;
            if let Some(blocked) = &mut self.space_blocked {
                blocked.clear();
            }
            for i in 0..self.model.num_actors() {
                let actor = ActorId::new(i);
                // An actor may chain several zero-time phases and then
                // start a timed one within the same pass.
                while self.state.act_clk[i] == 0 && self.has_input_tokens(actor) {
                    if let Some(first) = self.first_space_short(actor) {
                        self.note_space_blocked(actor, first);
                        self.note_refusal(actor, first);
                        break;
                    }
                    let phase = self.state.phase[i];
                    let exec = self.model.execution_time(actor, phase);
                    self.events.started.push((actor, phase));
                    self.note_claims(actor, phase);
                    if exec > 0 {
                        self.state.act_clk[i] = exec;
                        break;
                    }
                    // Zero-time phase: fires (and may refire) within the
                    // instant.
                    self.complete(actor);
                    self.events.completed.push((actor, phase));
                    fired_zero_time = true;
                    zero_firings += 1;
                    if zero_firings > ZERO_TIME_FIRING_CAP {
                        return Err(AnalysisError::ZeroTimeLivelock);
                    }
                }
            }
            if !fired_zero_time {
                return Ok(());
            }
        }
    }

    /// Raises, when tracking, the peak of each output channel of `actor`
    /// to what it holds once `phase`'s start claims its production.
    fn note_claims(&mut self, actor: ActorId, phase: u32) {
        let model = self.model;
        let Some(peaks) = &mut self.peaks else {
            return;
        };
        for &cid in model.output_channels(actor) {
            let claimed = self.state.tokens[cid.index()] + model.production(cid, phase);
            let peak = &mut peaks[cid.index()];
            *peak = (*peak).max(claimed);
        }
    }

    /// Lowers, when tracking, the smallest refused claim of idle,
    /// token-ready `actor`'s first short output (at output position
    /// `first`) to what the actor lacked the space for. Any capacity below
    /// it still refuses, so the actor stays blocked whatever its other
    /// outputs hold.
    fn note_refusal(&mut self, actor: ActorId, first: usize) {
        let model = self.model;
        let Some(refused) = &mut self.refused else {
            return;
        };
        let cid = model.output_channels(actor)[first];
        let phase = self.state.phase[actor.index()];
        let claim = self.state.tokens[cid.index()].saturating_add(model.production(cid, phase));
        let smallest = &mut refused[cid.index()];
        *smallest = (*smallest).min(claim);
    }

    /// Records, when tracking, the output channels of idle, token-ready
    /// `actor` that lack space: the one at output position `first` (the
    /// first short one) and every short one after it.
    fn note_space_blocked(&mut self, actor: ActorId, first: usize) {
        let model = self.model;
        let phase = self.state.phase[actor.index()];
        let outputs = &model.output_channels(actor)[first..];
        let Some(blocked) = &mut self.space_blocked else {
            return;
        };
        blocked.push(outputs[0]);
        for &cid in &outputs[1..] {
            if lacks_space(
                &self.caps,
                &self.state.tokens,
                cid,
                model.production(cid, phase),
            ) {
                blocked.push(cid);
            }
        }
    }
}

/// Whether channel `cid`, filled to `tokens`, lacks the free space to
/// claim `produce` more tokens under `caps`.
fn lacks_space(caps: &Capacities, tokens: &[u64], cid: ChannelId, produce: u64) -> bool {
    // Self-loops consume at the end of the firing, so the space check
    // cannot net out the consumption; claim the full production
    // (conservative, matches the paper's model).
    caps.get(cid)
        .is_some_and(|cap| cap.saturating_sub(tokens[cid.index()]) < produce)
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

    fn engine<'g>(g: &'g SdfGraph, caps: &[u64]) -> DataflowEngine<'g, SdfGraph> {
        let d = StorageDistribution::from_capacities(caps.to_vec());
        let mut e = DataflowEngine::new(g, Capacities::from_distribution(&d));
        e.start_initial().unwrap();
        e
    }

    /// Steps `e` `n` times.
    fn steps(e: &mut DataflowEngine<'_, SdfGraph>, n: u64) {
        for _ in 0..n {
            e.step().unwrap();
        }
    }

    /// The full §6 trace of the paper for γ = ⟨4, 2⟩:
    /// (1,0,0,0,0) → (1,0,0,2,0) → (0,2,0,4,0) → … throughput cycle.
    #[test]
    fn paper_trace_prefix() {
        let g = example();
        let mut e = engine(&g, &[4, 2]);
        assert_eq!(e.state().act_clk, vec![1, 0, 0]);
        assert_eq!(e.state().tokens, vec![0, 0]);

        e.step().unwrap(); // t=1: a completes (+2 on α), a restarts
        assert_eq!(e.state().act_clk, vec![1, 0, 0]);
        assert_eq!(e.state().tokens, vec![2, 0]);

        e.step().unwrap(); // t=2: a completes (+2), b starts; a blocked (space 0)
        assert_eq!(e.state().act_clk, vec![0, 2, 0]);
        assert_eq!(e.state().tokens, vec![4, 0]);

        e.step().unwrap(); // t=3: b still firing
        assert_eq!(e.state().act_clk, vec![0, 1, 0]);
        assert_eq!(e.state().tokens, vec![4, 0]);

        e.step().unwrap(); // t=4: b completes (−3 α, +1 β); a restarts; b lacks tokens
        assert_eq!(e.state().act_clk, vec![1, 0, 0]);
        assert_eq!(e.state().tokens, vec![1, 1]);

        // The execution reaches its periodic phase: the state at t=2 must
        // recur at t=9 (period 7, matching the paper's throughput 1/7).
        let snapshot = {
            let mut probe = engine(&g, &[4, 2]);
            steps(&mut probe, 2);
            probe.state().clone()
        };
        let mut probe = engine(&g, &[4, 2]);
        steps(&mut probe, 9);
        assert_eq!(probe.state(), &snapshot);
    }

    #[test]
    fn deadlock_detected_on_zero_capacity() {
        let g = example();
        // α can never hold the 2 tokens a produces.
        let mut e = DataflowEngine::new(
            &g,
            Capacities::from_distribution(&StorageDistribution::from_capacities(vec![1, 2])),
        );
        e.start_initial().unwrap();
        assert_eq!(e.state().act_clk, vec![0, 0, 0]);
        assert_eq!(e.step().unwrap(), FiringOutcome::Deadlock);
        // Deadlock is stable.
        assert_eq!(e.step().unwrap(), FiringOutcome::Deadlock);
    }

    #[test]
    fn unbounded_capacities_never_block() {
        let g = example();
        let mut e = DataflowEngine::new(&g, Capacities::unbounded(2));
        e.start_initial().unwrap();
        for _ in 0..50 {
            match e.step().unwrap() {
                FiringOutcome::Progress(_) => {}
                FiringOutcome::Deadlock => panic!("unbounded execution must not deadlock"),
            }
        }
        // a fires every time step: after 50 steps it produced 100 tokens,
        // of which b consumed some.
        assert!(e.state().tokens[0] > 20);
    }

    #[test]
    fn events_report_starts_and_completions() {
        let g = example();
        let mut e = engine(&g, &[4, 2]);
        let a = g.actor_by_name("a").unwrap();
        let b = g.actor_by_name("b").unwrap();
        if let FiringOutcome::Progress(ev) = e.step().unwrap() {
            assert_eq!(ev.completed, vec![(a, 0)]);
            assert_eq!(ev.started, vec![(a, 0)]);
        } else {
            panic!("expected progress");
        }
        if let FiringOutcome::Progress(ev) = e.step().unwrap() {
            assert_eq!(ev.completed, vec![(a, 0)]);
            assert_eq!(ev.started, vec![(b, 0)]);
        } else {
            panic!("expected progress");
        }
    }

    #[test]
    fn generic_events_carry_phases() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        let ev = e.start_initial().unwrap();
        let a = g.actor_by_name("a").unwrap();
        assert_eq!(ev.started, vec![(a, 0)]);
        // SDF stays in phase 0 forever.
        let FiringOutcome::Progress(ev) = e.step().unwrap() else {
            panic!("expected progress");
        };
        assert_eq!(ev.completed, vec![(a, 0)]);
        assert!(e.state().phase.iter().all(|&p| p == 0));
    }

    #[test]
    fn zero_time_actor_fires_within_step() {
        // src (1 time unit) -> z (0 time) -> sink capacity blocks at 3.
        let mut bld = SdfGraph::builder("zt");
        let src = bld.actor("src", 1);
        let z = bld.actor("z", 0);
        bld.channel("c1", src, 1, z, 1).unwrap();
        bld.channel("c2", z, 1, src, 1).unwrap(); // feedback, no initial token
        let g = bld.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![1, 1]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        // Feedback channel needs a token for src to ever fire: deadlock now.
        e.start_initial().unwrap();
        assert_eq!(e.step().unwrap(), FiringOutcome::Deadlock);

        // With one initial token on the feedback channel the pair ping-pongs.
        let mut bld = SdfGraph::builder("zt2");
        let src = bld.actor("src", 1);
        let z = bld.actor("z", 0);
        bld.channel("c1", src, 1, z, 1).unwrap();
        bld.channel_with_tokens("c2", z, 1, src, 1, 1).unwrap();
        let g = bld.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![1, 1]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        e.start_initial().unwrap(); // src consumes the feedback token, starts
        assert_eq!(e.state().act_clk[src.index()], 1);
        let FiringOutcome::Progress(ev) = e.step().unwrap() else {
            panic!("expected progress");
        };
        // src completes; z fires instantly (zero time) and returns the
        // token; src restarts — all in the same step.
        assert!(ev.completed.contains(&(z, 0)));
        assert!(ev.started.iter().filter(|&&(a, _)| a == src).count() == 1);
        assert_eq!(e.state().act_clk[src.index()], 1);
    }

    #[test]
    fn zero_time_livelock_detected() {
        // Two zero-time actors exchanging a token forever within one step.
        let mut bld = SdfGraph::builder("ll");
        let x = bld.actor("x", 0);
        let y = bld.actor("y", 0);
        bld.channel_with_tokens("f", x, 1, y, 1, 0).unwrap();
        bld.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = bld.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![1, 1]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        assert_eq!(
            e.start_initial().unwrap_err(),
            AnalysisError::ZeroTimeLivelock
        );
    }

    #[test]
    fn self_loop_serializes_firings() {
        // One token on a self-loop: the actor can never overlap itself, and
        // with consumption at the end, the loop admits one firing at a time.
        let mut bld = SdfGraph::builder("sl");
        let x = bld.actor("x", 2);
        bld.channel_with_tokens("s", x, 1, x, 1, 1).unwrap();
        let g = bld.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![2]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        e.start_initial().unwrap();
        assert_eq!(e.state().act_clk, vec![2]);
        e.step().unwrap();
        assert_eq!(e.state().act_clk, vec![1]);
        e.step().unwrap(); // completes, token returns, restarts
        assert_eq!(e.state().act_clk, vec![2]);
    }

    #[test]
    fn self_loop_capacity_must_hold_production_plus_pending() {
        // Capacity 1 with 1 initial token: claiming 1 space fails (free=0),
        // so the actor deadlocks — the conservative claim semantics.
        let mut bld = SdfGraph::builder("sl2");
        let x = bld.actor("x", 1);
        bld.channel_with_tokens("s", x, 1, x, 1, 1).unwrap();
        let g = bld.build().unwrap();
        let d = StorageDistribution::from_capacities(vec![1]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        e.start_initial().unwrap();
        assert_eq!(e.step().unwrap(), FiringOutcome::Deadlock);
    }

    #[test]
    fn advance_jumps_to_the_next_completion() {
        let g = example();
        let mut e = engine(&g, &[4, 2]);
        e.advance(u64::MAX).unwrap(); // t=1: a completes and restarts
        e.advance(u64::MAX).unwrap(); // t=2: a completes, b starts (clock 2)
        assert_eq!((e.time(), e.state().act_clk.clone()), (2, vec![0, 2, 0]));
        // b's completion at t=4 is the next event: t=3 is skipped.
        let FiringOutcome::Progress(ev) = e.advance(u64::MAX).unwrap() else {
            panic!("expected progress");
        };
        assert_eq!(e.time(), 4);
        assert_eq!(ev.completed, vec![(ActorId::new(1), 0)]);
        assert_eq!(e.state().tokens, vec![1, 1]);
    }

    #[test]
    fn advance_stops_at_the_horizon() {
        let g = example();
        let mut e = engine(&g, &[4, 2]);
        steps(&mut e, 2);
        let FiringOutcome::Progress(ev) = e.advance(3).unwrap() else {
            panic!("expected progress");
        };
        assert_eq!(ev, FiringEvents::default());
        assert_eq!((e.time(), e.state().act_clk.clone()), (3, vec![0, 1, 0]));
        // A horizon at or behind the clock still moves one unit.
        e.advance(0).unwrap();
        assert_eq!(e.time(), 4);
    }

    #[test]
    fn advance_reaches_the_states_of_unit_steps() {
        // Every advance lands on a state that stepping reaches at the same
        // time, and the unit steps in between change nothing but clocks.
        let g = example();
        for caps in [[4u64, 2], [6, 2], [7, 3], [5, 3]] {
            let mut jumping = engine(&g, &caps);
            let mut ticking = engine(&g, &caps);
            for horizon in [5u64, 9, 17, 30, 31, 64] {
                while jumping.time() < horizon {
                    jumping.advance(horizon).unwrap();
                    while ticking.time() < jumping.time() {
                        let FiringOutcome::Progress(ev) = ticking.step().unwrap() else {
                            panic!("unexpected deadlock");
                        };
                        if ticking.time() < jumping.time() {
                            assert_eq!(ev, FiringEvents::default(), "{caps:?}");
                        }
                    }
                    assert_eq!(jumping.state(), ticking.state(), "{caps:?}");
                }
            }
        }
    }

    #[test]
    fn advance_reports_deadlock_without_moving_time() {
        let g = example();
        let mut e = engine(&g, &[1, 2]);
        assert_eq!(e.advance(u64::MAX).unwrap(), FiringOutcome::Deadlock);
        assert_eq!(e.time(), 0);
    }

    #[test]
    #[should_panic(expected = "start_initial")]
    fn step_before_start_panics() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let mut e = DataflowEngine::new(&g, Capacities::from_distribution(&d));
        let _ = e.step();
    }

    #[test]
    #[should_panic(expected = "every channel")]
    fn capacity_arity_checked() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4]);
        let _ = DataflowEngine::new(&g, Capacities::from_distribution(&d));
    }
}
