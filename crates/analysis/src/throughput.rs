//! Throughput analysis via the reduced state space (paper §7).
//!
//! The self-timed execution of a consistent SDF graph under finite channel
//! capacities is deterministic and visits finitely many states, so it is
//! either periodic or deadlocks (paper Theorem 1). The throughput of an
//! actor is the number of its firings on the cycle of the state space
//! divided by the cycle's duration (Property 2).
//!
//! Storing every time instant is wasteful; the paper's *reduced state
//! space* keeps only the states at which the observed actor completes a
//! firing, extended with a `dist` component recording the time elapsed
//! since the previous completion (Fig. 4). This module implements exactly
//! that, generically over any [`DataflowSemantics`] model, in
//! [`throughput_analysis`]: one simulation that also collects, on request,
//! the storage-dependent channels the dependency-guided exploration grows
//! (the same set the replay [`dependencies_from_run_for`] derives) and
//! the run's *capacity box*. [`throughput_for`] and [`throughput`] are its
//! plain forms.
//!
//! # Capacity boxes
//!
//! The engine decides each start by comparing claims with capacities: an
//! idle actor holding its input tokens starts when every output can take
//! `tokens + production`, and is refused when one cannot. Two lemmas
//! follow, one per face of the box:
//!
//! - *Peak lemma.* Lowering a channel's capacity to no less than its peak
//!   occupancy (the largest claim any start made on it, and at least its
//!   initial tokens) changes no firing: every start still fits.
//! - *Refusal lemma.* Raising a channel's capacity to anything below its
//!   smallest refused claim (the smallest claim refused on it as an
//!   actor's first short output) changes no firing either: that output
//!   still refuses, so the actor stays blocked whatever its other outputs
//!   hold.
//!
//! So every capacity vector `c` with `peak ≤ c < refused` on each channel
//! makes every start decision of the run, and gives the identical report
//! and peaks. The upper-bound search starts from the peaks; the
//! exhaustive driver answers candidates inside an earlier analysis's box
//! without simulating them.
//!
//! Reduced states are packed into fixed-stride rows of one flat `u64`
//! arena ([`AnalysisWorkspace`]): a row holds the busy clocks, the token
//! counts, the phases (two per word), `dist` and the completion count, and
//! is hashed and compared as a word slice. Storing a state copies one row;
//! nothing is allocated per state or per engine event while the arena has
//! room.
//!
//! # Fast-forwarding repeated windows
//!
//! Between two completions of the observed actor nothing is stored, yet
//! the engine still advances through every firing in between: one
//! analysis of the H.263 decoder (q = 1, 594, 594, 1) is thousands of
//! advances of its iq/idct loop. After [`FAST_FORWARD_GATE`] advances
//! without an observed completion, the cycle search snapshots the state
//! after each advance (clocks, phases, tokens, time and each actor's
//! completions) into a ring of the last [`WINDOW_RING`]. The current
//! state S′ and the snapshot S taken `l` advances earlier form a *window*
//! when their phases are equal and every actor either has the same clock
//! in both or was busy throughout without completing, so that its clock
//! fell by the window's span `D = time′ − time`. Each channel's tokens
//! drifted by some `Δ` over the window.
//!
//! *Why every decision repeats.* An advance decides which busy clock
//! expires next, which firings complete, and, in the start pass, for each
//! idle actor, tests of the form `tokens ≥ θ` on its channels: `θ` is the
//! consumption of its current phase on an input, or `cap − prod + 1` on a
//! bounded output (the saturating space test, which also covers over-full
//! channels). In a model without zero-time phases a start moves no token,
//! so each start pass reads exactly the tokens its advance's completions
//! leave. From S′ on, repetition `m` of the window then meets the same
//! clocks, with the busy-throughout ones lower by `m·D`, and the tokens
//! its start passes read are the window's plus `m·Δ`. Every decision
//! repeats, by induction over its advances, as long as no
//! busy-throughout clock runs out (`J·D < clock` for `J` repetitions) and
//! no token count the window read, shifted by up to `J·Δ`, crosses a
//! threshold `θ` of its channel. Every phase's rates count as thresholds,
//! and a `θ` inside the window's own range `(lo, hi]` forbids the jump.
//! The search also keeps tokens in `[0, 2^64)` and the time below
//! `max_steps`, so step limits trip where they did.
//!
//! *Why only `J − 1`.* With `J ≥ 2`, the search applies `J − 1`
//! repetitions as arithmetic (tokens `+= (J − 1)·Δ`, busy-throughout
//! clocks `−= (J − 1)·D`, time `+= (J − 1)·D`) and simulates the `J`-th.
//! Repetition `m` makes the window's claims and refusals shifted by
//! `m·Δ`, so each lies between the window's and repetition `J`'s: a
//! skipped start claims no more on a channel than a simulated one (on a
//! channel with `Δ ≤ 0` the window's claims are the largest, on a rising
//! one those of repetition `J`), and a skipped refusal claims no less
//! than a simulated one. So the capacity box stays exact.
//!
//! *Why the flags need nothing.* A skipped advance's space-blocked set
//! equals that of the window's matching advance. The window lies after
//! the last observed completion, so that set is already in the running
//! segment, where the skipped advance's would have gone.
//!
//! *What is never skipped.* Reduced states: the ring only holds states of
//! the current stretch without an observed completion, so no repetition
//! of a window holds one either. Models with a zero-time phase are left
//! alone: there a start pass fires zero-time phases, tokens move between
//! the tests of one pass, and the snapshots do not show what each test
//! read.
//!
//! The only cost on the hot path is counting the advances since the last
//! observed completion; the snapshots and the jump live in a cold
//! function, and the ring is part of the [`AnalysisWorkspace`].
//!
//! [`dependencies_from_run_for`]: crate::dependencies_from_run_for

use crate::budget::CancelToken;
use crate::engine::{Capacities, DataflowEngine, DataflowState};
use crate::error::{AnalysisError, LimitKind};
use crate::interner::{Interned, RowStore, PROBE_BINS};
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, ChannelId, Rational, StorageDistribution};
use buffy_telemetry::{names, Gauge, Histogram, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// How many engine advances between cancellation polls in
/// [`throughput_analysis`]: the token is checked before the first
/// advance and then whenever `advances & CANCEL_STRIDE_MASK == 0`, i.e.
/// every 1024 advances, so the poll (one relaxed load, occasionally an
/// `Instant::now`) never shows up on the per-state hot path. The stride
/// counts advances, not time: one advance may jump many time units.
const CANCEL_STRIDE_MASK: u64 = 0x3FF;

/// How many advances without a completion of the observed actor the cycle
/// search makes before it looks for a repeating window to fast-forward
/// (module doc): short stretches never pay for the snapshots.
const FAST_FORWARD_GATE: u64 = 64;

/// How many snapshots the fast-forward keeps: it finds windows of up to
/// this many advances.
const WINDOW_RING: usize = 8;

/// Tunable limits for state-space searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplorationLimits {
    /// Maximum number of (reduced) states stored before giving up.
    pub max_states: usize,
    /// Maximum number of time units simulated before giving up. It bounds
    /// simulated time, not engine calls: the engine jumps from one firing
    /// completion to the next, and a cycle that closes exactly at
    /// `max_steps` is still found.
    pub max_steps: u64,
}

impl Default for ExplorationLimits {
    fn default() -> Self {
        ExplorationLimits {
            max_states: 1 << 22,
            max_steps: u64::MAX,
        }
    }
}

impl ExplorationLimits {
    /// The error for running into the limit of `kind` while analysing a
    /// model under `caps`: carries the limit value and the capacities so
    /// the offending distribution is identifiable from logs.
    pub fn exceeded(&self, kind: LimitKind, caps: &Capacities) -> AnalysisError {
        AnalysisError::StateLimitExceeded {
            limit: match kind {
                LimitKind::States => self.max_states as u64,
                LimitKind::Steps => self.max_steps,
            },
            kind,
            capacities: caps.as_slice().to_vec(),
        }
    }
}

/// Result of a throughput analysis for one storage distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Throughput of the observed actor: average firings per time step in
    /// the periodic phase; zero iff the execution deadlocks. For phased
    /// models every phase firing counts (divide by the phase count for
    /// whole cycles).
    pub throughput: Rational,
    /// Whether the execution deadlocked (paper §3).
    pub deadlocked: bool,
    /// Number of reduced states stored during the search (the paper's
    /// "maximum #states" metric of Table 2 counts these).
    pub states_stored: usize,
    /// Number of reduced states on the cycle (0 on deadlock).
    pub cycle_states: usize,
    /// Firings of the observed actor per period (0 on deadlock).
    pub firings_per_period: u64,
    /// Duration of the periodic phase in time units (0 on deadlock).
    pub period: u64,
    /// Time at which the cyclic phase was first entered (time of the first
    /// recurrent reduced state; 0 on deadlock).
    pub cycle_entry_time: u64,
}

impl ThroughputReport {
    fn deadlock(states_stored: usize) -> ThroughputReport {
        ThroughputReport {
            throughput: Rational::ZERO,
            deadlocked: true,
            states_stored,
            cycle_states: 0,
            firings_per_period: 0,
            period: 0,
            cycle_entry_time: 0,
        }
    }
}

/// Computes the throughput of `observed` when `model` executes self-timed
/// under the storage distribution `dist`, for any [`DataflowSemantics`]
/// model (SDF, CSDF, …). For phased models every phase completion of the
/// observed actor counts as a firing.
///
/// This is the paper's core single-point analysis: the generated program of
/// Fig. 8, with the reduced state space of §7.
///
/// # Errors
///
/// - [`AnalysisError::StateLimitExceeded`] if the limits are hit;
/// - [`AnalysisError::ZeroTimeLivelock`] for unbounded zero-time firing;
/// - [`AnalysisError::ZeroPeriod`] if a period of zero duration is found
///   (only possible when the observed actor has execution time 0).
///
/// # Examples
///
/// The paper's ground truth for the running example (§5, §8): γ = ⟨4, 2⟩
/// yields throughput 1/7 for actor `c`, γ = ⟨6, 2⟩ yields 1/6.
///
/// ```
/// use buffy_analysis::throughput;
/// use buffy_graph::{Rational, SdfGraph, StorageDistribution};
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
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![4, 2]), c)?;
/// assert_eq!(r.throughput, Rational::new(1, 7));
/// let r = throughput(&g, &StorageDistribution::from_capacities(vec![6, 2]), c)?;
/// assert_eq!(r.throughput, Rational::new(1, 6));
/// # Ok(())
/// # }
/// ```
pub fn throughput<M: DataflowSemantics + ?Sized>(
    model: &M,
    dist: &StorageDistribution,
    observed: ActorId,
) -> Result<ThroughputReport, AnalysisError> {
    throughput_for(
        model,
        Capacities::from_distribution(dist),
        observed,
        ExplorationLimits::default(),
    )
}

/// [`throughput`] under explicit capacities and limits: this is
/// [`throughput_analysis`] with no cancellation, no dependency flags and
/// a fresh workspace.
///
/// # Errors
///
/// See [`throughput`].
pub fn throughput_for<M: DataflowSemantics + ?Sized>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    limits: ExplorationLimits,
) -> Result<ThroughputReport, AnalysisError> {
    let request = AnalysisRequest {
        limits,
        ..AnalysisRequest::default()
    };
    throughput_analysis(
        model,
        caps,
        observed,
        &request,
        &mut AnalysisWorkspace::new(),
    )
    .map(|analysis| analysis.report)
}

/// A token that never trips: the cancellation of an uncancellable
/// request.
static NEVER: CancelToken = CancelToken::new();

/// How to run one [`throughput_analysis`]: everything besides the model,
/// the capacities, the observed actor and the workspace.
///
/// The default request has the default limits, a token that never trips,
/// no dependency flags and no peak occupancies.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisRequest<'a> {
    /// State and time limits of the cycle search.
    pub limits: ExplorationLimits,
    /// Polled before the first engine advance and then every 1024
    /// advances (a coarse stride, not per state); a trip ends the
    /// analysis with [`AnalysisError::Cancelled`].
    pub cancel: &'a CancelToken,
    /// Whether to collect the storage-dependent channels
    /// ([`ThroughputAnalysis::dependent`]).
    pub dependencies: bool,
    /// Whether to record each channel's peak occupancy and smallest
    /// refused claim ([`ThroughputAnalysis::peaks`] and
    /// [`ThroughputAnalysis::refused`], the analysis's capacity box).
    pub peaks: bool,
}

impl Default for AnalysisRequest<'_> {
    fn default() -> Self {
        AnalysisRequest {
            limits: ExplorationLimits::default(),
            cancel: &NEVER,
            dependencies: false,
            peaks: false,
        }
    }
}

/// The result of one [`throughput_analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputAnalysis {
    /// The throughput and the cycle metadata.
    pub report: ThroughputReport,
    /// The storage-dependent channels, when the request asked for them:
    /// `true` at index `i` iff channel `i` lacked the space for an idle
    /// actor that had all its input tokens, at some instant of one period
    /// of the periodic phase (or in the deadlock state). Growing any other
    /// channel cannot raise the throughput.
    pub dependent: Option<Vec<bool>>,
    /// Each channel's peak occupancy, when the request asked for it: the
    /// largest `tokens + claimed production` at any start of its producer
    /// in the run (the transient and one period, or up to the deadlock),
    /// and at least its initial tokens. Capping every channel at no less
    /// than its peak changes no firing, so the report stays the same.
    pub peaks: Option<Vec<u64>>,
    /// Each channel's smallest refused claim, recorded with the peaks:
    /// the smallest `tokens + production` that an idle actor holding its
    /// input tokens lacked the space for on this channel, its first short
    /// output, or `u64::MAX` when the channel refused no claim. Raising a
    /// capacity to anything below it changes no firing either, so any
    /// capacities `c` with `peaks ≤ c < refused` on every channel (the
    /// analysis's *capacity box*) give this very run, report and peaks.
    pub refused: Option<Vec<u64>>,
}

impl ThroughputAnalysis {
    /// The analysis with its capacity box, `(peaks, refused)`, taken out
    /// of the engine that ran it.
    fn of<M: DataflowSemantics + ?Sized>(
        report: ThroughputReport,
        dependent: Option<Vec<bool>>,
        engine: &mut DataflowEngine<'_, M>,
    ) -> ThroughputAnalysis {
        let (peaks, refused) = engine.take_capacity_box().unzip();
        ThroughputAnalysis {
            report,
            dependent,
            peaks,
            refused,
        }
    }
}

/// Reusable per-analysis allocations: the packed reduced-state arena with
/// its hash index, the time/firing bookkeeping vectors of the cycle search,
/// the dependency trace and the fast-forward's snapshots.
///
/// One workspace serves one analysis at a time; between analyses it is
/// *reset, not reallocated*, so a worker that evaluates thousands of
/// distributions pays the arena's allocation (and the index's grow/
/// rehash ladder) once instead of per distribution. A workspace never
/// changes any computed value — the self-timed execution is fully
/// determined by the model and the capacities; the workspace only decides
/// where the intermediate states live.
#[derive(Debug, Default)]
pub struct AnalysisWorkspace {
    store: RowStore,
    /// The row being looked up.
    row: Vec<u64>,
    times: Vec<u64>,
    firing_counts: Vec<u32>,
    /// Touched only by analyses that collect the flags.
    trace: DependencyTrace,
    /// Touched only by long stretches without an observed completion.
    windows: WindowRing,
}

impl AnalysisWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> AnalysisWorkspace {
        AnalysisWorkspace::default()
    }

    /// Readies the workspace for one analysis with rows of `stride` words:
    /// everything but the dependency trace is cleared, allocations are
    /// kept.
    fn prepare(&mut self, stride: usize) {
        self.store.reset(stride);
        self.times.clear();
        self.firing_counts.clear();
    }
}

/// The space-blocked channels of one analysis of a model with `channels`
/// channels, as bitsets of `words` words: one closed segment per stored
/// reduced state (the channels found space-blocked since the previous
/// stored state, up to and including this one) and the running segment
/// under construction.
#[derive(Debug, Default)]
struct DependencyTrace {
    channels: usize,
    words: usize,
    segments: Vec<u64>,
    running: Vec<u64>,
}

impl DependencyTrace {
    /// Readies the trace for an analysis of a model with `channels`
    /// channels: empty, allocations kept.
    fn reset(&mut self, channels: usize) {
        self.channels = channels;
        self.words = channels.div_ceil(64).max(1);
        self.segments.clear();
        self.running.clear();
        self.running.resize(self.words, 0);
    }

    /// ORs `blocked` into the running segment.
    fn note(&mut self, blocked: &[ChannelId]) {
        for cid in blocked {
            self.running[cid.index() / 64] |= 1 << (cid.index() % 64);
        }
    }

    /// Closes the running segment beside the reduced state just stored.
    fn close_segment(&mut self) {
        self.segments.extend_from_slice(&self.running);
        self.running.fill(0);
    }

    /// The flags of a cycle that closes on stored state `k`: the union of
    /// the segments after `k` and the running one.
    fn cycle_flags(&mut self, k: usize) -> Vec<bool> {
        for segment in self.segments[(k + 1) * self.words..].chunks_exact(self.words) {
            for (acc, word) in self.running.iter_mut().zip(segment) {
                *acc |= word;
            }
        }
        self.flags()
    }

    /// The flags of a deadlock: the final state's set `blocked`.
    fn deadlock_flags(&mut self, blocked: &[ChannelId]) -> Vec<bool> {
        self.running.fill(0);
        self.note(blocked);
        self.flags()
    }

    /// Expands the running segment to one flag per channel.
    fn flags(&self) -> Vec<bool> {
        (0..self.channels)
            .map(|i| self.running[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }
}

/// The fast-forward's memory of one stretch without an observed
/// completion: the last [`WINDOW_RING`] states after an advance, each a
/// slot of `1 + 3·actors + channels` words (the time, the busy clocks, the
/// phases, the token counts and each actor's completions so far), and the
/// scratch of a jump.
#[derive(Debug, Default)]
struct WindowRing {
    actors: usize,
    channels: usize,
    slots: Vec<u64>,
    /// The slot the next snapshot goes to.
    head: usize,
    /// How many slots hold a snapshot of the current stretch.
    len: usize,
    /// Completions per actor since the stretch's first snapshot.
    completed: Vec<u64>,
    /// Per channel, the token drift of the window being jumped.
    drift: Vec<i128>,
    /// Per actor, the completions in the window being jumped.
    window_completed: Vec<u64>,
}

impl WindowRing {
    /// Readies the ring for a new stretch of a model with `actors` actors
    /// and `channels` channels: empty, allocations kept.
    fn reset(&mut self, actors: usize, channels: usize) {
        self.actors = actors;
        self.channels = channels;
        self.slots.clear();
        self.slots
            .resize(WINDOW_RING * (1 + 3 * actors + channels), 0);
        self.completed.clear();
        self.completed.resize(actors, 0);
        self.drift.clear();
        self.drift.resize(channels, 0);
        self.window_completed.clear();
        self.window_completed.resize(actors, 0);
        self.head = 0;
        self.len = 0;
    }

    /// Where, within a slot, the clocks, the phases, the token counts and
    /// the completions start (the time is word 0).
    fn layout(&self) -> (usize, usize, usize, usize) {
        let (a, c) = (self.actors, self.channels);
        (1, 1 + a, 1 + 2 * a, 1 + 2 * a + c)
    }

    /// Where the snapshot taken `back` advances ago (`1 ..= len`) starts.
    fn start(&self, back: usize) -> usize {
        let stride = 1 + 3 * self.actors + self.channels;
        (self.head + WINDOW_RING - back) % WINDOW_RING * stride
    }

    /// Remembers the state `state` at `time`, dropping the oldest
    /// snapshot when the ring is full.
    fn push(&mut self, state: &DataflowState, time: u64) {
        let s = self.start(WINDOW_RING);
        let (clk, ph, tok, done) = self.layout();
        self.slots[s] = time;
        self.slots[s + clk..s + ph].copy_from_slice(&state.act_clk);
        for (word, &phase) in self.slots[s + ph..s + tok].iter_mut().zip(&state.phase) {
            *word = u64::from(phase);
        }
        self.slots[s + tok..s + done].copy_from_slice(&state.tokens);
        self.slots[s + done..s + done + self.actors].copy_from_slice(&self.completed);
        self.head = (self.head + 1) % WINDOW_RING;
        self.len = (self.len + 1).min(WINDOW_RING);
    }

    /// The length of the shortest window that ends at `state` (reached
    /// at `time`): the number of advances back to a snapshot with the
    /// same phases, at which every actor either had the same clock or was
    /// busy with a clock above the elapsed time, which has since fallen
    /// by that time (so it cannot have completed in between).
    fn window(&self, state: &DataflowState, time: u64) -> Option<usize> {
        let (clk, ph, ..) = self.layout();
        (1..=self.len).find(|&back| {
            let then = &self.slots[self.start(back)..];
            let span = time - then[0];
            (0..self.actors).all(|i| {
                then[ph + i] == u64::from(state.phase[i])
                    && (state.act_clk[i] == then[clk + i]
                        || then[clk + i] > span && state.act_clk[i] == then[clk + i] - span)
            })
        })
    }

    /// How many further repetitions `J` of the window of `back` advances
    /// that ends at the engine's state provably make the window's
    /// decisions again (module doc); fills `drift` and `window_completed`
    /// on the way.
    fn repetitions<M: DataflowSemantics + ?Sized>(
        &mut self,
        engine: &DataflowEngine<'_, M>,
        back: usize,
        max_steps: u64,
    ) -> u64 {
        let (model, caps, state, time) = (
            engine.model(),
            engine.capacities(),
            engine.state(),
            engine.time(),
        );
        let s = self.start(back);
        let (clk, _, tok, done) = self.layout();
        let span = time - self.slots[s];
        // Time stays below the step limit after the J − 1 skipped ones.
        let room = max_steps.saturating_sub(time);
        if room == 0 {
            return 0;
        }
        let mut reps = (room - 1) / span + 1;
        // An actor busy throughout must not complete: J·span < clock.
        for (i, &now) in state.act_clk.iter().enumerate() {
            if now != self.slots[s + clk + i] {
                reps = reps.min((now - 1) / span);
            }
        }
        for ch in 0..self.channels {
            if reps < 2 {
                return reps;
            }
            let now = state.tokens[ch];
            let drift = i128::from(now) - i128::from(self.slots[s + tok + ch]);
            self.drift[ch] = drift;
            if drift == 0 {
                continue;
            }
            // The token counts the window's start passes read.
            let (lo, hi) = (1..back)
                .map(|b| self.slots[self.start(b) + tok + ch])
                .fold((now, now), |(lo, hi), t| (lo.min(t), hi.max(t)));
            let within = |theta: i128| repetitions_within(lo, hi, drift, theta);
            // Token counts stay in [0, 2^64).
            reps = reps.min(within(0)).min(within(1 << 64));
            let cid = ChannelId::new(ch);
            let target = model.channel_target(cid);
            for p in 0..model.num_phases(target) {
                reps = reps.min(within(i128::from(model.consumption(cid, p))));
            }
            if let Some(cap) = caps.get(cid) {
                let source = model.channel_source(cid);
                for p in 0..model.num_phases(source) {
                    let produce = model.production(cid, p);
                    if produce > 0 {
                        reps = reps.min(within(i128::from(cap) - i128::from(produce) + 1));
                    }
                }
            }
        }
        for i in 0..self.actors {
            self.window_completed[i] = self.completed[i] - self.slots[s + done + i];
        }
        reps
    }
}

/// The most repetitions of a window whose token counts span `[lo, hi]`
/// and drift by `drift ≠ 0` per repetition that keep every count on the
/// same side of the test `tokens ≥ theta`; 0 when `theta` splits the
/// window's own range.
fn repetitions_within(lo: u64, hi: u64, drift: i128, theta: i128) -> u64 {
    let (lo, hi) = (i128::from(lo), i128::from(hi));
    let reps = if lo < theta && theta <= hi {
        0
    } else if drift > 0 && theta > hi {
        (theta - 1 - hi) / drift
    } else if drift < 0 && theta <= lo {
        (lo - theta) / -drift
    } else {
        return u64::MAX;
    };
    u64::try_from(reps).unwrap_or(u64::MAX)
}

/// One advance of a long stretch without an observed completion: counts
/// its completions, then jumps over the repetitions of a window that ends
/// here when at least two provably repeat it (module doc), or else
/// remembers the state. `fresh` starts a new stretch.
#[cold]
#[inline(never)]
fn fast_forward<M: DataflowSemantics + ?Sized>(
    engine: &mut DataflowEngine<'_, M>,
    ring: &mut WindowRing,
    fresh: bool,
    max_steps: u64,
) {
    if fresh {
        let model = engine.model();
        ring.reset(model.num_actors(), model.num_channels());
    }
    for &(actor, _) in &engine.events().completed {
        ring.completed[actor.index()] += 1;
    }
    if let Some(back) = ring.window(engine.state(), engine.time()) {
        let reps = ring.repetitions(engine, back, max_steps);
        if reps >= 2 {
            // Repetition J is simulated: its starts raise the peaks of the
            // rising channels.
            let span = engine.time() - ring.slots[ring.start(back)];
            engine.repeat_window(reps - 1, span, &ring.drift, &ring.window_completed);
            ring.len = 0;
            return;
        }
    }
    ring.push(engine.state(), engine.time());
}

/// The reduced-state-space analysis of paper §7 over a caller-owned
/// [`AnalysisWorkspace`]: the throughput of `observed` when `model`
/// executes self-timed under `caps`, and, when `request.dependencies` and
/// `request.peaks` are set, the storage-dependent channels and the
/// capacity box of that same execution.
///
/// This is the one entry point of the analysis: the exploration drivers
/// call it with their cancel token, their limits and a pooled workspace.
/// The report is byte-identical for every workspace state, and with the
/// flags and the peaks on or off.
///
/// The flags come out of the cycle search itself. After every engine
/// advance the engine's space-blocked set (derived in its start pass) is
/// ORed into a running segment, which closes at the next completion of
/// the observed actor and is stored beside that reduced state. When the
/// cycle closes on stored state `k`, the flags are the union of the
/// segments after `k` and the running one: exactly the instants of
/// `(times[k], times[k] + period]`, and the state at the close equals the
/// state at `times[k]`. On deadlock they are the final state's set.
/// An analysis without flags touches none of this: the trace exists only
/// when requested.
///
/// The capacity box comes from the engine's start pass, which raises
/// each output channel's peak at every start and lowers a channel's
/// smallest refused claim at every refusal on it. The run covers every
/// decision of the infinite execution: the periodic phase repeats the
/// instants of `(times[k], times[k] + period]`.
///
/// # Errors
///
/// See [`throughput`]; additionally [`AnalysisError::Cancelled`] when
/// `request.cancel` trips mid-analysis.
pub fn throughput_analysis<M: DataflowSemantics + ?Sized>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    request: &AnalysisRequest<'_>,
    workspace: &mut AnalysisWorkspace,
) -> Result<ThroughputAnalysis, AnalysisError> {
    workspace.prepare(row_stride(model.num_actors(), model.num_channels()));
    if request.dependencies {
        workspace.trace.reset(model.num_channels());
    }
    // Telemetry is observation-only and fetched once per analysis: when no
    // recorder is installed this is a single relaxed load and a branch.
    let telemetry = buffy_telemetry::active().map(AnalysisTelemetry::new);
    if telemetry.is_none() {
        return cycle_search(model, caps, observed, request, workspace);
    }
    let started = Instant::now();
    let result = cycle_search(model, caps, observed, request, workspace);
    if let Some(tel) = &telemetry {
        tel.record(&workspace.store, started.elapsed().as_nanos() as u64);
    }
    result
}

/// Whether some phase of some actor of `model` takes no time.
fn has_zero_time_phase<M: DataflowSemantics + ?Sized>(model: &M) -> bool {
    (0..model.num_actors()).map(ActorId::new).any(|actor| {
        (0..model.num_phases(actor)).any(|phase| model.execution_time(actor, phase) == 0)
    })
}

/// Words per packed reduced state: the busy clocks, the token counts, the
/// phases two to a word, `dist` and the completion count.
pub(crate) fn row_stride(actors: usize, channels: usize) -> usize {
    actors + channels + actors.div_ceil(2) + 2
}

/// Packs the reduced state `(state, dist, firings)` into `row`, laid out
/// as [`row_stride`] describes.
pub(crate) fn pack_row(row: &mut Vec<u64>, state: &DataflowState, dist: u64, firings: u32) {
    row.clear();
    row.extend_from_slice(&state.act_clk);
    row.extend_from_slice(&state.tokens);
    row.extend(
        state
            .phase
            .chunks(2)
            .map(|pair| u64::from(pair[0]) | u64::from(pair.get(1).copied().unwrap_or(0)) << 32),
    );
    row.push(dist);
    row.push(u64::from(firings));
}

/// The state packed into `row` by [`pack_row`] for a model with `actors`
/// actors and `channels` channels.
pub(crate) fn unpack_row(row: &[u64], actors: usize, channels: usize) -> DataflowState {
    let phases = &row[actors + channels..];
    DataflowState {
        act_clk: row[..actors].to_vec(),
        phase: (0..actors)
            .map(|i| (phases[i / 2] >> (32 * (i % 2))) as u32)
            .collect(),
        tokens: row[actors..actors + channels].to_vec(),
    }
}

/// Per-analysis telemetry handles, fetched once per call so the state
/// loop itself records nothing.
struct AnalysisTelemetry {
    states: Arc<Histogram>,
    wall: Arc<Histogram>,
    probe_len: Arc<Histogram>,
    occupancy: Arc<Gauge>,
}

impl AnalysisTelemetry {
    fn new(recorder: Arc<Recorder>) -> AnalysisTelemetry {
        AnalysisTelemetry {
            states: recorder.histogram(
                names::ANALYSIS_STATES,
                "Reduced states stored per throughput analysis.",
            ),
            wall: recorder.histogram(
                names::ANALYSIS_WALL_NS,
                "Cycle-detection wall time per throughput analysis, in nanoseconds.",
            ),
            probe_len: recorder.histogram(
                names::INTERNER_PROBE_LEN,
                "State-interner probe lengths (slots inspected; 1 = direct hit).",
            ),
            occupancy: recorder.gauge(
                names::INTERNER_OCCUPANCY_MAX,
                "Largest state-interner occupancy (entries) seen in any analysis.",
            ),
        }
    }

    /// Folds the store's always-on scratch tallies into the shared
    /// histograms — once per analysis, never per state.
    fn record(&self, store: &RowStore, wall_ns: u64) {
        self.states.record(store.len() as u64);
        self.wall.record(wall_ns);
        self.occupancy.record_max(store.len() as u64);
        let probes = store.probe_stats();
        for (i, &count) in probes.tally.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // The last bin aggregates lengths >= PROBE_BINS; report those
            // at the observed maximum.
            let len = if i + 1 < PROBE_BINS {
                (i + 1) as u64
            } else {
                probes.max_probe
            };
            self.probe_len.record_n(len, count);
        }
    }
}

/// The cycle search proper; the workspace is owned by the caller (and
/// already prepared) so telemetry can read its statistics on every exit
/// path and the allocations outlive the analysis.
fn cycle_search<M: DataflowSemantics + ?Sized>(
    model: &M,
    caps: Capacities,
    observed: ActorId,
    request: &AnalysisRequest<'_>,
    workspace: &mut AnalysisWorkspace,
) -> Result<ThroughputAnalysis, AnalysisError> {
    let AnalysisWorkspace {
        store,
        row,
        times, // time of each reduced state
        firing_counts,
        trace,
        windows,
    } = workspace;
    // The flag-free loop touches no trace buffer at all: a zero-length
    // `fill` on an unallocated `Vec` costs about 130 ns per call on an
    // AVX-512 Xeon with glibc 2.36, against about 3 ns on a heap buffer
    // (DESIGN.md §13).
    let mut trace = request.dependencies.then_some(trace);
    let limits = request.limits;
    let completions = |engine: &DataflowEngine<'_, M>| {
        engine
            .events()
            .completed
            .iter()
            .filter(|&&(a, _)| a == observed)
            .count() as u32
    };
    let mut engine = DataflowEngine::new(model, caps);
    if trace.is_some() {
        engine.track_space_blocked();
    }
    if request.peaks {
        engine.track_capacity_box();
    }
    engine.start_initial()?;
    if let Some(trace) = &mut trace {
        trace.note(engine.space_blocked());
    }
    let mut last_completion: u64 = 0;

    // The observed actor may complete during the initial start phase when
    // its execution time is 0.
    let pending = completions(&engine);
    if pending > 0 {
        pack_row(row, engine.state(), 0, pending);
        store.intern(row);
        times.push(0);
        firing_counts.push(pending);
        if let Some(trace) = &mut trace {
            trace.close_segment();
        }
    }

    // Only completions can change the reduced state space, so the engine
    // jumps from one completion to the next; the horizon keeps the step
    // limit exact. Long stretches without an observed completion are
    // fast-forwarded, except in models with a zero-time phase.
    let mut advances: u64 = 0;
    let mut quiet: u64 = 0;
    let gate = if has_zero_time_phase(model) {
        u64::MAX
    } else {
        FAST_FORWARD_GATE
    };
    loop {
        if advances & CANCEL_STRIDE_MASK == 0 {
            if let Some(reason) = request.cancel.check() {
                return Err(AnalysisError::Cancelled { reason });
            }
        }
        advances += 1;
        if engine.time() >= limits.max_steps {
            return Err(limits.exceeded(LimitKind::Steps, engine.capacities()));
        }
        if !engine.advance_in_place(limits.max_steps)? {
            // The final state's blocked set is the last start pass's.
            let dependent = trace.map(|t| t.deadlock_flags(engine.space_blocked()));
            let report = ThroughputReport::deadlock(store.len());
            return Ok(ThroughputAnalysis::of(report, dependent, &mut engine));
        }
        if let Some(trace) = &mut trace {
            trace.note(engine.space_blocked());
        }
        let pending = completions(&engine);
        if pending == 0 {
            quiet += 1;
            if quiet >= gate {
                fast_forward(&mut engine, windows, quiet == gate, limits.max_steps);
            }
            continue;
        }
        quiet = 0;
        let dist = engine.time() - last_completion;
        last_completion = engine.time();
        pack_row(row, engine.state(), dist, pending);
        let next_index = times.len();
        match store.intern(row) {
            Interned::Inserted(_) => {
                times.push(engine.time());
                firing_counts.push(pending);
                if let Some(trace) = &mut trace {
                    trace.close_segment();
                }
                if times.len() > limits.max_states {
                    return Err(limits.exceeded(LimitKind::States, engine.capacities()));
                }
            }
            Interned::Existing(k) => {
                // Cycle found: states k..next_index repeat forever.
                let period = engine.time() - times[k];
                let firings: u64 = firing_counts[k..].iter().map(|&f| f as u64).sum();
                if period == 0 {
                    return Err(AnalysisError::ZeroPeriod);
                }
                let dependent = trace.map(|t| t.cycle_flags(k));
                let report = ThroughputReport {
                    throughput: Rational::new(firings as i128, period as i128),
                    deadlocked: false,
                    states_stored: store.len(),
                    cycle_states: next_index - k,
                    firings_per_period: firings,
                    period,
                    cycle_entry_time: times[k],
                };
                return Ok(ThroughputAnalysis::of(report, dependent, &mut engine));
            }
        }
    }
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

    fn thr(g: &SdfGraph, caps: &[u64], actor: &str) -> Rational {
        let d = StorageDistribution::from_capacities(caps.to_vec());
        throughput(g, &d, g.actor_by_name(actor).unwrap())
            .unwrap()
            .throughput
    }

    /// Every concrete number the paper states for the running example.
    #[test]
    fn paper_oracle_values() {
        let g = example();
        // §5/§8: ⟨4,2⟩ → 1/7; ⟨6,2⟩ → 1/6.
        assert_eq!(thr(&g, &[4, 2], "c"), Rational::new(1, 7));
        assert_eq!(thr(&g, &[6, 2], "c"), Rational::new(1, 6));
        // §8: ⟨5,2⟩ is *not* minimal: same throughput as ⟨4,2⟩.
        assert_eq!(thr(&g, &[5, 2], "c"), Rational::new(1, 7));
        // §8: throughput can never exceed 1/4 and a distribution of size 10
        // reaches it (⟨7,3⟩; ⟨8,2⟩ starves c through the small β buffer).
        assert_eq!(thr(&g, &[7, 3], "c"), Rational::new(1, 4));
        assert_eq!(thr(&g, &[8, 2], "c"), Rational::new(1, 6));
        // Larger distributions do not improve beyond the maximum.
        assert_eq!(thr(&g, &[20, 20], "c"), Rational::new(1, 4));
    }

    #[test]
    fn throughputs_relate_via_repetition_vector() {
        let g = example();
        // q = (3, 2, 1): thr(a) = 3·thr(c), thr(b) = 2·thr(c).
        assert_eq!(thr(&g, &[4, 2], "a"), Rational::new(3, 7));
        assert_eq!(thr(&g, &[4, 2], "b"), Rational::new(2, 7));
    }

    #[test]
    fn deadlock_reports_zero() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 1]);
        let r = throughput(&g, &d, g.actor_by_name("c").unwrap()).unwrap();
        assert!(r.deadlocked);
        assert_eq!(r.throughput, Rational::ZERO);
        assert_eq!(r.cycle_states, 0);
    }

    #[test]
    fn smallest_positive_distribution_is_4_2() {
        // The paper: ⟨4,2⟩ is the smallest distribution with positive
        // throughput (size 6). Check all smaller distributions deadlock.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        for a in 0..=5u64 {
            for b in 0..=5u64 {
                if a + b < 6 {
                    let d = StorageDistribution::from_capacities(vec![a, b]);
                    let r = throughput(&g, &d, c).unwrap();
                    assert!(
                        r.deadlocked,
                        "distribution <{a}, {b}> should deadlock but has throughput {}",
                        r.throughput
                    );
                }
            }
        }
    }

    #[test]
    fn report_metadata_for_4_2() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let r = throughput(&g, &d, g.actor_by_name("c").unwrap()).unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
        assert_eq!(r.period, 7);
        assert_eq!(r.firings_per_period, 1);
        assert_eq!(r.cycle_states, 1);
        assert!(!r.deadlocked);
        // c completes its first firing at t=9 with dist=9; the next
        // completion (t=16) has dist=7, and that reduced state recurs at
        // t=23 — exactly the structure of the paper's Fig. 4.
        assert_eq!(r.cycle_entry_time, 16);
        assert!(r.states_stored >= 1);
    }

    #[test]
    fn state_limit_enforced() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![8, 2]);
        let limits = ExplorationLimits {
            max_states: 1,
            max_steps: 3, // give up before c ever completes
        };
        let err = throughput_for(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            limits,
        )
        .unwrap_err();
        // The steps cap fires here, and the error says so — including the
        // offending capacities.
        assert_eq!(
            err,
            AnalysisError::StateLimitExceeded {
                limit: 3,
                kind: crate::error::LimitKind::Steps,
                capacities: vec![Some(8), Some(2)],
            },
            "{err}"
        );

        // The exact boundary: under ⟨4,2⟩ the cycle closes at t = 23 (c's
        // completion at t = 16 recurs), so a limit of 23 time units still
        // finds it and 22 does not.
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let run = |max_steps| {
            throughput_for(
                &g,
                Capacities::from_distribution(&d),
                g.actor_by_name("c").unwrap(),
                ExplorationLimits {
                    max_steps,
                    ..ExplorationLimits::default()
                },
            )
        };
        let r = run(23).unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
        assert_eq!((r.cycle_entry_time, r.period), (16, 7));
        assert_eq!(
            run(22).unwrap_err(),
            AnalysisError::StateLimitExceeded {
                limit: 22,
                kind: crate::error::LimitKind::Steps,
                capacities: vec![Some(4), Some(2)],
            }
        );
    }

    #[test]
    fn states_limit_reports_states_kind() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![8, 2]);
        let limits = ExplorationLimits {
            max_states: 1,
            max_steps: u64::MAX,
        };
        let err = throughput_for(
            &g,
            Capacities::from_distribution(&d),
            g.actor_by_name("c").unwrap(),
            limits,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::StateLimitExceeded {
                    limit: 1,
                    kind: crate::error::LimitKind::States,
                    ..
                }
            ),
            "{err}"
        );
    }

    /// [`throughput_analysis`] with `cancel`, the given limits and a fresh
    /// workspace.
    fn with_cancel(
        g: &SdfGraph,
        caps: Capacities,
        limits: ExplorationLimits,
        cancel: &CancelToken,
    ) -> Result<ThroughputReport, AnalysisError> {
        let request = AnalysisRequest {
            limits,
            cancel,
            ..AnalysisRequest::default()
        };
        throughput_analysis(
            g,
            caps,
            g.actor_by_name("c").unwrap(),
            &request,
            &mut AnalysisWorkspace::new(),
        )
        .map(|a| a.report)
    }

    #[test]
    fn cancelled_token_stops_the_analysis() {
        use crate::budget::CancelReason;
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let token = CancelToken::new();
        token.cancel(CancelReason::Interrupt);
        let err = with_cancel(
            &g,
            Capacities::from_distribution(&d),
            ExplorationLimits::default(),
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                reason: CancelReason::Interrupt
            }
        );
    }

    #[test]
    fn deadline_stops_an_analysis_mid_search() {
        // Unbounded α grows forever, so no reduced state ever recurs: only
        // the deadline, polled every 1024 advances, can end the search.
        use crate::budget::CancelReason;
        use std::time::Duration;
        let g = example();
        let token = CancelToken::new().with_deadline(Duration::from_millis(20));
        let err = with_cancel(
            &g,
            Capacities::unbounded(2),
            ExplorationLimits {
                max_states: usize::MAX,
                max_steps: u64::MAX,
            },
            &token,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                reason: CancelReason::Deadline
            }
        );
    }

    #[test]
    fn live_token_changes_nothing() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let token = CancelToken::new();
        let r = with_cancel(
            &g,
            Capacities::from_distribution(&d),
            ExplorationLimits::default(),
            &token,
        )
        .unwrap();
        assert_eq!(r.throughput, Rational::new(1, 7));
    }

    #[test]
    fn homogeneous_ring_throughput() {
        // Two actors in a ring with one token: they alternate; each fires
        // once per 2 time units (execution times 1, 1).
        let mut b = SdfGraph::builder("ring");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[1, 1], "x"), Rational::new(1, 2));
        assert_eq!(thr(&g, &[1, 1], "y"), Rational::new(1, 2));
        // With 2 tokens of slack the two still serialize through the single
        // token in the ring: 1/2 each.
        assert_eq!(thr(&g, &[2, 2], "x"), Rational::new(1, 2));
    }

    #[test]
    fn pipelined_ring_reaches_half() {
        // Two tokens in the ring allow full pipelining: each actor busy
        // every step... bounded by its own execution time 1 → throughput 1? No:
        // with 2 tokens and capacities 2, x and y fire concurrently each
        // step: throughput 1 each.
        let mut b = SdfGraph::builder("ring2");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("f", x, 1, y, 1).unwrap();
        b.channel_with_tokens("r", y, 1, x, 1, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[2, 2], "x"), Rational::ONE);
    }

    #[test]
    fn zero_execution_time_observed_actor() {
        // src (exec 2) feeds a zero-time sink through capacity 1: the sink
        // fires instantly every 2 steps.
        let mut b = SdfGraph::builder("z");
        let s = b.actor("s", 2);
        let z = b.actor("z", 0);
        b.channel("c", s, 1, z, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[1], "z"), Rational::new(1, 2));
    }

    #[test]
    fn multirate_burst_counted_correctly() {
        // src produces 3 tokens per firing (exec 3); sink consumes 1 with
        // exec 1. With capacity 3 the source blocks while the sink drains
        // the burst: 3 sink firings per 6 time units.
        let mut b = SdfGraph::builder("burst");
        let s = b.actor("s", 3);
        let t = b.actor("t", 1);
        b.channel("c", s, 3, t, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(thr(&g, &[3], "t"), Rational::new(1, 2));
        // Capacity 6 lets source and sink overlap fully: the sink still
        // only receives 3 tokens per 3 time units → throughput 1... the
        // source fires back-to-back, so the sink fires once per step.
        assert_eq!(thr(&g, &[6], "t"), Rational::ONE);
    }

    // The `workspace` tests double as the Miri target for the arena
    // (`cargo miri test -p buffy-analysis --lib throughput::tests::workspace`).

    /// One analysis of the example's actor `c` in `ws`.
    fn analyse_in(
        ws: &mut AnalysisWorkspace,
        caps: &[u64],
        limits: ExplorationLimits,
        dependencies: bool,
    ) -> Result<ThroughputAnalysis, AnalysisError> {
        let g = example();
        let request = AnalysisRequest {
            limits,
            dependencies,
            ..AnalysisRequest::default()
        };
        throughput_analysis(
            &g,
            Capacities::from_distribution(&StorageDistribution::from_capacities(caps.to_vec())),
            g.actor_by_name("c").unwrap(),
            &request,
            ws,
        )
    }

    #[test]
    fn workspace_reuse_reproduces_reports() {
        // One workspace serving many analyses — flags on and off, a
        // deadlocked one and a limit error in the middle — must produce
        // reports identical to fresh calls, and the same flags as a fresh
        // flagged analysis.
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        let mut ws = AnalysisWorkspace::new();
        let tight = ExplorationLimits {
            max_steps: 2,
            ..ExplorationLimits::default()
        };
        for caps in [
            vec![4u64, 2],
            vec![20, 20],
            vec![4, 1], // deadlocks
            vec![7, 3],
            vec![4, 2], // repeat after larger runs
        ] {
            let fresh = throughput(&g, &StorageDistribution::from_capacities(caps.clone()), c);
            let fresh_flags = analyse_in(
                &mut AnalysisWorkspace::new(),
                &caps,
                Default::default(),
                true,
            )
            .unwrap()
            .dependent;
            assert!(fresh_flags.is_some());
            for dependencies in [true, false] {
                let reused = analyse_in(&mut ws, &caps, Default::default(), dependencies).unwrap();
                assert_eq!(fresh.as_ref().unwrap(), &reused.report, "{caps:?}");
                let expected = if dependencies {
                    fresh_flags.clone()
                } else {
                    None
                };
                assert_eq!(reused.dependent, expected, "{caps:?}");
                assert!(analyse_in(&mut ws, &caps, tight, dependencies).is_err());
            }
        }
    }

    #[test]
    fn workspace_errors_leave_it_reusable() {
        // A limit error mid-analysis, flagged or not, must not poison the
        // workspace for the next analysis.
        let mut ws = AnalysisWorkspace::new();
        let tight = ExplorationLimits {
            max_steps: 2,
            ..ExplorationLimits::default()
        };
        let clean = analyse_in(&mut ws, &[7, 3], Default::default(), true).unwrap();
        for dependencies in [true, false] {
            assert!(analyse_in(&mut ws, &[7, 3], tight, dependencies).is_err());
            let after = analyse_in(&mut ws, &[7, 3], Default::default(), true).unwrap();
            assert_eq!(after, clean);
        }
        let g = example();
        let dist = StorageDistribution::from_capacities(vec![7, 3]);
        assert_eq!(
            clean.report,
            throughput(&g, &dist, g.actor_by_name("c").unwrap()).unwrap()
        );
    }

    /// One analysis of the example's actor `c` with the peaks on.
    fn peaks_of(caps: &[u64]) -> ThroughputAnalysis {
        let g = example();
        let request = AnalysisRequest {
            peaks: true,
            ..AnalysisRequest::default()
        };
        throughput_analysis(
            &g,
            Capacities::from_distribution(&StorageDistribution::from_capacities(caps.to_vec())),
            g.actor_by_name("c").unwrap(),
            &request,
            &mut AnalysisWorkspace::new(),
        )
        .unwrap()
    }

    #[test]
    fn peaks_bound_what_the_execution_claims() {
        // Under ⟨4,2⟩ a fills α to its capacity and b's single token
        // production fills β. Under ⟨20,20⟩ a still runs ahead and fills
        // α, while β never holds more than 3: capping β at 3 loses
        // nothing, which is what the upper-bound search exploits.
        for (caps, peaks) in [
            ([4u64, 2], [4u64, 2]),
            ([20, 20], [20, 3]),
            ([4, 1], [4, 1]),
        ] {
            let analysis = peaks_of(&caps);
            assert_eq!(analysis.peaks.as_deref(), Some(&peaks[..]), "{caps:?}");
            let plain = analyse_in(
                &mut AnalysisWorkspace::new(),
                &caps,
                Default::default(),
                false,
            )
            .unwrap();
            assert_eq!(analysis.report, plain.report, "{caps:?}");
            assert_eq!(plain.peaks, None);
        }
    }

    #[test]
    fn unpack_row_inverts_pack_row() {
        // Odd and even actor counts (the last phase word half empty or
        // full), large clocks and tokens, phases up to u32::MAX.
        for actors in [1usize, 2, 3, 4] {
            let state = DataflowState {
                act_clk: (0..actors as u64).map(|i| i * 1_000_003).collect(),
                phase: (0..actors as u32).map(|i| u32::MAX - i).collect(),
                tokens: vec![u64::MAX, 0, 7],
            };
            let mut row = Vec::new();
            pack_row(&mut row, &state, 9, 2);
            assert_eq!(row.len(), row_stride(actors, 3));
            assert_eq!(unpack_row(&row, actors, 3), state);
        }
    }

    #[test]
    fn refused_claims_bound_the_capacity_box_from_above() {
        // Under ⟨4,2⟩ a is refused on α holding 3 (claim 5) and β never
        // refuses b; under ⟨6,2⟩ b is also refused on β holding 2.
        for (caps, refused) in [
            ([4u64, 2], [5u64, u64::MAX]),
            ([20, 20], [21, u64::MAX]),
            ([6, 2], [7, 3]),
        ] {
            let analysis = peaks_of(&caps);
            assert_eq!(analysis.refused.as_deref(), Some(&refused[..]), "{caps:?}");
        }
        // ⟨4,2⟩'s box is α = 4 and β ≥ 2: every β runs alike. α = 5 lies
        // above the box and changes the run (its peak), though not the
        // throughput.
        let lb = peaks_of(&[4, 2]);
        for beta in [3, 20] {
            let inside = peaks_of(&[4, beta]);
            assert_eq!(
                (inside.report, inside.peaks),
                (lb.report.clone(), lb.peaks.clone())
            );
        }
        let above = peaks_of(&[5, 2]);
        assert_eq!(above.report, lb.report);
        assert_ne!(above.peaks, lb.peaks);
        let plain = analyse_in(
            &mut AnalysisWorkspace::new(),
            &[4, 2],
            Default::default(),
            true,
        );
        assert_eq!(plain.unwrap().refused, None);
    }

    #[test]
    fn workspace_deadlock_flags_name_the_blocked_channel() {
        // ⟨3,2⟩ deadlocks with a blocked on α's space. Under ⟨4,1⟩ b fires
        // once, then waits for space on β while a fills α and waits too.
        // The flags of a deadlock are the final state's.
        let mut ws = AnalysisWorkspace::new();
        for (caps, expected) in [([3u64, 2], vec![true, false]), ([4, 1], vec![true, true])] {
            let a = analyse_in(&mut ws, &caps, Default::default(), true).unwrap();
            assert!(a.report.deadlocked, "{caps:?}");
            assert_eq!(a.dependent, Some(expected), "{caps:?}");
        }
    }
}
