//! Full timed state-space exploration (paper §6, Fig. 3).
//!
//! Stores one state per time instant. This is the didactic, unreduced view
//! of the execution: it makes Theorem 1 (periodicity) and Property 1
//! (exactly one cycle) directly observable, and serves as an oracle for the
//! reduced analysis of [`crate::throughput`]. Production code should prefer
//! the reduced analysis, which stores dramatically fewer states (the
//! comparison is one of this repository's ablation benchmarks).
//!
//! The run from time 0 to the first recurring timed state is written once,
//! in the crate-private `walk`: the recorder here, the self-timed schedule
//! ([`Schedule::extract`](crate::Schedule::extract)),
//! [`latency`](fn@crate::latency) and
//! [`shared_memory_peak`](crate::shared_memory_peak) are visitors over it.
//!
//! Like the rest of the kernel the recorder is generic over
//! [`DataflowSemantics`] ([`explore_for`]); [`explore`] is the SDF-typed
//! entry point.

use crate::engine::{Capacities, DataflowEngine, DataflowState, FiringEvents};
use crate::error::{AnalysisError, LimitKind};
use crate::interner::{Interned, RowStore};
use crate::semantics::DataflowSemantics;
use crate::throughput::{pack_row, row_stride, unpack_row, ExplorationLimits};
use buffy_graph::{ActorId, Rational, SdfGraph, StorageDistribution};

/// The first recurring timed state of a [`walk`]: the periodic phase is
/// entered at `entry` and repeats every `close − entry` time units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recurrence {
    /// When the recurring state was first reached.
    pub(crate) entry: u64,
    /// When it was reached again.
    pub(crate) close: u64,
}

/// Runs `model` self-timed under `caps` from time 0, one time unit at a
/// time, to its first recurring timed state.
///
/// `visit(time, state, events)` sees every state reached, with the events
/// that led into it: the state after the initial start pass at time 0,
/// then one state per time unit, the recurring state last. Returns the
/// [`Recurrence`], or `None` when the execution deadlocks (the deadlocked
/// state is the last one visited).
///
/// Each timed state is interned as a packed row (the throughput
/// analysis's row with `dist` and the completion count at 0), so state
/// `k` of the store is the one reached at time `k`. Before each step the
/// step limit is checked, then the state limit: a run that reaches both
/// at once fails with [`LimitKind::Steps`].
///
/// # Errors
///
/// - [`AnalysisError::StateLimitExceeded`] when `limits` are hit;
/// - [`AnalysisError::ZeroTimeLivelock`] for unbounded zero-time firing.
pub(crate) fn walk<M: DataflowSemantics + ?Sized>(
    model: &M,
    caps: Capacities,
    limits: ExplorationLimits,
    visit: impl FnMut(u64, &DataflowState, &FiringEvents),
) -> Result<Option<Recurrence>, AnalysisError> {
    walk_in(model, caps, limits, &mut RowStore::default(), visit)
}

/// [`walk`] into a caller-owned store, which holds the rows of the timed
/// states afterwards: row `k` is the state reached at time `k`, the
/// recurring state's second visit excluded.
fn walk_in<M: DataflowSemantics + ?Sized>(
    model: &M,
    caps: Capacities,
    limits: ExplorationLimits,
    store: &mut RowStore,
    mut visit: impl FnMut(u64, &DataflowState, &FiringEvents),
) -> Result<Option<Recurrence>, AnalysisError> {
    let mut engine = DataflowEngine::new(model, caps);
    engine.start_initial()?;
    let stride = row_stride(model.num_actors(), model.num_channels());
    store.reset(stride);
    let mut row = Vec::with_capacity(stride);
    loop {
        visit(engine.time(), engine.state(), engine.events());
        pack_row(&mut row, engine.state(), 0, 0);
        if let Interned::Existing(k) = store.intern(&row) {
            return Ok(Some(Recurrence {
                entry: k as u64,
                close: engine.time(),
            }));
        }
        if engine.time() >= limits.max_steps {
            return Err(limits.exceeded(LimitKind::Steps, engine.capacities()));
        }
        if store.len() > limits.max_states {
            return Err(limits.exceeded(LimitKind::States, engine.capacities()));
        }
        if !engine.advance_in_place(engine.time() + 1)? {
            return Ok(None);
        }
    }
}

/// The explored timed state space of a dataflow model under a storage
/// distribution.
#[derive(Debug, Clone)]
pub struct StateSpace {
    /// Visited states in order; `states[0]` is the state after the initial
    /// start phase (time 0).
    pub states: Vec<DataflowState>,
    /// Step events leading *into* each state (`events[0]` is the initial
    /// start phase).
    pub events: Vec<FiringEvents>,
    /// Index of the first state of the cycle; `None` if the execution
    /// deadlocks.
    pub cycle_start: Option<usize>,
    /// Events of the transition that closes the cycle (from the last
    /// stored state back to `states[cycle_start]`); `None` on deadlock.
    pub closing_events: Option<FiringEvents>,
}

impl StateSpace {
    /// Whether the execution deadlocks (paper: a deadlocked state forms a
    /// self-loop; we report it as `cycle_start == None`).
    pub fn deadlocked(&self) -> bool {
        self.cycle_start.is_none()
    }

    /// Number of states on the cycle (the cycle's duration in time steps).
    pub fn cycle_len(&self) -> usize {
        match self.cycle_start {
            Some(k) => self.states.len() - k,
            None => 0,
        }
    }

    /// Throughput of `actor` per Property 2: firings on the cycle divided
    /// by the cycle duration; zero on deadlock.
    pub fn throughput_of(&self, actor: ActorId) -> Rational {
        let Some(k) = self.cycle_start else {
            return Rational::ZERO;
        };
        let count = |ev: &FiringEvents| ev.completed.iter().filter(|&&(a, _)| a == actor).count();
        // Transitions within the cycle: those leading into states
        // k+1..len-1, plus the closing transition back to state k.
        let firings: usize = self.events[k + 1..].iter().map(count).sum::<usize>()
            + self.closing_events.as_ref().map(count).unwrap_or(0);
        Rational::new(firings as i128, self.cycle_len() as i128)
    }
}

/// Explores the full timed state space under `dist`.
///
/// # Errors
///
/// - [`AnalysisError::StateLimitExceeded`] when `limits` are hit;
/// - [`AnalysisError::ZeroTimeLivelock`] for unbounded zero-time firing.
///
/// # Examples
///
/// ```
/// use buffy_analysis::{explore, ExplorationLimits};
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
/// let d = StorageDistribution::from_capacities(vec![4, 2]);
/// let ss = explore(&g, &d, ExplorationLimits::default())?;
/// assert_eq!(ss.cycle_len(), 7); // the paper's period of 7 time steps
/// # Ok(())
/// # }
/// ```
pub fn explore(
    graph: &SdfGraph,
    dist: &StorageDistribution,
    limits: ExplorationLimits,
) -> Result<StateSpace, AnalysisError> {
    explore_for(graph, Capacities::from_distribution(dist), limits)
}

/// The generic form of [`explore`]: records the full timed state space of
/// any [`DataflowSemantics`] model.
///
/// # Errors
///
/// See [`explore`].
pub fn explore_for<M: DataflowSemantics>(
    model: &M,
    caps: Capacities,
    limits: ExplorationLimits,
) -> Result<StateSpace, AnalysisError> {
    let mut store = RowStore::default();
    let mut events = Vec::new();
    let recurrence = walk_in(model, caps, limits, &mut store, |_, _, ev| {
        events.push(ev.clone());
    })?;
    // Each state is kept once, as its row, until the walk ends.
    let states = (0..store.len())
        .map(|k| unpack_row(store.row(k), model.num_actors(), model.num_channels()))
        .collect();
    // The recurring state is already stored: keep only the events of the
    // step that closes the cycle.
    let closing_events = recurrence.map(|_| events.pop().expect("the closing step was visited"));
    Ok(StateSpace {
        states,
        events,
        cycle_start: recurrence.map(|r| r.entry as usize),
        closing_events,
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
    fn example_cycle_has_period_seven() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let ss = explore(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(!ss.deadlocked());
        // States t=0..t=8 stored (9 states); the t=9 state equals the t=2
        // state, so the cycle spans 7 time steps (paper §4).
        assert_eq!(ss.states.len(), 9);
        assert_eq!(ss.cycle_start, Some(2));
        assert_eq!(ss.cycle_len(), 7);
        assert!(ss.closing_events.is_some());
        // Property 2: throughput of c from the full space = 1/7.
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(ss.throughput_of(c), Rational::new(1, 7));
        // And of a: 3 firings per cycle.
        let a = g.actor_by_name("a").unwrap();
        assert_eq!(ss.throughput_of(a), Rational::new(3, 7));
        let b = g.actor_by_name("b").unwrap();
        assert_eq!(ss.throughput_of(b), Rational::new(2, 7));
    }

    #[test]
    fn deadlock_space_is_finite_prefix() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![2, 2]);
        let ss = explore(&g, &d, ExplorationLimits::default()).unwrap();
        assert!(ss.deadlocked());
        assert_eq!(ss.cycle_len(), 0);
        assert!(ss.closing_events.is_none());
        assert_eq!(
            ss.throughput_of(g.actor_by_name("c").unwrap()),
            Rational::ZERO
        );
    }

    #[test]
    fn matches_reduced_analysis_on_sweep() {
        use crate::throughput::throughput;
        let g = example();
        let c = g.actor_by_name("c").unwrap();
        for ca in 2..=9u64 {
            for cb in 1..=5u64 {
                let d = StorageDistribution::from_capacities(vec![ca, cb]);
                let full = explore(&g, &d, ExplorationLimits::default()).unwrap();
                let red = throughput(&g, &d, c).unwrap();
                assert_eq!(
                    full.throughput_of(c),
                    red.throughput,
                    "mismatch at <{ca}, {cb}>"
                );
            }
        }
    }

    #[test]
    fn walk_visits_each_time_unit_once() {
        // ⟨4, 2⟩: states at t = 0..=9, the one at t = 9 recurring from
        // t = 2. ⟨3, 2⟩: the walk ends in the deadlocked state at t = 1,
        // where nothing fires and α holds the 2 tokens of a's one firing.
        let g = example();
        let caps =
            |c: Vec<u64>| Capacities::from_distribution(&StorageDistribution::from_capacities(c));
        let mut times = Vec::new();
        let r = walk(
            &g,
            caps(vec![4, 2]),
            ExplorationLimits::default(),
            |t, _, _| times.push(t),
        );
        assert_eq!(r, Ok(Some(Recurrence { entry: 2, close: 9 })));
        assert_eq!(times, (0..=9).collect::<Vec<u64>>());

        let mut last = None;
        let r = walk(
            &g,
            caps(vec![3, 2]),
            ExplorationLimits::default(),
            |t, s, _| last = Some((t, s.clone())),
        );
        assert_eq!(r, Ok(None));
        let (t, s) = last.unwrap();
        assert_eq!((t, s.act_clk, s.tokens), (1, vec![0, 0, 0], vec![2, 0]));
    }

    #[test]
    fn step_limit_wins_a_tie_with_the_state_limit() {
        // Before step k the walk holds k + 1 states at time k, so limits of
        // 3 states and 3 steps trip at the same check: every visitor of the
        // walk reports the step limit.
        use crate::{latency, shared_memory_peak, Schedule};
        let g = example();
        let d = StorageDistribution::from_capacities(vec![4, 2]);
        let limits = ExplorationLimits {
            max_states: 3,
            max_steps: 3,
        };
        let steps = limits.exceeded(LimitKind::Steps, &Capacities::from_distribution(&d));
        assert_eq!(explore(&g, &d, limits).unwrap_err(), steps);
        assert_eq!(Schedule::extract(&g, &d, limits).unwrap_err(), steps);
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(latency(&g, &d, c, limits).unwrap_err(), steps);
        assert_eq!(shared_memory_peak(&g, &d, limits).unwrap_err(), steps);
    }

    #[test]
    fn limit_respected() {
        let g = example();
        let d = StorageDistribution::from_capacities(vec![8, 4]);
        let err = explore(
            &g,
            &d,
            ExplorationLimits {
                max_states: 2,
                max_steps: u64::MAX,
            },
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::StateLimitExceeded { .. }));
    }
}
