//! Exact energy-per-iteration analysis over the periodic schedule.
//!
//! Following Karim, Falk & Teich ("Exploration of Energy and Throughput
//! Tradeoffs for Dataflow Networks"), each actor draws `active_power` per
//! time step while firing and `idle_power` per time step in between. With
//! self-timed execution and no auto-concurrency the busy time of an actor
//! over one graph iteration is fixed by the repetition vector — it does
//! not depend on the storage distribution — so the energy of one iteration
//! splits into a constant work term and an idle term proportional to the
//! iteration period:
//!
//! ```text
//! E_iter(t) = Σ_a busy_a·(active_a − idle_a)  +  (Σ_a idle_a) · T_iter(t)
//! T_iter(t) = obs_firings / t
//! ```
//!
//! where `busy_a = q_a · Σ_phase exec(a, phase)` (repetition count times
//! the phase-cycle execution time), `obs_firings` is the number of firings
//! of the observed actor per iteration and `t` the observed throughput.
//! Since `T_iter ≥ busy_a` for every actor of a feasible schedule, the
//! energy is nonnegative, and it is *monotone non-increasing in
//! throughput*: faster schedules waste less idle energy.
//!
//! [`EnergyModel::from_semantics`] precomputes the three sums once per
//! model; [`EnergyModel::energy_per_iteration`] then maps any evaluated
//! throughput to an exact rational energy without touching the state
//! space again, which is how the CLI annotates a final Pareto front.
//! [`schedule_energy_per_iteration`] computes the same quantity directly
//! from an extracted [`Schedule`](crate::Schedule) and serves as the
//! independent cross-check oracle in the test suite.

use crate::error::AnalysisError;
use crate::schedule::Schedule;
use crate::semantics::DataflowSemantics;
use buffy_graph::{ActorId, GraphError, Rational, SdfGraph};

/// Precomputed energy coefficients of a dataflow model (see the module
/// documentation for the closed form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyModel {
    /// `Σ_a busy_a · active_a` — energy spent actually firing, per iteration.
    work_energy: i128,
    /// `Σ_a busy_a · idle_a` — idle energy double-counted by the period
    /// term, subtracted back out.
    idle_busy: i128,
    /// `Σ_a idle_a` — idle power of the whole graph per time step.
    idle_total: i128,
    /// Firings of the observed actor per graph iteration.
    obs_firings: i128,
}

impl EnergyModel {
    /// Builds the model's energy coefficients from its power annotations
    /// and repetition vector, observing `observed`.
    ///
    /// # Errors
    ///
    /// Propagates the balance-equation error of an inconsistent model;
    /// adversarial power/execution-time annotations whose coefficient
    /// sums exceed `i128` surface as
    /// [`GraphError::ArithmeticOverflow`] instead of wrapping.
    pub fn from_semantics<M: DataflowSemantics + ?Sized>(
        model: &M,
        observed: ActorId,
    ) -> Result<EnergyModel, AnalysisError> {
        let overflow = || {
            AnalysisError::Graph(GraphError::ArithmeticOverflow {
                operation: "energy coefficient accumulation".to_string(),
            })
        };
        let cycles = model.repetition_cycles()?;
        let mut work_energy: i128 = 0;
        let mut idle_busy: i128 = 0;
        let mut idle_total: i128 = 0;
        for (index, &cycle_count) in cycles.iter().enumerate() {
            let actor = ActorId::new(index);
            let mut cycle_time: i128 = 0;
            for p in 0..model.num_phases(actor) {
                cycle_time = cycle_time
                    .checked_add(model.execution_time(actor, p) as i128)
                    .ok_or_else(overflow)?;
            }
            let busy = (cycle_count as i128)
                .checked_mul(cycle_time)
                .ok_or_else(overflow)?;
            work_energy = busy
                .checked_mul(model.active_power(actor) as i128)
                .and_then(|e| work_energy.checked_add(e))
                .ok_or_else(overflow)?;
            idle_busy = busy
                .checked_mul(model.idle_power(actor) as i128)
                .and_then(|e| idle_busy.checked_add(e))
                .ok_or_else(overflow)?;
            idle_total = idle_total
                .checked_add(model.idle_power(actor) as i128)
                .ok_or_else(overflow)?;
        }
        let obs_firings = (cycles[observed.index()] as i128)
            .checked_mul(model.num_phases(observed) as i128)
            .ok_or_else(overflow)?;
        Ok(EnergyModel {
            work_energy,
            idle_busy,
            idle_total,
            obs_firings,
        })
    }

    /// Whether every actor carries zero power: the energy objective of
    /// such a model is identically zero.
    pub fn is_trivial(&self) -> bool {
        self.work_energy == 0 && self.idle_busy == 0 && self.idle_total == 0
    }

    /// Exact energy of one graph iteration at observed throughput
    /// `throughput`; zero for deadlocked (zero-throughput) executions,
    /// whose iterations never complete.
    ///
    /// # Panics
    ///
    /// Panics when the exact rational arithmetic overflows `i128`; use
    /// [`checked_energy_per_iteration`](Self::checked_energy_per_iteration)
    /// where a panic must not escape.
    pub fn energy_per_iteration(&self, throughput: Rational) -> Rational {
        if throughput <= Rational::ZERO {
            return Rational::ZERO;
        }
        let period = Rational::new(self.obs_firings, 1) / throughput;
        Rational::new(self.work_energy - self.idle_busy, 1)
            + Rational::new(self.idle_total, 1) * period
    }

    /// [`energy_per_iteration`](Self::energy_per_iteration) through the
    /// checked [`Rational`] paths: `None` instead of a panic when the
    /// exact arithmetic overflows `i128`.
    pub fn checked_energy_per_iteration(&self, throughput: Rational) -> Option<Rational> {
        if throughput <= Rational::ZERO {
            return Some(Rational::ZERO);
        }
        let period = Rational::from_integer(self.obs_firings).checked_mul(&throughput.recip())?;
        let constant = self.work_energy.checked_sub(self.idle_busy)?;
        Rational::from_integer(self.idle_total)
            .checked_mul(&period)?
            .checked_add(&Rational::from_integer(constant))
    }
}

/// Energy of one graph iteration computed directly from an extracted
/// schedule: active energy over the periodic firings plus idle energy
/// over the remainder of the period, scaled down to a single iteration
/// by the observed actor's firing count. `None` when the schedule
/// deadlocks.
///
/// This walks the recorded firings rather than the repetition vector and
/// is the independent oracle [`EnergyModel`] is validated against.
pub fn schedule_energy_per_iteration(
    graph: &SdfGraph,
    schedule: &Schedule,
    observed: ActorId,
) -> Option<Rational> {
    let period = schedule.period()? as i128;
    let mut busy = vec![0i128; graph.num_actors()];
    for f in schedule.periodic_firings() {
        busy[f.actor.index()] += (f.end - f.start) as i128;
    }
    let mut energy = Rational::ZERO;
    for (aid, actor) in graph.actors() {
        let b = busy[aid.index()];
        energy += Rational::new(b, 1) * Rational::new(actor.active_power() as i128, 1);
        energy += Rational::new(period - b, 1) * Rational::new(actor.idle_power() as i128, 1);
    }
    // The periodic phase may span several graph iterations; one iteration
    // fires the observed actor exactly `q[observed]` times.
    let obs_in_period = schedule
        .periodic_firings()
        .filter(|f| f.actor == observed)
        .count() as i128;
    let q = buffy_graph::RepetitionVector::compute(graph).ok()?;
    let obs_per_iteration = q.get(observed) as i128;
    if obs_in_period == 0 || obs_per_iteration == 0 {
        return None;
    }
    Some(energy * Rational::new(obs_per_iteration, obs_in_period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{throughput, ExplorationLimits};
    use buffy_graph::{SdfGraph, StorageDistribution};

    fn powered_example() -> SdfGraph {
        let mut b = SdfGraph::builder("example");
        let a = b.actor_with_power("a", 1, 10, 2).unwrap();
        let bb = b.actor_with_power("b", 2, 6, 1).unwrap();
        let c = b.actor_with_power("c", 2, 4, 0).unwrap();
        b.channel("alpha", a, 2, bb, 3).unwrap();
        b.channel("beta", bb, 1, c, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn closed_form_matches_hand_computation() {
        let g = powered_example();
        let c = g.actor_by_name("c").unwrap();
        let m = EnergyModel::from_semantics(&g, c).unwrap();
        assert!(!m.is_trivial());
        // q = (3, 2, 1); busy = (3·1, 2·2, 1·2) = (3, 4, 2).
        // work = 3·10 + 4·6 + 2·4 = 62; idle_busy = 3·2 + 4·1 = 10;
        // idle_total = 3; obs_firings = 1.
        // At t = 1/7: T_iter = 7, E = 62 − 10 + 3·7 = 73.
        assert_eq!(
            m.energy_per_iteration(Rational::new(1, 7)),
            Rational::new(73, 1)
        );
        // At the maximal throughput 1/4: E = 52 + 12 = 64.
        assert_eq!(
            m.energy_per_iteration(Rational::new(1, 4)),
            Rational::new(64, 1)
        );
        // Deadlock draws nothing (no iteration ever completes).
        assert_eq!(m.energy_per_iteration(Rational::ZERO), Rational::ZERO);
    }

    #[test]
    fn energy_is_monotone_non_increasing_in_throughput() {
        let g = powered_example();
        let c = g.actor_by_name("c").unwrap();
        let m = EnergyModel::from_semantics(&g, c).unwrap();
        let mut last = None;
        // Descending denominators: throughput rises, so energy must fall.
        for den in (4..=12).rev() {
            let e = m.energy_per_iteration(Rational::new(1, den));
            if let Some(prev) = last {
                assert!(e <= prev, "energy must not increase with throughput");
            }
            last = Some(e);
        }
    }

    #[test]
    fn closed_form_matches_schedule_energy() {
        let g = powered_example();
        let c = g.actor_by_name("c").unwrap();
        let m = EnergyModel::from_semantics(&g, c).unwrap();
        for caps in [[4u64, 2], [5, 2], [6, 2], [6, 4], [8, 2], [10, 10]] {
            let d = StorageDistribution::from_capacities(caps.to_vec());
            let s = Schedule::extract(&g, &d, ExplorationLimits::default()).unwrap();
            let oracle = schedule_energy_per_iteration(&g, &s, c).unwrap();
            let t = throughput(&g, &d, c).unwrap().throughput;
            assert_eq!(m.energy_per_iteration(t), oracle, "caps {caps:?}");
        }
    }

    #[test]
    fn adversarial_annotations_surface_overflow_not_panic() {
        // u64::MAX execution time × u64::MAX active power ≈ 2^128 blows
        // past i128: the coefficients must error, never wrap.
        let mut b = SdfGraph::builder("adversarial");
        let x = b.actor_with_power("x", u64::MAX, u64::MAX, 0).unwrap();
        let y = b.actor("y", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        match EnergyModel::from_semantics(&g, y) {
            Err(AnalysisError::Graph(GraphError::ArithmeticOverflow { .. })) => {}
            other => panic!("expected ArithmeticOverflow, got {other:?}"),
        }
    }

    #[test]
    fn checked_energy_matches_and_catches_overflow() {
        let g = powered_example();
        let c = g.actor_by_name("c").unwrap();
        let m = EnergyModel::from_semantics(&g, c).unwrap();
        for den in 4..=12 {
            let t = Rational::new(1, den);
            assert_eq!(
                m.checked_energy_per_iteration(t),
                Some(m.energy_per_iteration(t))
            );
        }
        assert_eq!(
            m.checked_energy_per_iteration(Rational::ZERO),
            Some(Rational::ZERO)
        );
        // Coefficients near the i128 edge overflow the checked path
        // cleanly instead of panicking.
        let edge = EnergyModel {
            work_energy: i128::MAX,
            idle_busy: -1,
            idle_total: i128::MAX,
            obs_firings: i128::MAX,
        };
        assert_eq!(edge.checked_energy_per_iteration(Rational::new(1, 3)), None);
    }

    #[test]
    fn unannotated_model_is_trivial() {
        let mut b = SdfGraph::builder("plain");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel("c", x, 1, y, 1).unwrap();
        let g = b.build().unwrap();
        let m = EnergyModel::from_semantics(&g, y).unwrap();
        assert!(m.is_trivial());
        assert_eq!(m.energy_per_iteration(Rational::new(1, 2)), Rational::ZERO);
    }
}
