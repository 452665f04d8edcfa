//! Schedule extraction, validation and display (paper §4, Table 1).
//!
//! A schedule `σ` maps each firing of each actor to its start time
//! (paper Def. 3). The self-timed execution induces the unique
//! throughput-optimal schedule for a given storage distribution (§5–6);
//! [`Schedule::extract`] records it, splits it into the transient and
//! periodic phases, and can extrapolate `σ(a, i)` arbitrarily far into the
//! periodic phase. `buffy` generates such a schedule for every Pareto
//! point (§10).

use crate::engine::Capacities;
use crate::error::AnalysisError;
use crate::state_space::walk;
use crate::throughput::ExplorationLimits;
use buffy_graph::{ActorId, Rational, SdfGraph, StorageDistribution};
use core::fmt;

/// One recorded firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Firing {
    /// The firing actor.
    pub actor: ActorId,
    /// Start time (paper: `σ(a, i)`).
    pub start: u64,
    /// Completion time (`start + execution time`).
    pub end: u64,
}

/// Errors found when validating a schedule against the SDF semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// A firing starts while the previous firing of the same actor is
    /// still running (auto-concurrency).
    AutoConcurrency {
        /// The offending actor.
        actor: ActorId,
        /// Start time of the offending firing.
        time: u64,
    },
    /// A firing starts without enough tokens on an input channel.
    MissingTokens {
        /// The offending actor.
        actor: ActorId,
        /// Start time of the offending firing.
        time: u64,
    },
    /// A firing starts without enough free space on an output channel.
    MissingSpace {
        /// The offending actor.
        actor: ActorId,
        /// Start time of the offending firing.
        time: u64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::AutoConcurrency { actor, time } => {
                write!(
                    f,
                    "actor {actor} fires concurrently with itself at t={time}"
                )
            }
            ScheduleViolation::MissingTokens { actor, time } => {
                write!(
                    f,
                    "actor {actor} starts at t={time} without enough input tokens"
                )
            }
            ScheduleViolation::MissingSpace { actor, time } => {
                write!(
                    f,
                    "actor {actor} starts at t={time} without enough output space"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// A recorded self-timed schedule with its periodic structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    firings: Vec<Firing>,
    /// `(entry_time, period)`; `None` when the execution deadlocks.
    period: Option<(u64, u64)>,
}

impl Schedule {
    /// Extracts the throughput-optimal (self-timed) schedule of `graph`
    /// under `dist`, running until the periodic phase is identified or a
    /// deadlock occurs.
    ///
    /// # Errors
    ///
    /// Propagates engine errors and state limits; see
    /// [`throughput`](crate::throughput::throughput).
    pub fn extract(
        graph: &SdfGraph,
        dist: &StorageDistribution,
        limits: ExplorationLimits,
    ) -> Result<Schedule, AnalysisError> {
        let mut firings: Vec<Firing> = Vec::new();
        // Visits come in time order and, within one instant, list starts in
        // the order the engine made them (relevant for zero-execution-time
        // chains): the firings need no sorting.
        let recurrence = walk(
            graph,
            Capacities::from_distribution(dist),
            limits,
            |time, _, events| {
                firings.extend(events.started.iter().map(|&(actor, _)| Firing {
                    actor,
                    start: time,
                    end: time + graph.actor(actor).execution_time(),
                }));
            },
        )?;
        // Drop the firings of the closing step: they duplicate the start of
        // the periodic pattern.
        if let Some(r) = recurrence {
            firings.retain(|f| f.start < r.close);
        }
        Ok(Schedule {
            firings,
            period: recurrence.map(|r| (r.entry, r.close - r.entry)),
        })
    }

    /// All recorded firings, sorted by start time.
    pub fn firings(&self) -> &[Firing] {
        &self.firings
    }

    /// Duration of the periodic phase, `None` on deadlock.
    pub fn period(&self) -> Option<u64> {
        self.period.map(|(_, p)| p)
    }

    /// Time at which the periodic phase is first entered, `None` on
    /// deadlock.
    pub fn period_entry(&self) -> Option<u64> {
        self.period.map(|(e, _)| e)
    }

    /// Whether the schedule deadlocks (finitely many firings).
    pub fn deadlocked(&self) -> bool {
        self.period.is_none()
    }

    /// Firings of the transient phase (before the periodic phase).
    pub fn transient_firings(&self) -> impl Iterator<Item = &Firing> {
        let entry = self.period.map(|(e, _)| e).unwrap_or(u64::MAX);
        self.firings.iter().filter(move |f| f.start < entry)
    }

    /// The firings of one period of the periodic phase.
    pub fn periodic_firings(&self) -> impl Iterator<Item = &Firing> {
        let (entry, period) = self.period.unwrap_or((u64::MAX, 0));
        self.firings
            .iter()
            .filter(move |f| f.start >= entry && f.start < entry + period)
    }

    /// `σ(a, i)`: the start time of the `i`-th (0-based) firing of `actor`,
    /// extrapolated into the periodic phase as needed.
    ///
    /// Returns `None` when the execution deadlocks before firing `i` (or
    /// the actor never fires periodically).
    pub fn start_of(&self, actor: ActorId, i: u64) -> Option<u64> {
        let recorded: Vec<u64> = self
            .firings
            .iter()
            .filter(|f| f.actor == actor)
            .map(|f| f.start)
            .collect();
        if (i as usize) < recorded.len() {
            return Some(recorded[i as usize]);
        }
        let (entry, period) = self.period?;
        let periodic: Vec<u64> = recorded.iter().copied().filter(|&t| t >= entry).collect();
        if periodic.is_empty() {
            return None;
        }
        let j = i as usize - (recorded.len() - periodic.len());
        let round = (j / periodic.len()) as u64;
        Some(periodic[j % periodic.len()] + round * period)
    }

    /// Throughput of `actor` realized by this schedule: periodic firings
    /// per period (paper Def. 4); zero on deadlock.
    pub fn throughput_of(&self, actor: ActorId) -> Rational {
        let Some((_, period)) = self.period else {
            return Rational::ZERO;
        };
        let n = self.periodic_firings().filter(|f| f.actor == actor).count();
        Rational::new(n as i128, period as i128)
    }

    /// Checks that the recorded firings obey the SDF firing rules under
    /// `dist`: no auto-concurrency, tokens present at start, space present
    /// at start (claim semantics), consumption/production at the end.
    ///
    /// # Errors
    ///
    /// The first [`ScheduleViolation`] found, if any.
    pub fn validate(
        &self,
        graph: &SdfGraph,
        dist: &StorageDistribution,
    ) -> Result<(), ScheduleViolation> {
        // Event kinds at one time instant, in processing order:
        //   0 — End of a positive-duration firing (frees tokens/space);
        //   1 — a zero-duration firing (checked, then applied instantly),
        //       processed in recorded order to honour the engine's fixpoint;
        //   2 — Start of a positive-duration firing.
        // Starts do not mutate token counts (consumption happens at the
        // end), so processing them last is sound.
        #[derive(Clone, Copy)]
        enum Ev {
            End(usize),
            ZeroFiring(usize),
            Start(usize),
        }
        let mut events: Vec<(u64, u8, usize, Ev)> = Vec::with_capacity(self.firings.len() * 2);
        for (i, f) in self.firings.iter().enumerate() {
            if f.start == f.end {
                events.push((f.start, 1, i, Ev::ZeroFiring(i)));
            } else {
                events.push((f.start, 2, i, Ev::Start(i)));
                events.push((f.end, 0, i, Ev::End(i)));
            }
        }
        events.sort_by_key(|&(t, kind, i, _)| (t, kind, i));

        let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
        let mut busy_until: Vec<Option<u64>> = vec![None; graph.num_actors()];

        let check_start = |graph: &SdfGraph,
                           dist: &StorageDistribution,
                           tokens: &[u64],
                           f: &Firing|
         -> Result<(), ScheduleViolation> {
            for &cid in graph.input_channels(f.actor) {
                let ch = graph.channel(cid);
                if tokens[cid.index()] < ch.consumption() {
                    return Err(ScheduleViolation::MissingTokens {
                        actor: f.actor,
                        time: f.start,
                    });
                }
            }
            for &cid in graph.output_channels(f.actor) {
                let ch = graph.channel(cid);
                let free = dist.get(cid).saturating_sub(tokens[cid.index()]);
                if free < ch.production() {
                    return Err(ScheduleViolation::MissingSpace {
                        actor: f.actor,
                        time: f.start,
                    });
                }
            }
            Ok(())
        };
        let apply_end = |graph: &SdfGraph, tokens: &mut [u64], f: &Firing| {
            for &cid in graph.input_channels(f.actor) {
                let ch = graph.channel(cid);
                tokens[cid.index()] = tokens[cid.index()].saturating_sub(ch.consumption());
            }
            for &cid in graph.output_channels(f.actor) {
                let ch = graph.channel(cid);
                tokens[cid.index()] += ch.production();
            }
        };

        for (t, _, _, ev) in events {
            match ev {
                Ev::End(i) => {
                    let f = self.firings[i];
                    apply_end(graph, &mut tokens, &f);
                    if busy_until[f.actor.index()] == Some(f.end) {
                        busy_until[f.actor.index()] = None;
                    }
                }
                Ev::ZeroFiring(i) => {
                    let f = self.firings[i];
                    if busy_until[f.actor.index()].is_some() {
                        return Err(ScheduleViolation::AutoConcurrency {
                            actor: f.actor,
                            time: t,
                        });
                    }
                    check_start(graph, dist, &tokens, &f)?;
                    apply_end(graph, &mut tokens, &f);
                }
                Ev::Start(i) => {
                    let f = self.firings[i];
                    if busy_until[f.actor.index()].is_some() {
                        return Err(ScheduleViolation::AutoConcurrency {
                            actor: f.actor,
                            time: t,
                        });
                    }
                    check_start(graph, dist, &tokens, &f)?;
                    busy_until[f.actor.index()] = Some(f.end);
                }
            }
        }
        Ok(())
    }

    /// Renders the schedule as an ASCII Gantt chart (one row per actor,
    /// `X` at firing start, `-` while the firing continues), covering time
    /// steps `0..until`. Reproduces the content of the paper's Table 1.
    pub fn gantt(&self, graph: &SdfGraph, until: u64) -> String {
        let mut out = String::new();
        let width = 3usize;
        let name_w = graph
            .actors()
            .map(|(_, a)| a.name().len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!("{:name_w$} |", "t"));
        for t in 0..until {
            out.push_str(&format!("{t:>width$}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(name_w + 2 + width * until as usize));
        out.push('\n');
        for (aid, actor) in graph.actors() {
            out.push_str(&format!("{:name_w$} |", actor.name()));
            let mut cells = vec!["".to_string(); until as usize];
            let mut draw = |start: u64, end: u64| {
                for t in start..end.max(start + 1) {
                    if t < until {
                        cells[t as usize] = if t == start { "X" } else { "-" }.into();
                    }
                }
            };
            for f in &self.firings {
                if f.actor != aid {
                    continue;
                }
                draw(f.start, f.end);
                // Repeat periodic firings up to the display horizon.
                if let Some((entry, period)) = self.period {
                    if f.start >= entry && period > 0 {
                        let mut s = f.start + period;
                        while s < until {
                            draw(s, s + (f.end - f.start));
                            s += period;
                        }
                    }
                }
            }
            for c in &cells {
                out.push_str(&format!("{c:>width$}"));
            }
            out.push('\n');
        }
        out
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

    fn extract(g: &SdfGraph, caps: &[u64]) -> Schedule {
        Schedule::extract(
            g,
            &StorageDistribution::from_capacities(caps.to_vec()),
            ExplorationLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn example_schedule_structure() {
        let g = example();
        let s = extract(&g, &[4, 2]);
        assert!(!s.deadlocked());
        assert_eq!(s.period(), Some(7));
        assert_eq!(s.period_entry(), Some(2));
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(s.throughput_of(c), Rational::new(1, 7));
        let a = g.actor_by_name("a").unwrap();
        assert_eq!(s.throughput_of(a), Rational::new(3, 7));
        // Transient phase: a fires at t=0 and t=1 (paper: time steps 1–2
        // belong to the transient phase).
        let transient: Vec<_> = s.transient_firings().collect();
        assert_eq!(transient.len(), 2);
        assert!(transient.iter().all(|f| f.actor == a));
    }

    #[test]
    fn sigma_extrapolates_periodically() {
        let g = example();
        let s = extract(&g, &[4, 2]);
        let c = g.actor_by_name("c").unwrap();
        let first = s.start_of(c, 0).unwrap();
        let second = s.start_of(c, 1).unwrap();
        let tenth = s.start_of(c, 9).unwrap();
        assert_eq!(second - first, 7);
        assert_eq!(tenth, first + 9 * 7);
        // a fires 3 times per period.
        let a = g.actor_by_name("a").unwrap();
        let far = s.start_of(a, 100).unwrap();
        let farther = s.start_of(a, 103).unwrap();
        assert_eq!(farther - far, 7);
    }

    #[test]
    fn deadlocked_schedule() {
        let g = example();
        let s = extract(&g, &[4, 1]);
        assert!(s.deadlocked());
        assert_eq!(s.period(), None);
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(s.throughput_of(c), Rational::ZERO);
        assert_eq!(s.start_of(c, 0), None);
        // a still fired a few times before the deadlock.
        let a = g.actor_by_name("a").unwrap();
        assert!(s.start_of(a, 0).is_some());
    }

    #[test]
    fn extracted_schedules_validate() {
        let g = example();
        for caps in [[4u64, 2], [5, 2], [6, 2], [8, 2], [6, 4], [10, 10]] {
            let d = StorageDistribution::from_capacities(caps.to_vec());
            let s = Schedule::extract(&g, &d, ExplorationLimits::default()).unwrap();
            s.validate(&g, &d).unwrap();
        }
    }

    #[test]
    fn validation_catches_violations() {
        let g = example();
        let a = g.actor_by_name("a").unwrap();
        let b = g.actor_by_name("b").unwrap();
        let d = StorageDistribution::from_capacities(vec![4, 2]);

        // b starting at t=0 has no tokens.
        let s = Schedule {
            firings: vec![Firing {
                actor: b,
                start: 0,
                end: 2,
            }],
            period: None,
        };
        assert!(matches!(
            s.validate(&g, &d),
            Err(ScheduleViolation::MissingTokens { .. })
        ));

        // Two overlapping firings of a.
        let s = Schedule {
            firings: vec![
                Firing {
                    actor: a,
                    start: 0,
                    end: 1,
                },
                Firing {
                    actor: a,
                    start: 0,
                    end: 1,
                },
            ],
            period: None,
        };
        assert!(matches!(
            s.validate(&g, &d),
            Err(ScheduleViolation::AutoConcurrency { .. })
        ));

        // Three a-firings back to back overflow α (capacity 4 < 6).
        let s = Schedule {
            firings: vec![
                Firing {
                    actor: a,
                    start: 0,
                    end: 1,
                },
                Firing {
                    actor: a,
                    start: 1,
                    end: 2,
                },
                Firing {
                    actor: a,
                    start: 2,
                    end: 3,
                },
            ],
            period: None,
        };
        assert!(matches!(
            s.validate(&g, &d),
            Err(ScheduleViolation::MissingSpace { .. })
        ));
    }

    #[test]
    fn gantt_renders() {
        let g = example();
        let s = extract(&g, &[4, 2]);
        let chart = s.gantt(&g, 16);
        assert!(chart.contains("a"));
        assert!(chart.contains("X"));
        assert!(chart.contains("-"));
        assert_eq!(chart.lines().count(), 2 + g.num_actors());
    }

    #[test]
    fn violation_messages() {
        let a = ActorId::new(0);
        for v in [
            ScheduleViolation::AutoConcurrency { actor: a, time: 3 },
            ScheduleViolation::MissingTokens { actor: a, time: 3 },
            ScheduleViolation::MissingSpace { actor: a, time: 3 },
        ] {
            assert!(v.to_string().contains("t=3"));
        }
    }
}
