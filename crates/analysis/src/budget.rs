//! Cooperative cancellation and evaluation budgets for long analyses.
//!
//! [`CancelToken`] is the resilience layer's shared budget object: an
//! atomic cancellation flag, an optional wall-clock deadline and an
//! optional evaluation-count budget. One token is created per run (the
//! CLI arms it from `--timeout`/`--max-evals` and its SIGINT handler) and
//! shared — behind an `Arc` — by every worker of an exploration. The
//! per-distribution analysis polls it on a coarse stride, every 1024
//! engine advances
//! ([`throughput_analysis`](crate::throughput_analysis));
//! an advance jumps to the next firing completion, so the stride counts
//! events, not time units. Cancellation is cooperative: a set flag stops
//! the run at the next stride boundary, never mid-state.
//!
//! Cancellation is *sticky* and first-wins: once a reason is recorded,
//! later `cancel` calls do not overwrite it. This keeps the reported
//! reason stable when, say, a deadline and a SIGINT race.

use core::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Why a run was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CancelReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The user interrupted the run (SIGINT or an explicit cancel).
    Interrupt,
    /// The evaluation-count budget was exhausted.
    EvaluationBudget,
    /// The memory watchdog tripped: the cumulative reduced-state count
    /// (the run's dominant allocation) exceeded the configured budget.
    MemoryBudget,
}

impl CancelReason {
    /// Stable machine-readable name, used in JSON output and traces.
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Interrupt => "interrupt",
            CancelReason::EvaluationBudget => "eval-budget",
            CancelReason::MemoryBudget => "memory-budget",
        }
    }

    fn flag(self) -> u8 {
        match self {
            CancelReason::Deadline => 1,
            CancelReason::Interrupt => 2,
            CancelReason::EvaluationBudget => 3,
            CancelReason::MemoryBudget => 4,
        }
    }

    fn from_flag(v: u8) -> Option<CancelReason> {
        match v {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::Interrupt),
            3 => Some(CancelReason::EvaluationBudget),
            4 => Some(CancelReason::MemoryBudget),
            _ => None,
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Deadline => write!(f, "wall-clock deadline exceeded"),
            CancelReason::Interrupt => write!(f, "interrupted"),
            CancelReason::EvaluationBudget => write!(f, "evaluation budget exhausted"),
            CancelReason::MemoryBudget => write!(f, "memory budget exhausted"),
        }
    }
}

/// A shared, cooperative cancellation token with optional budgets.
///
/// The flag is a single `AtomicU8` (0 = live, otherwise the
/// [`CancelReason`] discriminant), so polling it is one relaxed load.
/// Deadline expiry is detected lazily by [`check`](CancelToken::check)
/// and cached into the flag; the evaluation budget trips inside
/// [`note_evaluation`](CancelToken::note_evaluation).
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicU8,
    deadline: Option<Instant>,
    eval_budget: Option<u64>,
    evals: AtomicU64,
    state_budget: Option<u64>,
    states: AtomicU64,
}

impl CancelToken {
    /// A live token with no deadline and no budget (never trips on its
    /// own; only [`cancel`](CancelToken::cancel) can stop it).
    pub const fn new() -> CancelToken {
        CancelToken {
            flag: AtomicU8::new(0),
            deadline: None,
            eval_budget: None,
            evals: AtomicU64::new(0),
            state_budget: None,
            states: AtomicU64::new(0),
        }
    }

    /// Arms a wall-clock deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> CancelToken {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Arms an evaluation-count budget: the token cancels itself with
    /// [`CancelReason::EvaluationBudget`] once `budget` evaluations have
    /// been [noted](CancelToken::note_evaluation). A budget of 0 trips on
    /// the first check.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: u64) -> CancelToken {
        self.eval_budget = Some(budget);
        if budget == 0 {
            self.flag = AtomicU8::new(CancelReason::EvaluationBudget.flag());
        }
        self
    }

    /// Arms the memory watchdog: the token cancels itself with
    /// [`CancelReason::MemoryBudget`] once `budget` reduced states have
    /// been [noted](CancelToken::note_states) across the run. States are
    /// the exploration's dominant allocation, so the count is a faithful,
    /// deterministic proxy for arena pressure. A budget of 0 trips on the
    /// first check.
    #[must_use]
    pub fn with_state_budget(mut self, budget: u64) -> CancelToken {
        self.state_budget = Some(budget);
        if budget == 0 {
            self.flag = AtomicU8::new(CancelReason::MemoryBudget.flag());
        }
        self
    }

    /// Requests cancellation. The first recorded reason wins; later calls
    /// are no-ops.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self
            .flag
            .compare_exchange(0, reason.flag(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Polls the token: returns the cancellation reason if the run should
    /// stop, checking (and caching) deadline expiry.
    pub fn check(&self) -> Option<CancelReason> {
        let v = self.flag.load(Ordering::Relaxed);
        if v != 0 {
            return CancelReason::from_flag(v);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::Deadline);
                return CancelReason::from_flag(self.flag.load(Ordering::Relaxed));
            }
        }
        None
    }

    /// Whether cancellation has been requested (or a deadline passed).
    pub fn is_cancelled(&self) -> bool {
        self.check().is_some()
    }

    /// Records one completed evaluation, tripping the evaluation budget
    /// when it is exhausted.
    pub fn note_evaluation(&self) {
        let n = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.eval_budget {
            if n >= budget {
                self.cancel(CancelReason::EvaluationBudget);
            }
        }
    }

    /// Number of evaluations noted so far.
    pub fn evaluations(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Records `n` reduced states stored by an analysis, tripping the
    /// memory watchdog when the cumulative total reaches the budget.
    pub fn note_states(&self, n: u64) {
        let total = self.states.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(budget) = self.state_budget {
            if total >= budget {
                self.cancel(CancelReason::MemoryBudget);
            }
        }
    }

    /// Cumulative reduced-state count noted so far.
    pub fn states_noted(&self) -> u64 {
        self.states.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert_eq!(t.check(), None);
        assert!(!t.is_cancelled());
        assert_eq!(t.evaluations(), 0);
    }

    #[test]
    fn first_cancel_reason_sticks() {
        let t = CancelToken::new();
        t.cancel(CancelReason::Interrupt);
        t.cancel(CancelReason::Deadline);
        assert_eq!(t.check(), Some(CancelReason::Interrupt));
    }

    #[test]
    fn expired_deadline_trips_on_check() {
        let t = CancelToken::new().with_deadline(Duration::from_secs(0));
        assert_eq!(t.check(), Some(CancelReason::Deadline));
        // Cached: stays cancelled.
        assert!(t.is_cancelled());
    }

    #[test]
    fn distant_deadline_stays_live() {
        let t = CancelToken::new().with_deadline(Duration::from_secs(3600));
        assert_eq!(t.check(), None);
    }

    #[test]
    fn eval_budget_trips_at_count() {
        let t = CancelToken::new().with_eval_budget(3);
        t.note_evaluation();
        t.note_evaluation();
        assert_eq!(t.check(), None);
        t.note_evaluation();
        assert_eq!(t.check(), Some(CancelReason::EvaluationBudget));
        assert_eq!(t.evaluations(), 3);
    }

    #[test]
    fn zero_eval_budget_starts_cancelled() {
        let t = CancelToken::new().with_eval_budget(0);
        assert_eq!(t.check(), Some(CancelReason::EvaluationBudget));
    }

    #[test]
    fn state_budget_trips_at_cumulative_count() {
        let t = CancelToken::new().with_state_budget(100);
        t.note_states(40);
        t.note_states(59);
        assert_eq!(t.check(), None);
        t.note_states(1);
        assert_eq!(t.check(), Some(CancelReason::MemoryBudget));
        assert_eq!(t.states_noted(), 100);
    }

    #[test]
    fn zero_state_budget_starts_cancelled() {
        let t = CancelToken::new().with_state_budget(0);
        assert_eq!(t.check(), Some(CancelReason::MemoryBudget));
    }

    #[test]
    fn unbudgeted_states_never_trip() {
        let t = CancelToken::new();
        t.note_states(u64::MAX / 2);
        assert_eq!(t.check(), None);
        assert_eq!(t.states_noted(), u64::MAX / 2);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(CancelReason::Deadline.name(), "deadline");
        assert_eq!(CancelReason::Interrupt.name(), "interrupt");
        assert_eq!(CancelReason::EvaluationBudget.name(), "eval-budget");
        assert_eq!(CancelReason::MemoryBudget.name(), "memory-budget");
        assert!(CancelReason::Interrupt.to_string().contains("interrupted"));
    }
}
