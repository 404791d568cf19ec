//! Solver result types.

use serde::{Deserialize, Serialize};

/// How a minimisation run ended — the structured replacement for a bare
/// `converged` flag, so callers (the MPC's telemetry and the fleet's
/// outcome tally in particular) can distinguish "met tolerance" from
/// "ran out of budget", "line search stalled" and "the objective itself
/// is broken".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverOutcome {
    /// The convergence tolerance was met.
    Converged,
    /// The iteration budget ran out; the point is the best seen and is
    /// normally still usable (standard for a real-time MPC solve).
    BudgetExhausted,
    /// The line search could make no further progress from the current
    /// iterate (numerically flat or ill-conditioned terrain). The point
    /// is the best seen.
    Stalled,
    /// A non-finite objective value or gradient was encountered — the
    /// problem data is corrupt and the returned point is *not*
    /// trustworthy beyond being the (projected) starting point.
    NonFinite,
    /// The wall-clock (or virtual-clock) deadline expired before the
    /// tolerance was met. The point is the best feasible iterate seen —
    /// the *anytime* contract: finite, inside the box, and at least as
    /// good as the projected warm start.
    DeadlineReached,
}

impl SolverOutcome {
    /// Stable snake_case name (for logs and telemetry).
    pub fn name(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::BudgetExhausted => "budget_exhausted",
            Self::Stalled => "stalled",
            Self::NonFinite => "non_finite",
            Self::DeadlineReached => "deadline_reached",
        }
    }
}

/// The result of a minimisation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Outer iterations actually performed (not the configured budget).
    pub iterations: usize,
    /// How the run ended.
    pub outcome: SolverOutcome,
}

impl Solution {
    /// Builds a solution record.
    pub fn new(x: Vec<f64>, value: f64, iterations: usize, outcome: SolverOutcome) -> Self {
        Self {
            x,
            value,
            iterations,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carries_fields() {
        let s = Solution::new(vec![1.0], 0.5, 10, SolverOutcome::Converged);
        assert_eq!(s.x, vec![1.0]);
        assert_eq!(s.value, 0.5);
        assert_eq!(s.iterations, 10);
        assert_eq!(s.outcome, SolverOutcome::Converged);
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(SolverOutcome::Converged.name(), "converged");
        assert_eq!(SolverOutcome::BudgetExhausted.name(), "budget_exhausted");
        assert_eq!(SolverOutcome::Stalled.name(), "stalled");
        assert_eq!(SolverOutcome::NonFinite.name(), "non_finite");
        assert_eq!(SolverOutcome::DeadlineReached.name(), "deadline_reached");
    }
}
