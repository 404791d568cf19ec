//! Time sources and deadlines for *anytime* solves.
//!
//! Real-time MPC treats per-step compute budget as a first-class
//! constraint: a solve that overruns its slot is worse than a slightly
//! less converged iterate delivered on time. The solver here therefore
//! accepts an optional [`Deadline`] and returns
//! [`SolverOutcome::DeadlineReached`](crate::SolverOutcome::DeadlineReached)
//! with the best feasible iterate when it expires.
//!
//! Wall-clock assertions are untestable in CI, so the time source is a
//! pluggable [`Clock`] trait: production uses [`MonotonicClock`]
//! (backed by [`std::time::Instant`]); tests use [`VirtualClock`], whose
//! reading only moves when the test advances it (optionally by a fixed
//! tick per read), making deadline behaviour bit-reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// Implementations must be monotone non-decreasing; the absolute origin
/// is arbitrary (deadlines are computed as `now + budget` against the
/// same clock).
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's (arbitrary) origin.
    fn now_ns(&self) -> u64;
}

/// The production time source: nanoseconds since construction, via
/// [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic test clock: reads return a counter that only moves
/// when the test says so — either explicitly via
/// [`VirtualClock::advance`] or automatically by a fixed tick per read
/// ([`VirtualClock::with_tick`]), which models "every clock check costs
/// a fixed amount of work" without any real time passing.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
    tick: u64,
}

impl VirtualClock {
    /// A clock frozen at 0 until [`VirtualClock::advance`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that auto-advances by `tick_ns` *after* every read, so
    /// the `k`-th read returns `k · tick_ns` deterministically.
    pub fn with_tick(tick_ns: u64) -> Self {
        Self {
            now: AtomicU64::new(0),
            tick: tick_ns,
        }
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.tick, Ordering::SeqCst)
    }
}

/// An absolute expiry instant against a specific [`Clock`].
///
/// Built from a relative budget with [`Deadline::after`]; solvers poll
/// [`Deadline::expired`] once per outer iteration (convergence is
/// checked first, so a solve that meets tolerance on the deadline
/// iteration still reports `Converged`).
#[derive(Debug, Clone, Copy)]
pub struct Deadline<'a> {
    clock: &'a dyn Clock,
    expires_ns: u64,
}

impl<'a> Deadline<'a> {
    /// A deadline `budget_ns` nanoseconds from the clock's current
    /// reading. A zero budget is already expired at the next read.
    pub fn after(clock: &'a dyn Clock, budget_ns: u64) -> Self {
        Self {
            clock,
            expires_ns: clock.now_ns().saturating_add(budget_ns),
        }
    }

    /// Whether the clock has reached the expiry instant.
    pub fn expired(&self) -> bool {
        self.clock.now_ns() >= self.expires_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = MonotonicClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_frozen_until_advanced() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 0);
        clock.advance(7);
        assert_eq!(clock.now_ns(), 7);
    }

    #[test]
    fn ticking_clock_advances_per_read() {
        let clock = VirtualClock::with_tick(10);
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 10);
        clock.advance(5);
        assert_eq!(clock.now_ns(), 25);
    }

    #[test]
    fn zero_budget_deadline_is_immediately_expired() {
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, 0);
        assert!(deadline.expired());
    }

    #[test]
    fn deadline_expires_exactly_on_the_boundary() {
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, 100);
        assert!(!deadline.expired());
        clock.advance(99);
        assert!(!deadline.expired());
        clock.advance(1);
        assert!(deadline.expired());
    }

    #[test]
    fn saturating_budget_never_wraps() {
        let clock = VirtualClock::new();
        clock.advance(u64::MAX - 10);
        let deadline = Deadline::after(&clock, u64::MAX);
        assert!(!deadline.expired());
    }
}
