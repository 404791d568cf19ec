//! A small dense nonlinear-programming toolkit for the OTEM MPC.
//!
//! The OTEM paper formulates its thermal/energy management as a nonlinear
//! program solved at every control step (Eq. 18–19) — in the authors'
//! setup by MATLAB's NLP machinery. This crate provides the equivalent
//! from scratch:
//!
//! * [`ProjectedGradient`] — Barzilai–Borwein spectral gradient descent
//!   projected onto box constraints (the workhorse for the MPC's
//!   single-shooting transcription),
//! * [`Objective`] — the value-and-gradient contract the solver
//!   minimises (the MPC's rollout objective implements it),
//! * [`Clock`] / [`Deadline`] — pluggable time sources for *anytime*
//!   solves: [`MonotonicClock`] in production, [`VirtualClock`] in tests
//!   (deadline behaviour becomes bit-reproducible).
//!
//! # Examples
//!
//! ```
//! use otem_solver::{Bounds, Objective, ProjectedGradient};
//! use otem_telemetry::NullSink;
//!
//! /// (x-3)² + (y+1)² with its analytic gradient.
//! struct Bowl;
//!
//! impl Objective for Bowl {
//!     fn value(&self, x: &[f64]) -> f64 {
//!         (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
//!     }
//!     fn gradient(&self, x: &[f64], grad: &mut [f64]) {
//!         grad[0] = 2.0 * (x[0] - 3.0);
//!         grad[1] = 2.0 * (x[1] + 1.0);
//!     }
//! }
//!
//! // minimise over the box x, y ∈ [0, 2], with no telemetry and no deadline
//! let bounds = Bounds::new(vec![0.0; 2], vec![2.0; 2]);
//! let solver = ProjectedGradient {
//!     max_iterations: 100,
//!     tolerance: 1e-8,
//! };
//! let solution = solver.minimize_within(&Bowl, &bounds, &[1.0, 1.0], &NullSink, None);
//! assert!((solution.x[0] - 2.0).abs() < 1e-6);
//! assert!(solution.x[1].abs() < 1e-6);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bounds;
mod clock;
mod objective;
mod projected;
mod solution;

pub use bounds::Bounds;
pub use clock::{Clock, Deadline, MonotonicClock, VirtualClock};
pub use objective::Objective;
pub use projected::ProjectedGradient;
pub use solution::{Solution, SolverOutcome};
