//! Drive cycles and EV power-train modelling for the OTEM simulator.
//!
//! The OTEM paper estimates the EV's power requests with ADVISOR (the
//! NREL Advanced Vehicle Simulator) driving standard regulatory cycles.
//! ADVISOR and its cycle files are MATLAB artifacts unavailable here, so
//! this crate substitutes both halves (see DESIGN.md §3):
//!
//! * [`CycleSpec`]/[`synthesize`] — a deterministic micro-trip generator
//!   that produces second-by-second speed traces matching each standard
//!   cycle's published summary statistics (duration, distance, average
//!   and maximum speed, stop count, acceleration envelope).
//! * [`Powertrain`] — a backward-facing longitudinal-dynamics model (the
//!   same approach ADVISOR uses): road load = inertia + aerodynamic drag
//!   plus rolling resistance on a level road, mapped through drivetrain
//!   efficiency and regenerative-braking recapture to battery-bus power.
//!
//! The product is a [`PowerTrace`]: the `P_e` input of the paper's
//! Algorithm 1.
//!
//! # Examples
//!
//! ```
//! use otem_drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
//!
//! # fn main() -> Result<(), otem_drivecycle::CycleError> {
//! let cycle = standard(StandardCycle::Us06)?;
//! let powertrain = Powertrain::new(VehicleParams::midsize_ev())?;
//! let trace = powertrain.power_trace(&cycle);
//! assert!(trace.peak().value() > 50_000.0); // US06 is aggressive
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cycle;
mod error;
mod spec;
mod synth;
mod trace;
mod vehicle;

pub use cycle::DriveCycle;
pub use error::CycleError;
pub use spec::{CycleSpec, StandardCycle};
pub use synth::synthesize;
pub use trace::PowerTrace;
pub use vehicle::{Powertrain, VehicleParams};

/// Synthesises one of the standard regulatory cycles from its published
/// statistics, deterministically (same cycle ⇒ same trace).
///
/// # Errors
///
/// Returns [`CycleError`] if synthesis cannot satisfy the spec (should
/// not happen for the built-in specs; the error path exists for custom
/// specs).
pub fn standard(cycle: StandardCycle) -> Result<DriveCycle, CycleError> {
    synthesize(&cycle.spec(), cycle.seed())
}
