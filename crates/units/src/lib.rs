//! Physical-quantity newtypes for the OTEM electric-vehicle simulator.
//!
//! Every model crate in the OTEM workspace (battery, ultracapacitor,
//! thermal plant, drive cycle, controller) exchanges physical quantities.
//! Representing them as raw `f64` invites unit bugs — a watt passed where a
//! joule was expected, a Celsius value fed into an Arrhenius exponent that
//! needs kelvin. This crate provides thin `f64` newtypes with:
//!
//! * arithmetic restricted to dimensionally meaningful operations
//!   (`Watts * Seconds = Joules`, `Volts * Amps = Watts`, …),
//! * explicit conversion constructors (`Kelvin::from_celsius`),
//! * the common trait set (`Copy`, `PartialOrd`, `Debug`, `Display`,
//!   `Default`, serde) so the types slot into collections and configs.
//!
//! # Examples
//!
//! ```
//! use otem_units::{Volts, Amps, Watts, Seconds, Joules};
//!
//! let v = Volts::new(350.0);
//! let i = Amps::new(120.0);
//! let p: Watts = v * i;
//! let e: Joules = p * Seconds::new(10.0);
//! assert_eq!(e, Joules::new(420_000.0));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

#[macro_use]
mod quantity;

mod electrical;
mod energy;
mod mechanics;
mod ratio;
mod thermal;

pub use electrical::{AmpHours, Amps, Coulombs, Farads, Ohms, Volts};
pub use energy::{Joules, Kilowatts, Watts};
pub use mechanics::{Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Newtons, Seconds};
pub use ratio::Ratio;
pub use thermal::{Celsius, HeatCapacity, Kelvin, KelvinPerSecond, ThermalConductance};

/// Ideal gas constant in J/(mol·K); used by the Arrhenius capacity-loss
/// model (paper Eq. 5).
pub const GAS_CONSTANT: f64 = 8.314_462_618;
