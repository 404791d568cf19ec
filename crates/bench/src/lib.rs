//! Shared experiment infrastructure for regenerating the OTEM paper's
//! tables and figures.
//!
//! Each binary in `src/bin/` reproduces one exhibit (see DESIGN.md §4);
//! this library holds the common pieces: the standard configurations
//! and traces, and running a [`Methodology`] (the fleet's methodology
//! table) over them.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod plot;

use otem::mpc::MpcConfig;
use otem::{OtemError, SimulationResult, Simulator, SystemConfig};
use otem_drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
pub use otem_fleet::Methodology;
use otem_units::{Farads, Kelvin};

/// The configuration the cycle-sweep experiments (Figs. 8–9) run under:
/// the default system in a hot, 35 °C climate — the regime where battery
/// cooling is genuinely load-bearing and the paper's consumption gaps
/// between cooled and passive architectures appear on every cycle.
pub fn paper_config() -> SystemConfig {
    SystemConfig::default().with_ambient(Kelvin::from_celsius(35.0))
}

/// The thermally stressed rig of the paper's Figs. 1, 6, 7 and Table I:
/// city-EV pack + compact vehicle at 30 °C ambient (see
/// `SystemConfig::stress_rig`).
pub fn stress_config() -> SystemConfig {
    SystemConfig::stress_rig()
}

/// [`stress_config`] at a given ultracapacitor size.
pub fn stress_config_with_capacitance(farads: f64) -> SystemConfig {
    SystemConfig {
        capacitance: Farads::new(farads),
        ..SystemConfig::stress_rig()
    }
}

/// Power trace of a standard cycle for the *compact* vehicle that pairs
/// with [`stress_config`].
///
/// # Errors
///
/// Propagates cycle-synthesis errors.
pub fn stress_trace(cycle: StandardCycle, repeats: usize) -> Result<PowerTrace, OtemError> {
    let c = standard(cycle)?.repeat(repeats);
    let train = Powertrain::new(VehicleParams::compact_ev())?;
    Ok(train.power_trace(&c))
}

/// Builds the power-request trace for a standard cycle with the default
/// vehicle, repeated `repeats` times.
///
/// # Errors
///
/// Propagates cycle-synthesis errors.
pub fn cycle_trace(cycle: StandardCycle, repeats: usize) -> Result<PowerTrace, OtemError> {
    let c = standard(cycle)?.repeat(repeats);
    let train = Powertrain::new(VehicleParams::midsize_ev())?;
    Ok(train.power_trace(&c))
}

/// [`paper_config`] as the exhibit headers ([`config_header`]) name it,
/// with the vehicle its cycle traces ([`cycle_trace`]) use.
pub const PAPER_CONFIG: &str =
    "paper_config() (SystemConfig::default at 35 °C ambient, midsize EV, 25,000 F)";

/// [`stress_config`] as the exhibit headers ([`config_header`]) name it,
/// with the vehicle its traces ([`stress_trace`]) use.
pub const STRESS_CONFIG: &str =
    "stress_config() (SystemConfig::stress_rig: city-EV pack, compact EV, 30 °C ambient, 25,000 F)";

/// The `# config:` line an exhibit prints under its title, so that its
/// `results/*.txt` capture names what produced it: `system` describes
/// the plant configuration (and what the exhibit sweeps), and `mpc` is
/// the OTEM tuning, printed in full, or `None` when no controller in the
/// exhibit runs the MPC.
pub fn config_header(system: &str, mpc: Option<&MpcConfig>) -> String {
    match mpc {
        Some(mpc) => format!("# config: {system}; {mpc:?}"),
        None => format!("# config: {system}; no MPC"),
    }
}

/// Runs one methodology over one trace under the given configuration.
///
/// # Errors
///
/// Propagates controller construction errors.
pub fn run(
    methodology: Methodology,
    config: &SystemConfig,
    trace: &PowerTrace,
) -> Result<SimulationResult, OtemError> {
    let mut controller = methodology.controller(config, MpcConfig::default(), None)?;
    Ok(Simulator::new(config).run(controller.as_mut(), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem_units::{Farads, Seconds, Watts};

    #[test]
    fn all_methodologies_build() {
        let config = SystemConfig::default();
        for m in Methodology::ALL {
            m.controller(&config, MpcConfig::default(), None)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }

    #[test]
    fn short_run_produces_metrics_for_every_methodology() {
        let config = SystemConfig::with_capacitance(Farads::new(10_000.0));
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(25_000.0); 30]);
        for m in [Methodology::Parallel, Methodology::Dual] {
            let result = run(m, &config, &trace).expect("runs");
            assert_eq!(result.records.len(), 30);
            assert!(result.totals.energy.value() > 0.0, "{}", m.name());
        }
    }
}
