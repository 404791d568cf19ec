//! Shared experiment infrastructure for regenerating the OTEM paper's
//! tables and figures.
//!
//! Each binary in `src/bin/` reproduces one exhibit (see DESIGN.md §4);
//! this library holds the common pieces: building controllers by
//! methodology name, running them over standard cycles, and formatting
//! the result tables.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod plot;

use otem::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem::{Controller, OtemError, SimulationResult, Simulator, SystemConfig};
use otem_drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_fleet::SolveOutcomes;
use otem_telemetry::{MetricsRegistry, Sink};
use otem_units::{Farads, Kelvin};

/// The configuration the cycle-sweep experiments (Figs. 8–9) run under:
/// the default system in a hot, 35 °C climate — the regime where battery
/// cooling is genuinely load-bearing and the paper's consumption gaps
/// between cooled and passive architectures appear on every cycle.
pub fn paper_config() -> SystemConfig {
    SystemConfig::default().with_ambient(Kelvin::from_celsius(35.0))
}

/// [`paper_config`] with a different ultracapacitor size (Table I,
/// Fig. 1 sweeps).
pub fn paper_config_with_capacitance(farads: f64) -> SystemConfig {
    SystemConfig::with_capacitance(Farads::new(farads)).with_ambient(Kelvin::from_celsius(30.0))
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

/// The four methodologies of the paper's comparison (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Methodology {
    /// Parallel architecture, no management \[15\].
    Parallel,
    /// Battery-only with thermostatic active cooling \[25\].
    ActiveCooling,
    /// Dual architecture with temperature-threshold switching \[16\].
    Dual,
    /// The paper's contribution.
    Otem,
}

impl Methodology {
    /// All methodologies in the paper's reporting order.
    pub const ALL: [Methodology; 4] = [
        Methodology::Parallel,
        Methodology::ActiveCooling,
        Methodology::Dual,
        Methodology::Otem,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Parallel => "Parallel",
            Self::ActiveCooling => "ActiveCooling",
            Self::Dual => "Dual",
            Self::Otem => "OTEM",
        }
    }

    /// Builds the controller for this methodology.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn controller(self, config: &SystemConfig) -> Result<Box<dyn Controller>, OtemError> {
        Ok(match self {
            Self::Parallel => Box::new(Parallel::new(config)?),
            Self::ActiveCooling => Box::new(ActiveCooling::new(config)?),
            Self::Dual => Box::new(Dual::new(config)?),
            Self::Otem => Box::new(Otem::new(config)?),
        })
    }
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
    let mut controller = methodology.controller(config)?;
    Ok(Simulator::new(config).run(controller.as_mut(), trace))
}

/// [`run`] with structured telemetry streamed into `sink` (see
/// `otem_telemetry`): per-step [`otem_telemetry::Event::StepCompleted`]
/// plus whatever the methodology's controller emits (solver iterations,
/// pool traffic, cooling toggles, ultracapacitor saturation). The result
/// is `PartialEq`-identical to [`run`]'s for any sink.
///
/// # Errors
///
/// Propagates controller construction errors.
pub fn run_with(
    methodology: Methodology,
    config: &SystemConfig,
    trace: &PowerTrace,
    sink: &dyn Sink,
) -> Result<SimulationResult, OtemError> {
    let mut controller = methodology.controller(config)?;
    Ok(Simulator::new(config).run_with(controller.as_mut(), trace, sink))
}

/// Folds a solve-outcome tally into `registry` under the
/// `otem_solve_outcome_total{mode,outcome}` family the fleet server
/// exports, so the BENCH files' `metrics` blocks and live scrapes read
/// identically.
pub fn fold_outcomes(registry: &MetricsRegistry, mode: &str, outcomes: &SolveOutcomes) {
    const HELP: &str = "MPC solve outcomes by gradient mode across the benchmark's solves.";
    for (outcome, n) in [
        ("converged", outcomes.converged),
        ("budget_exhausted", outcomes.budget_exhausted),
        ("stalled", outcomes.stalled),
        ("non_finite", outcomes.non_finite),
        ("deadline_reached", outcomes.deadline_reached),
    ] {
        registry
            .counter(
                "otem_solve_outcome_total",
                HELP,
                &[("mode", mode), ("outcome", outcome)],
            )
            .add(n);
    }
}

/// Formats a ratio as a percentage with sign.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

// The worker-pool fans moved to `otem_fleet::pool` (PR 6) so the fleet
// engine and the sweep binaries share one implementation; re-exported
// here to keep the sweep binaries' call sites unchanged.
pub use otem_fleet::pool::{fan_indexed, fan_indexed_capped, fan_stealing};

#[cfg(test)]
mod tests {
    use super::*;
    use otem_units::{Farads, Seconds, Watts};

    #[test]
    fn all_methodologies_build() {
        let config = SystemConfig::default();
        for m in Methodology::ALL {
            m.controller(&config)
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }

    #[test]
    fn fan_indexed_preserves_job_order() {
        let jobs: Vec<usize> = (0..17).collect();
        let fanned = fan_indexed(jobs, |i, j| {
            assert_eq!(i, j, "index matches the job's position");
            3 * j + 1
        });
        let serial: Vec<usize> = (0..17).map(|j| 3 * j + 1).collect();
        assert_eq!(fanned, serial);
        // Degenerate sizes.
        assert_eq!(fan_indexed(vec![5usize], |_, j| j * j), vec![25]);
        assert_eq!(
            fan_indexed(Vec::<usize>::new(), |_, j| j),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn short_run_produces_metrics_for_every_methodology() {
        let config = SystemConfig::with_capacitance(Farads::new(10_000.0));
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(25_000.0); 30]);
        for m in [Methodology::Parallel, Methodology::Dual] {
            let result = run(m, &config, &trace).expect("runs");
            assert_eq!(result.records.len(), 30);
            assert!(result.energy().value() > 0.0, "{}", m.name());
        }
    }
}
