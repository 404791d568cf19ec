//! Simulation results: the quantities the paper's evaluation reports.

use crate::controller::StepRecord;
use crate::sim::RunTotals;
use otem_units::{Kelvin, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// The outcome of driving one controller over one power trace.
///
/// Carries the paper's Algorithm 1 outputs — accumulated battery
/// capacity loss `Q_loss` and HEES energy `Energy` — in the route
/// ledger the step loop folded ([`RunTotals`]), plus the full per-step
/// records for the temporal analyses (Figs. 6–7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Methodology name.
    pub methodology: &'static str,
    /// Control period used.
    pub dt: Seconds,
    /// Per-step records.
    pub records: Vec<StepRecord>,
    /// Every route total, summed once as the run stepped.
    pub totals: RunTotals,
}

impl SimulationResult {
    /// Average power consumption over the route (the Fig. 9 / Table I
    /// metric).
    pub fn average_power(&self) -> Watts {
        let duration = self.duration();
        if duration.value() == 0.0 {
            return Watts::ZERO;
        }
        self.totals.energy / duration
    }

    /// Route duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.records.len() as f64
    }

    /// Time (s) spent with the battery above the given temperature —
    /// the thermal-violation measure behind Fig. 1.
    pub fn time_above(&self, limit: Kelvin) -> Seconds {
        let n = self
            .records
            .iter()
            .filter(|r| r.state.battery_temp > limit)
            .count();
        self.dt * n as f64
    }

    /// The battery-temperature time series (for Figs. 1, 6, 7).
    pub fn battery_temps(&self) -> Vec<Kelvin> {
        self.records.iter().map(|r| r.state.battery_temp).collect()
    }

    /// The ultracapacitor SoE time series as fractions (for Fig. 7).
    pub fn soe_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.state.soe.value()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SystemState;
    use crate::sim::tests::replay;
    use otem_hees::HeesStep;
    use otem_units::{Joules, Ratio};

    fn record(load: f64, internal: f64, cooling: f64, temp_c: f64) -> StepRecord {
        StepRecord {
            load: Watts::new(load),
            hees: HeesStep {
                battery_internal: Watts::new(internal),
                ..HeesStep::default()
            },
            cooling_power: Watts::new(cooling),
            state: SystemState {
                battery_temp: Kelvin::from_celsius(temp_c),
                coolant_temp: Kelvin::from_celsius(temp_c),
                soe: Ratio::HALF,
                soc: Ratio::HALF,
            },
        }
    }

    fn result() -> SimulationResult {
        replay(
            Seconds::new(1.0),
            &[
                record(1000.0, 1100.0, 0.0, 25.0),
                record(2000.0, 2250.0, 200.0, 32.0),
                record(500.0, 600.0, 200.0, 41.0),
            ],
        )
    }

    #[test]
    fn energy_sums_internal_power() {
        let r = result();
        assert_eq!(r.totals.energy, Joules::new(1100.0 + 2250.0 + 600.0));
        assert_eq!(r.totals.cooling_energy, Joules::new(400.0));
    }

    #[test]
    fn average_power_is_energy_over_duration() {
        let r = result();
        assert!((r.average_power().value() - 3950.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.duration(), Seconds::new(3.0));
    }

    #[test]
    fn thermal_summaries() {
        let r = result();
        assert_eq!(r.totals.peak_battery_temp, Kelvin::from_celsius(41.0));
        assert_eq!(r.time_above(Kelvin::from_celsius(40.0)), Seconds::new(1.0));
        assert_eq!(r.time_above(Kelvin::from_celsius(30.0)), Seconds::new(2.0));
        assert_eq!(r.battery_temps().len(), 3);
    }

    #[test]
    fn empty_result_is_well_defined() {
        let r = replay(Seconds::new(1.0), &[]);
        assert_eq!(r.average_power(), Watts::ZERO);
        assert_eq!(r.totals.energy, Joules::ZERO);
    }
}
