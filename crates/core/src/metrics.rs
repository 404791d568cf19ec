//! Simulation results: the quantities the paper's evaluation reports.

use crate::controller::StepRecord;
use otem_units::{Joules, Kelvin, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// The outcome of driving one controller over one power trace.
///
/// Collects the paper's Algorithm 1 outputs — accumulated battery
/// capacity loss `Q_loss` and HEES energy `Energy` — plus the full
/// per-step records for the temporal analyses (Figs. 6–7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Methodology name.
    pub methodology: &'static str,
    /// Control period used.
    pub dt: Seconds,
    /// Per-step records.
    pub records: Vec<StepRecord>,
    /// Accumulated battery capacity loss (fraction of rated capacity).
    pub capacity_loss: f64,
}

impl SimulationResult {
    /// Accumulated capacity loss (fraction of rated capacity) — the
    /// paper's `Q_loss` output.
    pub fn capacity_loss(&self) -> f64 {
        self.capacity_loss
    }

    /// Total energy consumed from the HEES (battery chemical + net
    /// ultracapacitor energy) — the paper's `Energy` output. Includes
    /// the energy spent powering the cooling system, which is served
    /// from the bus.
    pub fn energy(&self) -> Joules {
        self.records.iter().map(|r| r.total_power() * self.dt).sum()
    }

    /// Energy drawn by the cooling system alone.
    pub fn cooling_energy(&self) -> Joules {
        self.records.iter().map(|r| r.cooling_power * self.dt).sum()
    }

    /// Average power consumption over the route (the Fig. 9 / Table I
    /// metric).
    pub fn average_power(&self) -> Watts {
        let duration = self.duration();
        if duration.value() == 0.0 {
            return Watts::ZERO;
        }
        self.energy() / duration
    }

    /// Route duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.records.len() as f64
    }

    /// Peak battery temperature reached.
    pub fn peak_battery_temp(&self) -> Kelvin {
        self.records
            .iter()
            .map(|r| r.state.battery_temp)
            .fold(Kelvin::ZERO, Kelvin::max)
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

    /// Total unserved load energy (should be ≈ 0 for a healthy
    /// configuration; nonzero values flag an undersized storage).
    pub fn shortfall_energy(&self) -> Joules {
        self.records
            .iter()
            .map(|r| r.hees.shortfall * self.dt)
            .sum()
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
    use otem_hees::HeesStep;
    use otem_units::Ratio;

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
        SimulationResult {
            methodology: "test",
            dt: Seconds::new(1.0),
            records: vec![
                record(1000.0, 1100.0, 0.0, 25.0),
                record(2000.0, 2250.0, 200.0, 32.0),
                record(500.0, 600.0, 200.0, 41.0),
            ],
            capacity_loss: 1.5e-6,
        }
    }

    #[test]
    fn energy_sums_internal_power() {
        let r = result();
        assert_eq!(r.energy(), Joules::new(1100.0 + 2250.0 + 600.0));
        assert_eq!(r.cooling_energy(), Joules::new(400.0));
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
        assert_eq!(r.peak_battery_temp(), Kelvin::from_celsius(41.0));
        assert_eq!(r.time_above(Kelvin::from_celsius(40.0)), Seconds::new(1.0));
        assert_eq!(r.time_above(Kelvin::from_celsius(30.0)), Seconds::new(2.0));
        assert_eq!(r.battery_temps().len(), 3);
    }

    #[test]
    fn empty_result_is_well_defined() {
        let r = SimulationResult {
            methodology: "empty",
            dt: Seconds::new(1.0),
            records: vec![],
            capacity_loss: 0.0,
        };
        assert_eq!(r.average_power(), Watts::ZERO);
        assert_eq!(r.energy(), Joules::ZERO);
    }
}
