//! Baseline 1: the hard-wired parallel architecture (Shin et al.
//! DATE'11 \[15\]) — "no thermal or energy management implemented".

use crate::config::SystemConfig;
use crate::controller::{Controller, StepRecord, SystemState};
use crate::error::OtemError;
use otem_battery::BatteryPack;
use otem_hees::{pack_domain_bank, ParallelHees};
use otem_telemetry::{span, Sink};
use otem_thermal::{ThermalModel, ThermalState};
use otem_units::{Seconds, Watts};

/// Battery ∥ ultracapacitor, no cooling, no control: the circuit decides
/// the split and the pack convects passively to ambient.
#[derive(Debug, Clone)]
pub struct Parallel {
    hees: ParallelHees,
    thermal: ThermalModel,
    state: ThermalState,
}

impl Parallel {
    /// Builds the baseline from the shared system configuration.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn new(config: &SystemConfig) -> Result<Self, OtemError> {
        config.validate()?;
        let battery = BatteryPack::new(config.cell.clone(), config.pack)?;
        let rated = battery.open_circuit_voltage();
        let mut hees = ParallelHees::new(battery, pack_domain_bank(config.capacitance, rated))?;
        hees.set_state(config.initial_soc, config.initial_soe);
        Ok(Self {
            hees,
            thermal: ThermalModel::new(config.thermal_passive)?,
            state: ThermalState::uniform(config.ambient),
        })
    }
}

impl Controller for Parallel {
    fn name(&self) -> &'static str {
        "Parallel"
    }

    fn step_with(
        &mut self,
        load: Watts,
        _forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let _step_span = span(sink, "parallel_step");
        let hees_step = self.hees.step(load, self.state.battery, dt);
        // Passive pack: no inlet flow; the coolant node just tracks the
        // battery through the (zero-flow) exchange.
        self.state = self.thermal.step_crank_nicolson(
            self.state,
            hees_step.battery_heat,
            self.state.coolant,
            dt,
        );
        StepRecord {
            load,
            hees: hees_step,
            cooling_power: Watts::ZERO,
            state: self.state_snapshot(),
        }
    }

    fn state(&self) -> SystemState {
        self.state_snapshot()
    }
}

impl Parallel {
    fn state_snapshot(&self) -> SystemState {
        SystemState {
            battery_temp: self.state.battery,
            coolant_temp: self.state.coolant,
            soe: self.hees.soe(),
            soc: self.hees.soc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem_units::Kelvin;

    #[test]
    fn sustained_load_heats_the_pack() {
        let config = SystemConfig::default();
        let mut p = Parallel::new(&config).expect("valid");
        for _ in 0..600 {
            let _ = p.step(Watts::new(40_000.0), &[], Seconds::new(1.0));
        }
        assert!(p.state().battery_temp > Kelvin::from_celsius(25.5));
        assert!(p.state().soc.value() < 1.0);
    }

    #[test]
    fn no_cooling_power_is_ever_drawn() {
        let config = SystemConfig::default();
        let mut p = Parallel::new(&config).expect("valid");
        let rec = p.step(Watts::new(30_000.0), &[], Seconds::new(1.0));
        assert_eq!(rec.cooling_power, Watts::ZERO);
    }
}
