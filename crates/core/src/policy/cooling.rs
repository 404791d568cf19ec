//! Baseline 2: battery-only storage with a thermostatic active cooling
//! system (after Karimi & Li \[25\]).

use crate::config::SystemConfig;
use crate::controller::{Controller, StepRecord, SystemState};
use crate::error::OtemError;
use otem_battery::BatteryPack;
use otem_hees::HeesStep;
use otem_telemetry::{span, Event, Sink};
use otem_thermal::{CoolerAction, CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};

/// Thermostat switch-on battery temperature.
const ON_THRESHOLD: Kelvin = Kelvin::from_celsius(30.0);
/// Thermostat switch-off battery temperature.
const OFF_THRESHOLD: Kelvin = Kelvin::from_celsius(28.0);

/// Battery as the sole storage; a bang-bang thermostat drives the
/// cooling loop at full authority above `ON_THRESHOLD` (30 °C) and shuts
/// it off below `OFF_THRESHOLD` (28 °C). The cooling load is served from
/// the bus (i.e. by the battery itself).
#[derive(Debug, Clone)]
pub struct ActiveCooling {
    battery: BatteryPack,
    thermal: ThermalModel,
    plant: CoolingPlant,
    state: ThermalState,
    cooling_on: bool,
}

impl ActiveCooling {
    /// Builds the baseline from the shared system configuration.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn new(config: &SystemConfig) -> Result<Self, OtemError> {
        config.validate()?;
        let mut battery = BatteryPack::new(config.cell.clone(), config.pack)?;
        battery.set_soc(config.initial_soc);
        Ok(Self {
            battery,
            thermal: ThermalModel::new(config.thermal_active)?,
            plant: CoolingPlant::new(config.plant)?,
            state: ThermalState::uniform(config.ambient),
            cooling_on: false,
        })
    }
}

impl Controller for ActiveCooling {
    fn name(&self) -> &'static str {
        "ActiveCooling"
    }

    fn step_with(
        &mut self,
        load: Watts,
        _forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let _step_span = span(sink, "cooling_step");
        // Thermostat with hysteresis.
        let was_on = self.cooling_on;
        if self.state.battery >= ON_THRESHOLD {
            self.cooling_on = true;
        } else if self.state.battery <= OFF_THRESHOLD {
            self.cooling_on = false;
        }
        if self.cooling_on != was_on {
            sink.record(Event::CoolingToggle {
                on: self.cooling_on,
                battery_temp_k: self.state.battery.value(),
            });
        }

        let action = if self.cooling_on {
            // Full authority: chill to the coldest feasible inlet.
            let coldest = self.plant.coldest_inlet(self.state.coolant);
            self.plant.actuate(self.state.coolant, coldest)
        } else {
            CoolerAction::idle(self.state.coolant)
        };

        // Cooling electricity rides on the bus: the battery serves both.
        let total = load + action.total_power();
        let draw = self
            .battery
            .draw_clamped_at(total, &self.battery.curves(self.state.battery))
            .unwrap_or(otem_battery::PowerDraw::IDLE);
        self.battery.integrate(draw, dt);

        self.state = self
            .thermal
            .step_crank_nicolson(self.state, draw.heat, action.inlet, dt);

        StepRecord {
            load,
            hees: HeesStep {
                delivered: draw.terminal_power - action.total_power(),
                shortfall: Watts::new((total.value() - draw.terminal_power.value()).max(0.0)),
                battery_internal: draw.internal_power,
                cap_internal: Watts::ZERO,
                battery_heat: draw.heat,
                battery_c_rate: draw.c_rate,
                converter_loss: Watts::ZERO,
            },
            cooling_power: action.total_power(),
            state: self.snapshot(),
        }
    }

    fn state(&self) -> SystemState {
        self.snapshot()
    }
}

impl ActiveCooling {
    fn snapshot(&self) -> SystemState {
        SystemState {
            battery_temp: self.state.battery,
            coolant_temp: self.state.coolant,
            soe: Ratio::ZERO, // no ultracapacitor in this baseline
            soc: self.battery.soc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermostat_kicks_in_under_sustained_load() {
        let config = SystemConfig::default();
        let mut c = ActiveCooling::new(&config).expect("valid");
        let mut saw_cooling = false;
        for _ in 0..1800 {
            let rec = c.step(Watts::new(60_000.0), &[], Seconds::new(1.0));
            if rec.cooling_power.value() > 0.0 {
                saw_cooling = true;
            }
        }
        assert!(saw_cooling, "cooling never engaged");
        // The loop must keep the pack well below the passive equilibrium.
        assert!(c.state().battery_temp < Kelvin::from_celsius(38.0));
    }

    #[test]
    fn idle_vehicle_never_cools() {
        let config = SystemConfig::default();
        let mut c = ActiveCooling::new(&config).expect("valid");
        for _ in 0..300 {
            let rec = c.step(Watts::new(500.0), &[], Seconds::new(1.0));
            assert_eq!(rec.cooling_power, Watts::ZERO);
        }
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let config = SystemConfig::default();
        let mut c = ActiveCooling::new(&config).expect("valid");
        // Force the pack hot, then watch the on/off transitions.
        let mut transitions = 0;
        let mut last_on = false;
        for t in 0..3600 {
            let load = if t % 2 == 0 { 80_000.0 } else { 10_000.0 };
            let rec = c.step(Watts::new(load), &[], Seconds::new(1.0));
            let on = rec.cooling_power.value() > 0.0;
            if on != last_on {
                transitions += 1;
                last_on = on;
            }
        }
        assert!(transitions < 40, "{transitions} thermostat transitions");
    }
}
