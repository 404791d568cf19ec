//! Baseline 3: the dual (switched) architecture with temperature-
//! threshold switching (Shin et al. DATE'14 \[16\]).

use crate::config::SystemConfig;
use crate::controller::{Controller, StepRecord, SystemState};
use crate::error::OtemError;
use otem_battery::BatteryPack;
use otem_hees::{pack_domain_bank, DualHees, DualMode};
use otem_telemetry::{span, Event, Sink};
use otem_thermal::{ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};

// The [16] switching band.

/// Battery temperature at which the load is redirected to the
/// ultracapacitor.
const HOT_THRESHOLD: Kelvin = Kelvin::from_celsius(33.0);
/// Battery temperature below which the battery takes the load back.
const COOL_THRESHOLD: Kelvin = Kelvin::from_celsius(31.0);
/// Power used to recharge the bank from the battery while cool.
const RECHARGE_POWER: Watts = Watts::new(6_000.0);
/// Bank level above which recharging stops.
const RECHARGE_TARGET: Ratio = Ratio::from_percent(95.0);

/// Switch to the ultracapacitor when the battery crosses a temperature
/// threshold; switch back (and recharge the bank from the battery) once
/// it has cooled. No active cooling system exists in this baseline.
#[derive(Debug, Clone)]
pub struct Dual {
    hees: DualHees,
    thermal: ThermalModel,
    state: ThermalState,
    using_cap: bool,
}

impl Dual {
    /// Builds the baseline with the paper-like 33 °C / 31 °C switching
    /// band.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn new(config: &SystemConfig) -> Result<Self, OtemError> {
        config.validate()?;
        let battery = BatteryPack::new(config.cell.clone(), config.pack)?;
        let rated = battery.open_circuit_voltage();
        let mut hees = DualHees::new(battery, pack_domain_bank(config.capacitance, rated))?;
        hees.set_state(config.initial_soc, config.initial_soe);
        Ok(Self {
            hees,
            thermal: ThermalModel::new(config.thermal_passive)?,
            state: ThermalState::uniform(config.ambient),
            using_cap: false,
        })
    }
}

impl Controller for Dual {
    fn name(&self) -> &'static str {
        "Dual"
    }

    fn step_with(
        &mut self,
        load: Watts,
        _forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let _step_span = span(sink, "dual_step");
        // Threshold rule with hysteresis (the [16] policy).
        if self.state.battery >= HOT_THRESHOLD {
            self.using_cap = true;
        } else if self.state.battery <= COOL_THRESHOLD {
            self.using_cap = false;
        }

        // The Fig. 1 failure mode, as an event: the policy wants the
        // bank but the bank cannot carry the load, so the hot battery
        // takes it back.
        if self.using_cap && !self.hees.cap_can_serve(load) {
            let limit = if load.value() >= 0.0 {
                self.hees.cap().max_discharge_power()
            } else {
                self.hees.cap().max_charge_power()
            };
            sink.record(Event::UcapSaturated {
                commanded_w: load.value(),
                limit_w: limit.value(),
            });
        }

        let mode = if self.using_cap && self.hees.cap_can_serve(load) {
            DualMode::Ultracap
        } else if !self.using_cap && self.hees.soe() < RECHARGE_TARGET && load.value() >= 0.0 {
            DualMode::BatteryRecharging(RECHARGE_POWER.value())
        } else {
            DualMode::Battery
        };

        let hees_step = self.hees.step(mode, load, self.state.battery, dt);
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
            state: self.snapshot(),
        }
    }

    fn state(&self) -> SystemState {
        self.snapshot()
    }
}

impl Dual {
    fn snapshot(&self) -> SystemState {
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

    #[test]
    fn cool_battery_carries_the_load() {
        let config = SystemConfig::default();
        let mut d = Dual::new(&config).expect("valid");
        let rec = d.step(Watts::new(30_000.0), &[], Seconds::new(1.0));
        assert!(rec.hees.battery_internal.value() > 0.0);
    }

    #[test]
    fn hot_battery_hands_off_to_the_cap() {
        let config = SystemConfig::default();
        let mut d = Dual::new(&config).expect("valid");
        // Pre-heat the pack past the threshold.
        d.state = ThermalState::uniform(Kelvin::from_celsius(39.0));
        let rec = d.step(Watts::new(25_000.0), &[], Seconds::new(1.0));
        assert_eq!(rec.hees.battery_internal, Watts::ZERO);
        assert!(rec.hees.cap_internal.value() > 0.0);
    }

    #[test]
    fn recharges_the_bank_when_cool_and_low() {
        let config = SystemConfig::default();
        let mut d = Dual::new(&config).expect("valid");
        d.hees.set_state(Ratio::ONE, Ratio::HALF);
        let rec = d.step(Watts::new(10_000.0), &[], Seconds::new(1.0));
        assert!(rec.hees.cap_internal.value() < 0.0, "bank charging");
        assert!(
            rec.hees.battery_internal.value() > 10_000.0,
            "battery carries load + recharge"
        );
    }

    #[test]
    fn bank_runs_dry_under_sustained_heat() {
        // The Fig. 1 motivation: with a small bank and a hot battery,
        // the cap depletes and the battery must take back the load while
        // still hot.
        let config = SystemConfig {
            capacitance: otem_units::Farads::new(5_000.0),
            ..SystemConfig::default()
        };
        let mut d = Dual::new(&config).expect("valid");
        d.state = ThermalState::uniform(Kelvin::from_celsius(39.0));
        let mut battery_resumed_hot = false;
        for _ in 0..300 {
            let rec = d.step(Watts::new(30_000.0), &[], Seconds::new(1.0));
            if rec.hees.battery_internal.value() > 0.0
                && rec.state.battery_temp > Kelvin::from_celsius(37.0)
            {
                battery_resumed_hot = true;
                break;
            }
        }
        assert!(battery_resumed_hot, "5 kF bank should deplete while hot");
    }
}
