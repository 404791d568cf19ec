//! The paper's contribution: OTEM — MPC-based joint thermal and energy
//! management of the hybrid architecture plus active cooling
//! (Section III, Algorithm 1).

use crate::config::SystemConfig;
use crate::controller::{Controller, PlantFault, StepRecord, SystemState};
use crate::error::OtemError;
use crate::mpc::{Mpc, MpcConfig, MpcDecision, MpcPlant};
use otem_hees::{HybridCommand, HybridHees};
use otem_telemetry::{span, Event, NullSink, Sink};
use otem_thermal::{CoolerAction, CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Seconds, Watts};

/// The OTEM controller: hybrid (DC-bus) HEES + active cooling, jointly
/// optimised each period by a receding-horizon MPC that maintains the
/// Thermal and Energy Budget — pre-charging the ultracapacitor and
/// pre-cooling the battery ahead of predicted demand.
#[derive(Debug, Clone)]
pub struct Otem {
    hees: HybridHees,
    thermal: ThermalModel,
    plant: CoolingPlant,
    state: ThermalState,
    mpc: Mpc,
    config: SystemConfig,
    /// Whether the cooling loop ran last period — tracked solely so the
    /// telemetry path can report [`Event::CoolingToggle`] on the
    /// idle↔active transitions.
    cooling_on: bool,
    /// Injected fault: the cooling pump is stuck off (the MPC keeps
    /// commanding it, the plant ignores the command).
    pump_stuck: bool,
    /// Injected fault: additive bias (K) on the battery temperature the
    /// controller reads. The true plant state evolves unbiased.
    sensor_bias_k: f64,
    /// The control window handed to the MPC, refilled each decision so
    /// a decision allocates only what its solve does.
    loads: Vec<Watts>,
}

impl Otem {
    /// Builds the controller with default MPC tuning.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn new(config: &SystemConfig) -> Result<Self, OtemError> {
        Self::with_mpc(config, MpcConfig::default())
    }

    /// Builds the controller with explicit MPC tuning (used by the
    /// horizon/weight ablations).
    ///
    /// # Errors
    ///
    /// Returns [`OtemError::InvalidConfig`] for a zero MPC horizon and
    /// propagates component validation errors.
    pub fn with_mpc(config: &SystemConfig, mpc_config: MpcConfig) -> Result<Self, OtemError> {
        config.validate()?;
        if mpc_config.horizon == 0 {
            return Err(OtemError::InvalidConfig {
                field: "horizon",
                constraint: "≥ 1 step",
            });
        }
        Ok(Self {
            hees: config.hybrid_plant()?,
            thermal: ThermalModel::new(config.thermal_active)?,
            plant: CoolingPlant::new(config.plant)?,
            state: ThermalState::uniform(config.ambient),
            mpc: Mpc::new(mpc_config),
            config: config.clone(),
            cooling_on: false,
            pump_stuck: false,
            sensor_bias_k: 0.0,
            loads: Vec::with_capacity(mpc_config.horizon),
        })
    }

    /// The system configuration this controller was built from (the
    /// supervisor reads bounds and limits from here).
    pub fn system_config(&self) -> &SystemConfig {
        &self.config
    }

    /// Clears the MPC's warm-start memory. The supervisor calls this
    /// when re-arming after a fallback episode so the first re-armed
    /// solve does not extrapolate a plan computed under fault.
    pub fn reset_mpc(&mut self) {
        self.mpc.reset();
    }

    /// Plant rollouts the MPC has run so far ([`Mpc::rollouts`]).
    pub fn rollouts(&self) -> u64 {
        self.mpc.rollouts()
    }

    /// Replaces the MPC solver's deadline time source. Production keeps
    /// the default monotonic clock; test harnesses inject a
    /// [`crate::mpc::VirtualClock`] so deadline-triggered paths are
    /// deterministic and bit-reproducible.
    pub fn set_solver_clock(&mut self, clock: std::sync::Arc<dyn crate::mpc::Clock>) {
        self.mpc.set_clock(clock);
    }

    /// The thermal state as the controller's sensors report it —
    /// identical to the true state unless a [`PlantFault::SensorBias`]
    /// is active.
    fn measured_thermal(&self) -> ThermalState {
        let mut state = self.state;
        if self.sensor_bias_k != 0.0 {
            state.battery = Kelvin::new(state.battery.value() + self.sensor_bias_k);
        }
        state
    }

    fn plant_snapshot(&self) -> MpcPlant {
        MpcPlant {
            hees: self.hees.clone(),
            thermal: self.thermal,
            plant: self.plant,
            state: self.measured_thermal(),
            aging: self.config.aging,
            soc_min: self.config.soc_min,
            soe_min: self.config.soe_min,
            battery_power_max: self.config.battery_power_max,
            cap_power_max: self.config.cap_power_max,
        }
    }
}

impl Controller for Otem {
    fn name(&self) -> &'static str {
        "OTEM"
    }

    fn step(&mut self, load: Watts, forecast: &[Watts], dt: Seconds) -> StepRecord {
        self.step_with(load, forecast, dt, &NullSink)
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let _step_span = span(sink, "otem_step");
        let decision = self.plan_with(load, forecast, dt, sink);
        self.apply_with(load, decision.cap_bus, decision.cool_duty, dt, sink)
    }

    fn state(&self) -> SystemState {
        self.snapshot()
    }

    fn inject(&mut self, fault: PlantFault) -> bool {
        match fault {
            PlantFault::PumpStuck(stuck) => {
                self.pump_stuck = stuck;
                true
            }
            PlantFault::SolverIterationCap(cap) => {
                self.mpc.set_iteration_cap(cap);
                true
            }
            PlantFault::SolverDeadlineNs(deadline_ns) => {
                self.mpc.set_deadline_ns(deadline_ns);
                true
            }
            PlantFault::SensorBias { temp_k } => {
                self.sensor_bias_k = temp_k;
                true
            }
        }
    }
}

impl Otem {
    /// Algorithm 1 lines 11–14: build the control window and run the
    /// receding-horizon optimisation, returning the planned first move
    /// *without* actuating the plant. [`Otem::step_with`] is exactly
    /// [`Otem::plan_with`] followed by [`Otem::apply_with`]; the split
    /// exists so a supervisor can validate the decision in between and
    /// substitute a fallback command on the same plant.
    pub fn plan_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> MpcDecision {
        // Fill the control window with the current request followed by
        // the forecast, padded with zero load past its end.
        let n = self.mpc.config().horizon;
        self.loads.clear();
        self.loads.push(load);
        self.loads.extend(forecast.iter().take(n - 1).copied());
        self.loads.resize(n, Watts::ZERO);

        // Line 14: optimise.
        let decision = self
            .mpc
            .solve_with(&self.plant_snapshot(), &self.loads, dt, sink);

        if decision.cap_bus.value().abs() >= 0.995 * self.config.cap_power_max.value() {
            sink.record(Event::UcapSaturated {
                commanded_w: decision.cap_bus.value(),
                limit_w: self.config.cap_power_max.value(),
            });
        }
        decision
    }

    /// Algorithm 1 lines 15–16: apply one period's command (`cap_bus`,
    /// `cool_duty`) to the real plant and record what happened. The
    /// command need not come from the MPC — the supervisor routes its
    /// rule-based fallback through the same path, so fallback steps are
    /// physically identical to MPC steps in every respect but the source
    /// of the numbers.
    pub fn apply_with(
        &mut self,
        load: Watts,
        cap_bus: Watts,
        cool_duty: f64,
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let outlet = self.state.coolant;
        let coldest = self.plant.coldest_inlet(outlet);
        let inlet = Kelvin::new(
            outlet.value() - cool_duty.clamp(0.0, 1.0) * (outlet.value() - coldest.value()),
        );
        let cooling_active = cool_duty > 1e-3 && !self.pump_stuck;
        if cooling_active != self.cooling_on {
            self.cooling_on = cooling_active;
            sink.record(Event::CoolingToggle {
                on: cooling_active,
                battery_temp_k: self.state.battery.value(),
            });
        }
        let action = if cooling_active {
            self.plant.actuate(outlet, inlet)
        } else {
            CoolerAction::idle(outlet)
        };

        let battery_bus = load + action.total_power() - cap_bus;
        let hees_step = self.hees.step(
            HybridCommand {
                battery_bus,
                cap_bus,
            },
            self.state.battery,
            dt,
        );
        self.state =
            self.thermal
                .step_crank_nicolson(self.state, hees_step.battery_heat, action.inlet, dt);

        StepRecord {
            load,
            hees: hees_step,
            cooling_power: action.total_power(),
            state: self.snapshot(),
        }
    }

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

    fn short_mpc() -> MpcConfig {
        MpcConfig {
            horizon: 6,
            solver_iterations: 15,
            ..MpcConfig::default()
        }
    }

    #[test]
    fn zero_horizon_is_a_config_error() {
        let err = Otem::with_mpc(
            &SystemConfig::default(),
            MpcConfig {
                horizon: 0,
                ..MpcConfig::default()
            },
        )
        .expect_err("a zero horizon has no first move to apply");
        assert!(matches!(
            err,
            OtemError::InvalidConfig {
                field: "horizon",
                ..
            }
        ));
    }

    #[test]
    fn serves_the_load() {
        let config = SystemConfig::default();
        let mut otem = Otem::with_mpc(&config, short_mpc()).expect("valid");
        let forecast = vec![Watts::new(20_000.0); 6];
        let rec = otem.step(Watts::new(20_000.0), &forecast, Seconds::new(1.0));
        assert!(
            (rec.hees.delivered.value() - 20_000.0 - rec.cooling_power.value()).abs() < 2_000.0,
            "delivered {:?} for 20 kW + cooling {:?}",
            rec.hees.delivered,
            rec.cooling_power
        );
        assert!(rec.hees.shortfall.value() < 1_000.0);
    }

    #[test]
    fn hot_pack_gets_managed() {
        let config = SystemConfig::default();
        let mut otem = Otem::with_mpc(&config, short_mpc()).expect("valid");
        otem.state = ThermalState::uniform(Kelvin::from_celsius(39.0));
        let forecast = vec![Watts::new(50_000.0); 6];
        let mut cooled_or_offloaded = false;
        for _ in 0..30 {
            let rec = otem.step(Watts::new(50_000.0), &forecast, Seconds::new(1.0));
            if rec.cooling_power.value() > 0.0 || rec.hees.cap_internal.value() > 1_000.0 {
                cooled_or_offloaded = true;
                break;
            }
        }
        assert!(cooled_or_offloaded, "hot pack ignored by the MPC");
    }

    #[test]
    fn regen_is_absorbed() {
        let config = SystemConfig::default();
        let mut otem = Otem::with_mpc(&config, short_mpc()).expect("valid");
        otem.hees
            .set_state(otem_units::Ratio::new(0.8), otem_units::Ratio::new(0.5));
        let forecast = vec![Watts::new(-30_000.0); 6];
        let before_soc = otem.state().soc;
        let before_soe = otem.state().soe;
        for _ in 0..10 {
            let _ = otem.step(Watts::new(-30_000.0), &forecast, Seconds::new(1.0));
        }
        let after = otem.state();
        assert!(
            after.soc > before_soc || after.soe > before_soe,
            "regeneration vanished"
        );
    }
}
