//! The paper's contribution: OTEM — MPC-based joint thermal and energy
//! management of the hybrid architecture plus active cooling
//! (Section III, Algorithm 1).

use crate::config::SystemConfig;
use crate::controller::{Controller, PlantFaults, StepRecord, SystemState};
use crate::error::OtemError;
use crate::mpc::{Mpc, MpcConfig, MpcDecision, MpcPlant};
use otem_telemetry::{span, Event, Sink};
use otem_units::{Kelvin, Seconds, Watts};

/// The OTEM controller: hybrid (DC-bus) HEES + active cooling, jointly
/// optimised each period by a receding-horizon MPC that maintains the
/// Thermal and Energy Budget — pre-charging the ultracapacitor and
/// pre-cooling the battery ahead of predicted demand.
#[derive(Debug, Clone)]
pub struct Otem {
    /// The plant the MPC predicts and each period's move is applied to.
    plant: MpcPlant,
    mpc: Mpc,
    /// Whether the cooling loop ran last period — tracked solely so the
    /// telemetry path can report [`Event::CoolingToggle`] on the
    /// idle↔active transitions.
    cooling_on: bool,
    /// The injected plant faults: a stuck pump (the MPC keeps
    /// commanding it, the plant ignores the command) and a sensor bias
    /// on the battery temperature the controller reads (the true plant
    /// state evolves unbiased). The solve deadline is forwarded to the
    /// MPC on injection.
    faults: PlantFaults,
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
    /// rows of `plan_gap`'s closed-loop frontier).
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
            plant: MpcPlant::new(config)?,
            mpc: Mpc::new(mpc_config),
            cooling_on: false,
            faults: PlantFaults::default(),
            loads: Vec::with_capacity(mpc_config.horizon),
        })
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

    /// The plant as the MPC sees it: a copy carrying the battery
    /// temperature the controller's sensors report — the true one unless
    /// a [`PlantFaults::sensor_bias_k`] is injected.
    pub(crate) fn plant_snapshot(&self) -> MpcPlant {
        let mut plant = self.plant.clone();
        let bias = self.faults.sensor_bias_k;
        if bias != 0.0 {
            let battery = &mut plant.state.battery;
            *battery = Kelvin::new(battery.value() + bias);
        }
        plant
    }
}

impl Controller for Otem {
    fn name(&self) -> &'static str {
        "OTEM"
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
        self.plant.system_state()
    }

    fn inject(&mut self, faults: PlantFaults) {
        self.mpc.set_deadline_ns(faults.solver_deadline_ns);
        self.faults = faults;
    }
}

impl Otem {
    /// Algorithm 1 lines 11–14: build the control window and run the
    /// receding-horizon optimisation, returning the planned first move
    /// *without* actuating the plant. [`Otem::step_with`] is exactly
    /// [`Otem::plan_with`] followed by [`Otem::apply_with`]; the split
    /// exists so the route planner ([`crate::planner`]) can record the
    /// closed loop's moves and replay a plan's own moves on the same
    /// plant.
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

        let limit_w = self.plant.cap_power_max.value();
        if decision.cap_bus.value().abs() >= 0.995 * limit_w {
            sink.record(Event::UcapSaturated {
                commanded_w: decision.cap_bus.value(),
                limit_w,
            });
        }
        decision
    }

    /// Algorithm 1 lines 15–16: apply one period's command (`cap_bus`,
    /// `cool_duty`) to the real plant ([`MpcPlant::apply`]) and record
    /// what happened. The command need not come from the MPC — the
    /// route planner replays a whole-route plan through the same path,
    /// so replayed steps are physically identical to MPC steps in every
    /// respect but the source of the numbers. A stuck pump is a loop
    /// commanded idle: the plant steps at duty 0.
    pub fn apply_with(
        &mut self,
        load: Watts,
        cap_bus: Watts,
        cool_duty: f64,
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let cool_duty = if self.faults.pump_stuck {
            0.0
        } else {
            cool_duty
        };
        let cooling_active = MpcPlant::cooling_runs(cool_duty);
        if cooling_active != self.cooling_on {
            self.cooling_on = cooling_active;
            sink.record(Event::CoolingToggle {
                on: cooling_active,
                battery_temp_k: self.plant.state.battery.value(),
            });
        }
        self.plant.apply(load, cap_bus, cool_duty, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem_telemetry::NullSink;
    use otem_thermal::ThermalState;

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
        otem.plant.state = ThermalState::uniform(Kelvin::from_celsius(39.0));
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
    fn a_stuck_pump_steps_as_duty_zero() {
        // A stuck pump ignores the commanded duty: duty 0.8 on it must
        // step bit for bit as duty 0 on a healthy clone.
        let config = SystemConfig::stress_rig();
        let mut stuck = Otem::with_mpc(&config, short_mpc()).expect("valid");
        stuck.plant.state = ThermalState::uniform(Kelvin::from_celsius(38.0));
        let mut healthy = stuck.clone();
        let mut cooled = stuck.clone();
        stuck.inject(PlantFaults {
            pump_stuck: true,
            ..PlantFaults::default()
        });
        let dt = Seconds::new(1.0);
        for k in 0..30 {
            let load = Watts::new(if k % 3 == 0 { 60_000.0 } else { 8_000.0 });
            let cap_bus = Watts::new(2_000.0);
            let a = stuck.apply_with(load, cap_bus, 0.8, dt, &NullSink);
            let b = healthy.apply_with(load, cap_bus, 0.0, dt, &NullSink);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "step {k}");
            let c = cooled.apply_with(load, cap_bus, 0.8, dt, &NullSink);
            assert!(c.cooling_power > Watts::ZERO, "a healthy pump ran no loop");
        }
    }

    #[test]
    fn regen_is_absorbed() {
        let config = SystemConfig::default();
        let mut otem = Otem::with_mpc(&config, short_mpc()).expect("valid");
        otem.plant
            .hees
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
