//! The controller abstraction every methodology implements, and the
//! per-step record the simulator collects.

use otem_hees::HeesStep;
use otem_telemetry::{NullSink, Sink};
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Snapshot of the paper's state vector `x = [T_b, T_c, SoE, SoC]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// Battery temperature `T_b`.
    pub battery_temp: Kelvin,
    /// Coolant temperature `T_c` (equals `T_b`'s environment for
    /// passive architectures).
    pub coolant_temp: Kelvin,
    /// Ultracapacitor state of energy.
    pub soe: Ratio,
    /// Battery state of charge.
    pub soc: Ratio,
}

/// Everything that happened during one control period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// The EV power request this period served.
    pub load: Watts,
    /// HEES bookkeeping (delivered, internal powers, heat, stress).
    pub hees: HeesStep,
    /// Electric power drawn by the cooling system (cooler + pump).
    pub cooling_power: Watts,
    /// State after the step.
    pub state: SystemState,
}

impl StepRecord {
    /// Total power consumed this period: HEES internal consumption
    /// (which already includes serving the cooling load via the bus).
    pub fn total_power(&self) -> Watts {
        self.hees.hees_power()
    }
}

/// The plant-level degradations a fault harness asks a controller to
/// emulate, as one value: what the plant and its optimiser currently
/// suffer. Faults that only corrupt the controller's *load and
/// forecast* are applied by the harness itself; these live *inside*
/// the plant, the optimiser or the sensors and so need the
/// controller's cooperation. [`PlantFaults::default`] is the healthy
/// plant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlantFaults {
    /// The cooling pump is stuck *off*: the active thermal loop loses
    /// actuation whatever duty the controller commands.
    pub pump_stuck: bool,
    /// Caps the optimiser's per-solve wall-clock deadline in
    /// nanoseconds; `Some(0)` starves every solve, which returns its
    /// warm start unimproved. Models a compute platform losing headroom
    /// (thermal throttling of the control ECU, a co-scheduled task
    /// stealing the core). `None` keeps the configured deadline.
    pub solver_deadline_ns: Option<u64>,
    /// Additive bias (K) on the battery temperature the controller
    /// *reads* — a drifted or noisy thermistor. The plant itself
    /// evolves unbiased.
    pub sensor_bias_k: f64,
}

/// A thermal/energy management methodology driving one HEES
/// architecture.
///
/// Implementations own their architecture and thermal plant; the
/// [`crate::Simulator`] feeds them the load and the forecast window and
/// collects the records.
pub trait Controller {
    /// Human-readable methodology name (used by the experiment tables).
    fn name(&self) -> &'static str;

    /// Executes one control period: serve `load`, given the forecast of
    /// upcoming requests (`forecast[0]` is the *next* period's load),
    /// recording what the period did on `sink` (cooling toggles,
    /// ultracapacitor saturation, solver traces). A controller that
    /// wraps another passes the sink on.
    ///
    /// The sink is strictly observational — for any sink this must
    /// return exactly what [`Controller::step`] returns.
    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord;

    /// [`Controller::step_with`] without telemetry (a [`NullSink`]).
    fn step(&mut self, load: Watts, forecast: &[Watts], dt: Seconds) -> StepRecord {
        self.step_with(load, forecast, dt, &NullSink)
    }

    /// Current state vector.
    fn state(&self) -> SystemState;

    /// Sets the plant-level faults the controller emulates from now on,
    /// replacing whatever was injected before
    /// ([`PlantFaults::default`] heals the plant). A controller without
    /// the corresponding hardware or sensor ignores the fault; the
    /// default ignores every one.
    fn inject(&mut self, faults: PlantFaults) {
        let _ = faults;
    }
}

/// Boxed trait objects are controllers too, delegating every method —
/// this is what lets decorators generic over `C: Controller` (the fault
/// harness, the fleet's poison hook) wrap an already-erased
/// `Box<dyn Controller>` without knowing the concrete methodology.
impl Controller for Box<dyn Controller> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        (**self).step_with(load, forecast, dt, sink)
    }

    fn state(&self) -> SystemState {
        (**self).state()
    }

    fn inject(&mut self, faults: PlantFaults) {
        (**self).inject(faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_power_reads_hees_internal() {
        let rec = StepRecord {
            load: Watts::new(1_000.0),
            hees: HeesStep {
                battery_internal: Watts::new(900.0),
                cap_internal: Watts::new(300.0),
                ..HeesStep::default()
            },
            cooling_power: Watts::new(100.0),
            state: SystemState {
                battery_temp: Kelvin::from_celsius(25.0),
                coolant_temp: Kelvin::from_celsius(25.0),
                soe: Ratio::ONE,
                soc: Ratio::ONE,
            },
        };
        assert_eq!(rec.total_power(), Watts::new(1_200.0));
    }
}
