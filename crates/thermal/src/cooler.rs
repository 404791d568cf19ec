//! The cooler + pump: electric power needed to chill the returned coolant
//! (paper Eq. 16) with actuator limits.

use crate::error::ThermalError;
use otem_units::{Kelvin, Ratio, ThermalConductance, Watts};
use serde::{Deserialize, Serialize};

/// Cooler/pump parameters (paper Section II-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlantParams {
    /// Coolant flow heat-capacity rate `Ċ_c` (W/K) — must match the
    /// thermal model's flow capacity.
    pub flow_capacity: ThermalConductance,
    /// Cooler efficiency `η_c` folding in the refrigeration cycle and the
    /// air-side exchange (an effective coefficient of performance).
    pub efficiency: Ratio,
    /// Maximum cooler electric power `P̄_c` (constraint C3).
    pub max_cooler_power: Watts,
    /// Coldest inlet temperature the plant can produce.
    pub min_inlet: Kelvin,
    /// Constant pump electric power while the loop runs (`P_m`; the paper
    /// fixes the flow rate, making this a constant).
    pub pump_power: Watts,
}

impl PlantParams {
    /// Plant matched to [`crate::ThermalParams::ev_pack`]: 1,050 W/K
    /// flow, 4 kW cooler, 250 W pump, and an 18 °C inlet floor (EV
    /// thermal systems do not chill the pack far below its optimal
    /// operating band).
    pub fn ev_plant() -> Self {
        Self {
            flow_capacity: ThermalConductance::new(1_050.0),
            efficiency: Ratio::new(1.0), // interpreted below; see note
            max_cooler_power: Watts::new(4_000.0),
            min_inlet: Kelvin::from_celsius(18.0),
            pump_power: Watts::new(250.0),
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive flow,
    /// efficiency, cooler limit or inlet floor, or negative pump power.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if self.flow_capacity.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "flow_capacity",
                value: self.flow_capacity.value(),
                constraint: "> 0 W/K",
            });
        }
        if self.efficiency.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "efficiency",
                value: self.efficiency.value(),
                constraint: "> 0",
            });
        }
        if self.max_cooler_power.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "max_cooler_power",
                value: self.max_cooler_power.value(),
                constraint: "> 0 W",
            });
        }
        if self.min_inlet.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "min_inlet",
                value: self.min_inlet.value(),
                constraint: "> 0 K",
            });
        }
        if self.pump_power.value() < 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "pump_power",
                value: self.pump_power.value(),
                constraint: ">= 0 W",
            });
        }
        Ok(())
    }
}

impl Default for PlantParams {
    fn default() -> Self {
        Self::ev_plant()
    }
}

/// The realised cooling action for one control period: what inlet
/// temperature was actually achieved and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolerAction {
    /// Achieved inlet temperature `T_i` after clamping to actuator
    /// limits.
    pub inlet: Kelvin,
    /// Cooler electric power `P_c` (Eq. 16).
    pub cooler_power: Watts,
    /// Pump electric power `P_m` (zero when the loop idles).
    pub pump_power: Watts,
}

impl CoolerAction {
    /// The plant doing nothing (loop off): inlet equals outlet, no power.
    pub fn idle(outlet: Kelvin) -> Self {
        Self {
            inlet: outlet,
            cooler_power: Watts::ZERO,
            pump_power: Watts::ZERO,
        }
    }

    /// Total electric power drawn from the bus.
    pub fn total_power(&self) -> Watts {
        self.cooler_power + self.pump_power
    }
}

/// The active cooling plant: maps a requested inlet temperature to a
/// feasible one and prices it (Eq. 16 with constraints C2–C3).
///
/// The two parameter ratios every actuation needs are evaluated once at
/// construction (the parameters are immutable afterwards), so pricing a
/// move costs no division.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingPlant {
    params: PlantParams,
    /// `P̄_c·η_c/Ċ_c` — the largest inlet drop the power limit allows (K).
    max_drop: f64,
    /// `Ċ_c/η_c` — cooler electric power per kelvin of drop (W/K).
    flow_over_efficiency: f64,
}

impl CoolingPlant {
    /// Builds a plant after validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when validation fails.
    pub fn new(params: PlantParams) -> Result<Self, ThermalError> {
        params.validate()?;
        Ok(Self {
            params,
            max_drop: params.max_cooler_power.value() * params.efficiency.value()
                / params.flow_capacity.value(),
            flow_over_efficiency: params.flow_capacity.value() / params.efficiency.value(),
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &PlantParams {
        &self.params
    }

    /// Electric power needed to supply coolant at `inlet` given the loop
    /// returns it at `outlet` (Eq. 16): `P_c = Ċ_c/η_c · (T_o − T_i)`.
    /// Zero when `inlet ≥ outlet` (constraint C2: the cooler only cools).
    pub fn power_for_inlet(&self, outlet: Kelvin, inlet: Kelvin) -> Watts {
        let dt = outlet.value() - inlet.value();
        if dt <= 0.0 {
            return Watts::ZERO;
        }
        Watts::new(self.flow_over_efficiency * dt)
    }

    /// `Ċ_c/η_c`: the slope of [`CoolingPlant::power_for_inlet`] in the
    /// inlet drop, wherever the cooler runs.
    pub fn flow_over_efficiency(&self) -> f64 {
        self.flow_over_efficiency
    }

    /// Coldest inlet achievable right now given the outlet temperature
    /// and the cooler power limit.
    pub fn coldest_inlet(&self, outlet: Kelvin) -> Kelvin {
        // The floor cannot exceed the outlet itself: if the loop already
        // runs colder than `min_inlet`, the best the plant can do is pass
        // the coolant through unchanged.
        let floor = self.params.min_inlet.value().min(outlet.value());
        Kelvin::new((outlet.value() - self.max_drop).max(floor))
    }

    /// Slope of [`CoolingPlant::coldest_inlet`] in the outlet
    /// temperature — a branch indicator for the adjoint backward sweep:
    ///
    /// * `1.0` when the cooler is power-limited (`outlet − max_drop`
    ///   wins) or when the pass-through floor binds (`floor = outlet`),
    /// * `0.0` when the fixed `min_inlet` floor binds.
    pub fn coldest_inlet_slope(&self, outlet: Kelvin) -> f64 {
        let floor = self.params.min_inlet.value().min(outlet.value());
        if outlet.value() - self.max_drop >= floor {
            1.0
        } else if self.params.min_inlet.value() < outlet.value() {
            0.0
        } else {
            1.0
        }
    }

    /// Realises a requested inlet temperature: clamps it into
    /// `[coldest_inlet, outlet]` and prices the result. The pump runs
    /// whenever the loop is active.
    pub fn actuate(&self, outlet: Kelvin, requested_inlet: Kelvin) -> CoolerAction {
        let inlet = Kelvin::new(
            requested_inlet
                .value()
                .max(self.coldest_inlet(outlet).value())
                .min(outlet.value()),
        );
        CoolerAction {
            inlet,
            cooler_power: self.power_for_inlet(outlet, inlet),
            pump_power: self.params.pump_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant() -> CoolingPlant {
        CoolingPlant::new(PlantParams::ev_plant()).expect("valid preset")
    }

    fn c(celsius: f64) -> Kelvin {
        Kelvin::from_celsius(celsius)
    }

    #[test]
    fn cooling_power_proportional_to_drop() {
        let p = plant();
        let p1 = p.power_for_inlet(c(30.0), c(28.0));
        let p2 = p.power_for_inlet(c(30.0), c(26.0));
        assert!((p2.value() - 2.0 * p1.value()).abs() < 1e-9);
    }

    #[test]
    fn heating_request_costs_nothing() {
        let p = plant();
        assert_eq!(p.power_for_inlet(c(20.0), c(25.0)), Watts::ZERO);
    }

    #[test]
    fn actuate_clamps_to_power_limit() {
        let p = plant();
        // Ask for an absurdly cold inlet; the achieved one must respect
        // the 4 kW cooler limit and the 10 °C floor.
        let action = p.actuate(c(35.0), c(-40.0));
        assert!(action.cooler_power <= p.params().max_cooler_power + Watts::new(1e-9));
        assert!(action.inlet >= p.params().min_inlet);
        assert!(action.inlet < c(35.0));
    }

    #[test]
    fn actuate_never_heats() {
        let p = plant();
        let action = p.actuate(c(22.0), c(30.0));
        assert_eq!(action.inlet, c(22.0)); // clamped down to the outlet
        assert_eq!(action.cooler_power, Watts::ZERO);
        // Pump still runs while the loop is active.
        assert_eq!(action.pump_power, p.params().pump_power);
    }

    #[test]
    fn idle_action_is_free() {
        let a = CoolerAction::idle(c(28.0));
        assert_eq!(a.total_power(), Watts::ZERO);
        assert_eq!(a.inlet, c(28.0));
    }

    #[test]
    fn coldest_inlet_respects_floor() {
        let p = plant();
        // From a barely-warm outlet the floor binds, not the power limit.
        assert_eq!(p.coldest_inlet(c(19.0)), p.params().min_inlet);
        // If the loop already runs below the floor, pass-through is the
        // best the plant can do.
        assert_eq!(p.coldest_inlet(c(11.0)), c(11.0));
    }

    #[test]
    fn achieved_power_matches_formula() {
        let p = plant();
        let action = p.actuate(c(32.0), c(29.0));
        let expected = 1_050.0 / 1.0 * 3.0;
        assert!((action.cooler_power.value() - expected).abs() < 1e-9);
        assert!((action.total_power().value() - expected - 250.0).abs() < 1e-9);
    }

    #[test]
    fn coldest_inlet_slope_matches_finite_differences_per_branch() {
        let p = plant();
        // Hot outlet: power-limited branch, slope 1. Warm outlet: the
        // 18 °C floor binds, slope 0. Cold outlet: pass-through, slope 1.
        for (celsius, expected) in [(35.0, 1.0), (19.0, 0.0), (11.0, 1.0)] {
            let slope = p.coldest_inlet_slope(c(celsius));
            assert_eq!(slope, expected, "branch at {celsius} °C");
            let h = 1e-5;
            let fd = (p.coldest_inlet(c(celsius + h)).value()
                - p.coldest_inlet(c(celsius - h)).value())
                / (2.0 * h);
            assert!((slope - fd).abs() < 1e-6, "slope {slope} vs FD {fd}");
        }
    }

    #[test]
    fn invalid_plant_rejected() {
        let mut p = PlantParams::ev_plant();
        p.efficiency = Ratio::ZERO;
        assert!(CoolingPlant::new(p).is_err());

        let mut p = PlantParams::ev_plant();
        p.max_cooler_power = Watts::ZERO;
        assert!(CoolingPlant::new(p).is_err());
    }

    #[test]
    fn cached_ratios_price_bit_identically_to_the_per_call_formulas() {
        // Non-unit efficiencies and odd flows, so a reassociated ratio
        // shows in the bits.
        for (efficiency, flow) in [(1.0, 1_050.0), (2.7, 1_050.0), (0.37, 733.3), (3.1, 911.0)] {
            cached_ratios_at(efficiency, flow);
        }
    }

    fn cached_ratios_at(efficiency: f64, flow: f64) {
        let p = CoolingPlant::new(PlantParams {
            efficiency: Ratio::new(efficiency),
            flow_capacity: ThermalConductance::new(flow),
            ..PlantParams::ev_plant()
        })
        .expect("valid");
        let pp = *p.params();
        for (outlet, inlet) in [
            (35.0, 20.0),
            (30.0, 29.5),
            (19.0, 18.0),
            (25.0, 26.0),
            (41.3, 33.7),
            (28.9, 21.1),
        ] {
            let (outlet, inlet) = (c(outlet), c(inlet));
            let max_drop =
                pp.max_cooler_power.value() * pp.efficiency.value() / pp.flow_capacity.value();
            let floor = pp.min_inlet.value().min(outlet.value());
            let coldest = (outlet.value() - max_drop).max(floor);
            assert_eq!(p.coldest_inlet(outlet).value().to_bits(), coldest.to_bits());
            let drop = outlet.value() - inlet.value();
            let power = if drop <= 0.0 {
                0.0
            } else {
                pp.flow_capacity.value() / pp.efficiency.value() * drop
            };
            assert_eq!(
                p.power_for_inlet(outlet, inlet).value().to_bits(),
                power.to_bits()
            );
        }
    }
}
