//! Property tests: stability and physical sanity of the thermal
//! integrators across the whole operating envelope.

use otem_thermal::{CoolingPlant, PlantParams, ThermalModel, ThermalParams, ThermalState};
use otem_units::{Kelvin, Seconds, Watts};
use proptest::prelude::*;

fn model() -> ThermalModel {
    ThermalModel::new(ThermalParams::ev_pack()).unwrap()
}

proptest! {
    #[test]
    fn crank_nicolson_bounded_by_sources(
        t0 in 273.0..330.0f64,
        q in 0.0..8_000.0f64,
        inlet in 280.0..310.0f64,
        steps in 1..2_000usize,
    ) {
        // Temperatures can never leave the hull of (initial, ambient,
        // inlet, equilibrium) by more than a hair: the system is a stable
        // linear filter.
        let m = model();
        let eq = m.equilibrium(Watts::new(q), Kelvin::new(inlet));
        let lo = t0.min(inlet).min(298.15).min(eq.battery.value()) - 0.5;
        let hi = t0.max(inlet).max(298.15).max(eq.battery.value()) + 0.5;
        let mut s = ThermalState::uniform(Kelvin::new(t0));
        for _ in 0..steps {
            s = m.step_crank_nicolson(s, Watts::new(q), Kelvin::new(inlet), Seconds::new(1.0));
            prop_assert!(s.battery.value().is_finite());
            prop_assert!((lo..=hi).contains(&s.battery.value()),
                "battery {} left [{lo}, {hi}]", s.battery.value());
        }
    }

    #[test]
    fn hotter_heat_input_means_hotter_equilibrium(
        q in 0.0..6_000.0f64,
        dq in 100.0..2_000.0f64,
        inlet in 280.0..305.0f64,
    ) {
        let m = model();
        let base = m.equilibrium(Watts::new(q), Kelvin::new(inlet));
        let more = m.equilibrium(Watts::new(q + dq), Kelvin::new(inlet));
        prop_assert!(more.battery > base.battery);
    }

    #[test]
    fn colder_inlet_means_colder_equilibrium(
        q in 0.0..6_000.0f64,
        inlet in 285.0..305.0f64,
        drop in 1.0..10.0f64,
    ) {
        let m = model();
        let base = m.equilibrium(Watts::new(q), Kelvin::new(inlet));
        let cooled = m.equilibrium(Watts::new(q), Kelvin::new(inlet - drop));
        prop_assert!(cooled.battery < base.battery);
    }

    #[test]
    fn actuation_is_always_feasible_and_priced_consistently(
        outlet in 283.0..320.0f64,
        request in 260.0..330.0f64,
    ) {
        let plant = CoolingPlant::new(PlantParams::ev_plant()).unwrap();
        let outlet = Kelvin::new(outlet);
        let action = plant.actuate(outlet, Kelvin::new(request));
        // Achieved inlet within actuator envelope.
        prop_assert!(action.inlet <= outlet);
        prop_assert!(action.inlet >= plant.coldest_inlet(outlet) - Kelvin::new(1e-9));
        // Price agrees with the open formula.
        let repriced = plant.power_for_inlet(outlet, action.inlet);
        prop_assert!((repriced.value() - action.cooler_power.value()).abs() < 1e-9);
        // Never exceeds the cooler limit.
        prop_assert!(action.cooler_power.value() <= plant.params().max_cooler_power.value() + 1e-6);
    }

    #[test]
    fn crank_nicolson_is_the_trapezoidal_rule(
        t0 in 290.0..320.0f64,
        q in 0.0..4_000.0f64,
        inlet in 280.0..310.0f64,
        dt in 0.05..10.0f64,
    ) {
        // Every step solves Eq. 17: its increment is dt times the mean of
        // the ODE's right-hand side at the step's two ends.
        let m = model();
        let (q, inlet) = (Watts::new(q), Kelvin::new(inlet));
        let s0 = ThermalState::uniform(Kelvin::new(t0));
        let s1 = m.step_crank_nicolson(s0, q, inlet, Seconds::new(dt));
        let (db0, dc0) = m.derivatives(s0, q, inlet);
        let (db1, dc1) = m.derivatives(s1, q, inlet);
        let battery = 0.5 * (db0.value() + db1.value()) * dt;
        let coolant = 0.5 * (dc0.value() + dc1.value()) * dt;
        prop_assert!(((s1.battery - s0.battery).value() - battery).abs() < 1e-9);
        prop_assert!(((s1.coolant - s0.coolant).value() - coolant).abs() < 1e-9);
    }
}
