//! Property tests under adversarial inputs: every controller, stepped
//! directly with megawatt spikes, empty or zero forecasts, and tiny
//! solver budgets, must keep its reported record physical — all fields
//! finite, SoC/SoE in `[0, 1]`, temperatures plausible.
//!
//! Unlike `policy_properties.rs` (which drives plausible traces through
//! the simulator), this suite bypasses the simulator and feeds the
//! controllers inputs no drive cycle would produce.

use otem::mpc::MpcConfig;
use otem::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem::{Controller, SystemConfig};
use otem_units::{Seconds, Watts};
use proptest::prelude::*;

/// Load samples spanning ±1 MW — far beyond any bus or pack limit.
fn extreme_loads() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0.0),
            -1_000_000.0..1_000_000.0f64,
            Just(1_000_000.0),
            Just(-1_000_000.0),
        ],
        3..12,
    )
}

/// Forecast shapes: empty, all-zero, or echoing the (extreme) loads.
#[derive(Debug, Clone, Copy)]
enum ForecastShape {
    Empty,
    Zero,
    Echo,
}

fn forecast_shape() -> impl Strategy<Value = ForecastShape> {
    prop_oneof![
        Just(ForecastShape::Empty),
        Just(ForecastShape::Zero),
        Just(ForecastShape::Echo),
    ]
}

fn tiny_mpc() -> MpcConfig {
    MpcConfig {
        horizon: 3,
        solver_iterations: 4,
        ..MpcConfig::default()
    }
}

fn assert_record_physical(rec: &otem::StepRecord) -> Result<(), TestCaseError> {
    prop_assert!(rec.load.is_finite());
    prop_assert!(rec.hees.delivered.is_finite());
    prop_assert!(rec.hees.shortfall.is_finite());
    prop_assert!(rec.hees.battery_internal.is_finite());
    prop_assert!(rec.hees.cap_internal.is_finite());
    prop_assert!(rec.hees.battery_heat.is_finite());
    prop_assert!(rec.hees.battery_c_rate.is_finite());
    prop_assert!(rec.cooling_power.is_finite());
    prop_assert!(rec.cooling_power.value() >= 0.0);
    prop_assert!((0.0..=1.0).contains(&rec.state.soc.value()));
    prop_assert!((0.0..=1.0).contains(&rec.state.soe.value()));
    prop_assert!(rec.state.battery_temp.value().is_finite());
    prop_assert!(rec.state.coolant_temp.value().is_finite());
    prop_assert!((150.0..600.0).contains(&rec.state.battery_temp.value()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_controllers_survive_megawatt_spikes(
        loads in extreme_loads(),
        shape in forecast_shape(),
    ) {
        let config = SystemConfig::default();
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(Parallel::new(&config).unwrap()),
            Box::new(ActiveCooling::new(&config).unwrap()),
            Box::new(Dual::new(&config).unwrap()),
            Box::new(Otem::with_mpc(&config, tiny_mpc()).unwrap()),
        ];
        let dt = Seconds::new(1.0);
        for controller in controllers.iter_mut() {
            for (k, &l) in loads.iter().enumerate() {
                let forecast: Vec<Watts> = match shape {
                    ForecastShape::Empty => Vec::new(),
                    ForecastShape::Zero => vec![Watts::ZERO; 3],
                    ForecastShape::Echo => loads
                        .iter()
                        .cycle()
                        .skip(k + 1)
                        .take(3)
                        .map(|&w| Watts::new(w))
                        .collect(),
                };
                let rec = controller.step(Watts::new(l), &forecast, dt);
                assert_record_physical(&rec)?;
            }
            let state = controller.state();
            prop_assert!((0.0..=1.0).contains(&state.soc.value()));
            prop_assert!((0.0..=1.0).contains(&state.soe.value()));
            prop_assert!(state.battery_temp.value().is_finite());
        }
    }
}
