//! Failure injection: controllers must degrade gracefully — never panic,
//! never emit non-finite state — under hostile inputs (impossible loads,
//! broken forecasts, depleted storage, extreme ambient).

use otem::mpc::MpcConfig;
use otem::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem::{Controller, Simulator, SystemConfig};
use otem_drivecycle::PowerTrace;
use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};

fn tiny_mpc() -> MpcConfig {
    MpcConfig {
        horizon: 4,
        solver_iterations: 8,
        ..MpcConfig::default()
    }
}

fn assert_sane(records: &[otem::StepRecord], who: &str) {
    for (t, rec) in records.iter().enumerate() {
        assert!(
            rec.state.battery_temp.value().is_finite(),
            "{who}: temp diverged at {t}"
        );
        assert!(
            (0.0..=1.0).contains(&rec.state.soc.value()),
            "{who}: SoC escaped at {t}"
        );
        assert!(
            (0.0..=1.0).contains(&rec.state.soe.value()),
            "{who}: SoE escaped at {t}"
        );
        assert!(
            rec.hees.delivered.is_finite() && rec.hees.battery_heat.is_finite(),
            "{who}: non-finite power at {t}"
        );
    }
}

#[test]
fn impossible_megawatt_load_is_clamped_not_fatal() {
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(5.0e6); 20]);

    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config).unwrap()),
        Box::new(ActiveCooling::new(&config).unwrap()),
        Box::new(Dual::new(&config).unwrap()),
        Box::new(Otem::with_mpc(&config, tiny_mpc()).unwrap()),
    ];
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        assert_sane(&r.records, r.methodology);
        assert!(
            r.totals.shortfall_energy.value() > 0.0,
            "{}: a 5 MW request must shortfall",
            r.methodology
        );
    }
}

#[test]
fn violent_regen_is_absorbed_or_rejected_cleanly() {
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(-2.0e6); 20]);
    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config).unwrap()),
        Box::new(Dual::new(&config).unwrap()),
        Box::new(Otem::with_mpc(&config, tiny_mpc()).unwrap()),
    ];
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        assert_sane(&r.records, r.methodology);
    }
}

#[test]
fn otem_with_depleted_storage_limps_home() {
    let config = SystemConfig {
        initial_soc: Ratio::from_percent(22.0), // just above the floor
        initial_soe: Ratio::from_percent(20.0),
        ..SystemConfig::default()
    };
    let sim = Simulator::new(&config);
    let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(15_000.0); 60]);
    let mut otem = Otem::with_mpc(&config, tiny_mpc()).unwrap();
    let r = sim.run(&mut otem, &trace);
    assert_sane(&r.records, "OTEM");
    // The load is feasible on the battery alone: no meaningful shortfall.
    assert!(r.totals.shortfall_energy.value() < 0.05 * r.totals.energy.value());
}

#[test]
fn garbage_forecast_does_not_break_the_mpc() {
    let config = SystemConfig::default();
    let mut otem = Otem::with_mpc(&config, tiny_mpc()).unwrap();
    // Forecast full of absurd values, including sign flips.
    let forecast = vec![
        Watts::new(1.0e9),
        Watts::new(-1.0e9),
        Watts::new(0.0),
        Watts::new(7.0e8),
    ];
    for _ in 0..10 {
        let rec = otem.step(Watts::new(10_000.0), &forecast, Seconds::new(1.0));
        assert!(rec.hees.delivered.is_finite());
        assert!(rec.state.battery_temp.value().is_finite());
    }
}

#[test]
fn arctic_and_desert_ambients_stay_stable() {
    for celsius in [-20.0, 45.0] {
        // temp_max must stay above ambient for the config to validate;
        // relax it for the desert case.
        let config = SystemConfig {
            temp_max: Kelvin::from_celsius(celsius + 15.0),
            ..SystemConfig::default().with_ambient(Kelvin::from_celsius(celsius))
        };
        let sim = Simulator::new(&config);
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(30_000.0); 120]);
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(Parallel::new(&config).unwrap()),
            Box::new(ActiveCooling::new(&config).unwrap()),
            Box::new(Otem::with_mpc(&config, tiny_mpc()).unwrap()),
        ];
        for controller in controllers.iter_mut() {
            let r = sim.run(controller.as_mut(), &trace);
            assert_sane(&r.records, r.methodology);
        }
    }
}

#[test]
fn microscopic_ultracapacitor_does_not_sink_otem() {
    let config = SystemConfig {
        capacitance: Farads::new(50.0), // 3 orders below the paper's range
        ..SystemConfig::default()
    };
    let sim = Simulator::new(&config);
    let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(25_000.0); 60]);
    let mut otem = Otem::with_mpc(&config, tiny_mpc()).unwrap();
    let r = sim.run(&mut otem, &trace);
    assert_sane(&r.records, "OTEM");
    assert!(r.totals.shortfall_energy.value() < 0.05 * r.totals.energy.value());
}

#[test]
fn zero_length_and_single_sample_routes() {
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    for n in [0usize, 1] {
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(5_000.0); n]);
        let mut otem = Otem::with_mpc(&config, tiny_mpc()).unwrap();
        let r = sim.run(&mut otem, &trace);
        assert_eq!(r.records.len(), n);
    }
}
