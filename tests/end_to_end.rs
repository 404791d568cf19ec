//! End-to-end integration: synthesise a cycle, build the power trace,
//! run every methodology, and check the paper's qualitative orderings.

use otem_repro::control::mpc::MpcConfig;
use otem_repro::control::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem_repro::control::{Controller, Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::units::{Seconds, Watts};

/// A shortened US06 prefix: enough structure to exercise every policy
/// while keeping the (debug-build) MPC affordable in tests.
fn short_trace() -> PowerTrace {
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::midsize_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    PowerTrace::new(Seconds::new(1.0), trace.window(60, 180))
}

fn fast_otem(config: &SystemConfig) -> Otem {
    Otem::with_mpc(
        config,
        MpcConfig {
            horizon: 6,
            solver_iterations: 12,
            ..MpcConfig::default()
        },
    )
    .expect("valid")
}

#[test]
fn all_methodologies_complete_the_route() {
    let config = SystemConfig::default();
    let trace = short_trace();
    let sim = Simulator::new(&config);

    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config).unwrap()),
        Box::new(ActiveCooling::new(&config).unwrap()),
        Box::new(Dual::new(&config).unwrap()),
        Box::new(fast_otem(&config)),
    ];
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        assert_eq!(r.records.len(), trace.len(), "{}", r.methodology);
        assert!(r.totals.capacity_loss > 0.0, "{}", r.methodology);
        assert!(r.totals.energy.value() > 0.0, "{}", r.methodology);
        // The route must be essentially served (< 2 % shortfall).
        let served = r.totals.shortfall_energy.value() / r.totals.energy.value();
        assert!(served < 0.02, "{} shortfall {served:.3}", r.methodology);
    }
}

#[test]
fn otem_beats_battery_only_on_capacity_loss() {
    let config = SystemConfig::default();
    let trace = short_trace();
    let sim = Simulator::new(&config);

    let mut cooling = ActiveCooling::new(&config).unwrap();
    let cooling_result = sim.run(&mut cooling, &trace);

    let mut otem = fast_otem(&config);
    let otem_result = sim.run(&mut otem, &trace);

    assert!(
        otem_result.totals.capacity_loss < cooling_result.totals.capacity_loss,
        "OTEM {:.3e} vs ActiveCooling {:.3e}",
        otem_result.totals.capacity_loss,
        cooling_result.totals.capacity_loss
    );
}

#[test]
fn no_methodology_violates_state_bounds() {
    let config = SystemConfig::default();
    let trace = short_trace();
    let sim = Simulator::new(&config);

    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config).unwrap()),
        Box::new(Dual::new(&config).unwrap()),
        Box::new(fast_otem(&config)),
    ];
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        for (t, rec) in r.records.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&rec.state.soc.value()),
                "{} SoC out of range at {t}",
                r.methodology
            );
            assert!(
                (0.0..=1.0).contains(&rec.state.soe.value()),
                "{} SoE out of range at {t}",
                r.methodology
            );
            assert!(
                rec.state.battery_temp.value().is_finite()
                    && (250.0..400.0).contains(&rec.state.battery_temp.value()),
                "{} temperature diverged at {t}: {:?}",
                r.methodology,
                rec.state.battery_temp
            );
        }
    }
}

#[test]
fn regen_heavy_route_recovers_energy() {
    // A route that is mostly braking must leave the storage fuller than
    // an equivalent flat route.
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let mut samples = vec![Watts::new(30_000.0); 40];
    samples.extend(vec![Watts::new(-25_000.0); 40]);
    let trace = PowerTrace::new(Seconds::new(1.0), samples);

    let mut dual = Dual::new(&config).unwrap();
    let r = sim.run(&mut dual, &trace);
    let final_soc = r.records.last().unwrap().state.soc;
    let mid_soc = r.records[39].state.soc;
    assert!(
        final_soc > mid_soc,
        "regen not stored: {final_soc:?} vs {mid_soc:?}"
    );
}
