//! Cross-crate energy-bookkeeping invariants: no architecture may create
//! energy, and every methodology's internal consumption must cover what
//! it delivered.

use otem_repro::control::policy::{Dual, Parallel};
use otem_repro::control::{Controller, Simulator, SystemConfig};
use otem_repro::drivecycle::PowerTrace;
use otem_repro::units::{Seconds, Watts};

fn pulse_trace() -> PowerTrace {
    let mut samples = Vec::new();
    for block in 0..6 {
        let level = if block % 2 == 0 { 8_000.0 } else { 45_000.0 };
        samples.extend(vec![Watts::new(level); 20]);
    }
    PowerTrace::new(Seconds::new(1.0), samples)
}

#[test]
fn internal_energy_covers_delivered_energy() {
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let trace = pulse_trace();

    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config).unwrap()),
        Box::new(Dual::new(&config).unwrap()),
    ];
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        let delivered: f64 = r.records.iter().map(|rec| rec.hees.delivered.value()).sum();
        let internal: f64 = r.records.iter().map(|rec| rec.total_power().value()).sum();
        assert!(
            internal >= delivered - 1e-6,
            "{} created energy: internal {internal} < delivered {delivered}",
            r.methodology
        );
        // Losses are bounded: < 25 % of the delivered energy on this
        // moderate profile.
        assert!(
            internal < delivered * 1.25,
            "{} implausibly lossy: {internal} vs {delivered}",
            r.methodology
        );
    }
}

#[test]
fn battery_soc_drop_matches_charge_drawn() {
    // The coulomb counter must agree with the integrated pack current.
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let trace = pulse_trace();
    let mut dual = Dual::new(&config).unwrap();
    let initial_soc = dual.state().soc.value();
    let r = sim.run(&mut dual, &trace);
    let final_soc = r.records.last().unwrap().state.soc.value();
    assert!(final_soc < initial_soc);

    // Energy drawn from the battery ≈ ΔSoC · capacity · mean OCV; check
    // the order of magnitude (OCV varies a few percent over the window).
    let battery_energy: f64 = r
        .records
        .iter()
        .map(|rec| rec.hees.battery_internal.value())
        .sum();
    let pack_wh = 48.0 * 3.1 * 96.0 * 3.7; // p · Ah · s · V_nominal
    let implied = (initial_soc - final_soc) * pack_wh * 3600.0;
    let ratio = battery_energy / implied;
    assert!(
        (0.8..1.25).contains(&ratio),
        "coulomb/energy bookkeeping diverged: ratio {ratio}"
    );
}

#[test]
fn idle_route_consumes_almost_nothing() {
    let config = SystemConfig::default();
    let sim = Simulator::new(&config);
    let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::ZERO; 120]);
    let mut parallel = Parallel::new(&config).unwrap();
    let r = sim.run(&mut parallel, &trace);
    // Only equalisation trickle between the storages; tiny versus any
    // driving consumption.
    assert!(
        r.totals.energy.value().abs() < 50_000.0,
        "idle energy {:?}",
        r.totals.energy
    );
}
