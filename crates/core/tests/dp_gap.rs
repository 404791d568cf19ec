//! Optimality-gap benchmark: how close does receding-horizon OTEM get to
//! the clairvoyant DP split on pure HEES energy?
//!
//! OTEM optimises lifetime *and* energy under a short window; the DP
//! planner optimises energy alone with the whole route in hand. The gap
//! between them bounds what the missing future knowledge (and the
//! lifetime weighting) costs in energy terms.
//!
//! The bound is checked on the default configuration and on the stress
//! rig. Both land slightly *below* the plan (see the `planner` module
//! doc), inside the 0.93× lower bound.

use otem::mpc::MpcConfig;
use otem::planner::{plan_split, PlannerConfig};
use otem::policy::Otem;
use otem::{Simulator, SystemConfig};
use otem_drivecycle::PowerTrace;
use otem_units::{Seconds, Watts};

fn pulsed_trace() -> PowerTrace {
    let mut samples = Vec::new();
    for _ in 0..8 {
        samples.extend(vec![Watts::new(4_000.0); 12]);
        samples.extend(vec![Watts::new(70_000.0); 4]);
        samples.extend(vec![Watts::new(-25_000.0); 4]);
    }
    PowerTrace::new(Seconds::new(1.0), samples)
}

/// Runs energy-only OTEM on `config` and asserts its HEES energy lands
/// between 0.93× and 1.25× of the clairvoyant DP plan.
fn assert_within_reach_of_the_clairvoyant_bound(config: &SystemConfig) {
    let trace = pulsed_trace();

    let plan = plan_split(
        config,
        &trace,
        &PlannerConfig {
            soe_levels: 21,
            actions: 9,
        },
    )
    .expect("plan");

    // OTEM with the lifetime weight off — the energy-only comparison.
    let mpc = MpcConfig {
        horizon: 8,
        solver_iterations: 15,
        w2: 0.0,
        ..MpcConfig::default()
    };
    let mut otem = Otem::with_mpc(config, mpc).expect("controller");
    let r = Simulator::new(config).run(&mut otem, &trace);
    let otem_energy = r.energy().value();
    println!(
        "{}p pack: OTEM/DP energy {:.4}",
        config.pack.parallel,
        otem_energy / plan.energy.value()
    );

    assert!(plan.energy.value() > 0.0);
    // OTEM cannot beat the clairvoyant plan by more than grid noise…
    assert!(
        otem_energy > plan.energy.value() * 0.93,
        "OTEM {otem_energy:.0} J implausibly beat the DP bound {:.0} J",
        plan.energy.value()
    );
    // …and a healthy controller lands within ~25 % of it.
    assert!(
        otem_energy < plan.energy.value() * 1.25,
        "OTEM {otem_energy:.0} J vs clairvoyant {:.0} J — gap too large",
        plan.energy.value()
    );
}

#[test]
fn otem_energy_is_within_reach_of_the_clairvoyant_bound() {
    for config in [SystemConfig::default(), SystemConfig::stress_rig()] {
        assert_within_reach_of_the_clairvoyant_bound(&config);
    }
}
