//! Property tests on the controllers: state invariants must hold for
//! arbitrary load profiles.

use otem::planner::{plan_split, PlannerConfig};
use otem::policy::{ActiveCooling, Dual, Parallel};
use otem::{Controller, Simulator, SystemConfig};
use otem_drivecycle::PowerTrace;
use otem_units::{Seconds, Watts};
use proptest::prelude::*;

fn arbitrary_trace() -> impl Strategy<Value = PowerTrace> {
    prop::collection::vec(-60_000.0..90_000.0f64, 10..120).prop_map(|samples| {
        PowerTrace::new(
            Seconds::new(1.0),
            samples.into_iter().map(Watts::new).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn baselines_keep_states_bounded(trace in arbitrary_trace()) {
        let config = SystemConfig::default();
        let sim = Simulator::new(&config);
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(Parallel::new(&config).unwrap()),
            Box::new(ActiveCooling::new(&config).unwrap()),
            Box::new(Dual::new(&config).unwrap()),
        ];
        for controller in controllers.iter_mut() {
            let r = sim.run(controller.as_mut(), &trace);
            for rec in &r.records {
                prop_assert!((0.0..=1.0).contains(&rec.state.soc.value()));
                prop_assert!((0.0..=1.0).contains(&rec.state.soe.value()));
                prop_assert!(rec.state.battery_temp.value().is_finite());
                prop_assert!((200.0..500.0).contains(&rec.state.battery_temp.value()));
                prop_assert!(rec.hees.battery_heat.value().is_finite());
            }
            prop_assert!(r.capacity_loss().is_finite());
            prop_assert!(r.capacity_loss() >= 0.0);
        }
    }

    #[test]
    fn capacity_loss_monotone_in_route_length(
        samples in prop::collection::vec(5_000.0..50_000.0f64, 40..80),
        split in 10..30usize,
    ) {
        // Driving a prefix of a route can never lose more capacity than
        // driving the whole route.
        let config = SystemConfig::default();
        let sim = Simulator::new(&config);
        let full = PowerTrace::new(
            Seconds::new(1.0),
            samples.iter().copied().map(Watts::new).collect(),
        );
        let prefix = PowerTrace::new(
            Seconds::new(1.0),
            samples[..split].iter().copied().map(Watts::new).collect(),
        );
        let mut a = Dual::new(&config).unwrap();
        let mut b = Dual::new(&config).unwrap();
        let full_loss = sim.run(&mut a, &full).capacity_loss();
        let prefix_loss = sim.run(&mut b, &prefix).capacity_loss();
        prop_assert!(full_loss >= prefix_loss);
    }

    #[test]
    fn clairvoyant_plan_never_loses_to_battery_only(
        pulse_kw in 30.0..80.0f64,
        base_kw in 1.0..10.0f64,
        period in 4..10usize,
    ) {
        // The DP may always choose cap_bus = 0 everywhere, so its energy
        // can never exceed the battery-only split (up to grid noise).
        let config = SystemConfig::default();
        let mut samples = Vec::new();
        for k in 0..48 {
            let w = if k % period == 0 { pulse_kw } else { base_kw };
            samples.push(otem_units::Watts::new(w * 1000.0));
        }
        let trace = PowerTrace::new(Seconds::new(1.0), samples);
        let plan = plan_split(
            &config,
            &trace,
            &PlannerConfig { soe_levels: 11, actions: 5 },
        )
        .unwrap();

        let mut plant = config.hybrid_plant().unwrap();
        let mut battery_only = 0.0;
        for t in 0..trace.len() {
            let step = plant.step(
                otem_hees::HybridCommand {
                    battery_bus: trace.get(t),
                    cap_bus: otem_units::Watts::ZERO,
                },
                config.ambient,
                Seconds::new(1.0),
            );
            battery_only += step.hees_power().value();
        }
        prop_assert!(
            plan.energy.value() <= battery_only * 1.02,
            "plan {:.0} J worse than battery-only {battery_only:.0} J",
            plan.energy.value()
        );
    }

    #[test]
    fn dual_never_uses_cap_when_cold_and_full(
        samples in prop::collection::vec(1_000.0..30_000.0f64, 20..60),
    ) {
        // Below its hot threshold with a full bank, the dual policy keeps
        // the battery as the source (it may recharge, never discharge the
        // bank).
        let config = SystemConfig::default();
        let sim = Simulator::new(&config);
        let trace = PowerTrace::new(
            Seconds::new(1.0),
            samples.into_iter().map(Watts::new).collect(),
        );
        let mut dual = Dual::new(&config).unwrap();
        let r = sim.run(&mut dual, &trace);
        for rec in &r.records {
            if rec.state.battery_temp < otem_units::Kelvin::from_celsius(31.0) {
                prop_assert!(
                    rec.hees.cap_internal.value() <= 1e-9,
                    "bank discharged while cold: {:?}",
                    rec.hees.cap_internal
                );
            }
        }
    }
}
