//! Property tests on the controllers: state invariants must hold for
//! arbitrary load profiles.

use otem::planner::{plan_route, realized_cost};
use otem::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem::{Controller, Simulator, SystemConfig};
use otem_drivecycle::PowerTrace;
use otem_units::{Seconds, Watts};
use proptest::prelude::*;

/// Relative tolerance of a route plan's replay against its planned cost
/// (the same bound `otem::planner`'s tests state).
const REPLAY_TOLERANCE: f64 = 2e-3;

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
            prop_assert!(r.totals.capacity_loss.is_finite());
            prop_assert!(r.totals.capacity_loss >= 0.0);
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
        let full_loss = sim.run(&mut a, &full).totals.capacity_loss;
        let prefix_loss = sim.run(&mut b, &prefix).totals.capacity_loss;
        prop_assert!(full_loss >= prefix_loss);
    }

    #[test]
    fn route_plan_never_loses_to_the_closed_loop(
        pulse_kw in 30.0..80.0f64,
        base_kw in 1.0..10.0f64,
        period in 4..10usize,
    ) {
        // The route solve starts from the default closed loop's moves and
        // never ends above the objective there, so what the plan realizes
        // can exceed what the closed loop realizes only by the plan's
        // replay tolerance.
        let config = SystemConfig::default();
        let samples = (0..48)
            .map(|k| Watts::new(1_000.0 * if k % period == 0 { pulse_kw } else { base_kw }))
            .collect();
        let trace = PowerTrace::new(Seconds::new(1.0), samples);
        let plan = plan_route(&config, &trace).unwrap();
        let mut otem = Otem::new(&config).unwrap();
        let closed = realized_cost(&Simulator::new(&config).run(&mut otem, &trace));
        let floor = realized_cost(&plan.replay);
        prop_assert!(
            floor <= closed * (1.0 + REPLAY_TOLERANCE),
            "plan realized {floor:.6e}, closed loop {closed:.6e}"
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
