//! The whole-route plan as the floor of the default closed loop on one
//! lap of NYCC.
//!
//! `plan_route` starts from the default closed loop's applied moves, so
//! its planned cost may not exceed the MPC objective at those moves, and
//! what its replay realizes may not exceed what the closed loop
//! realizes. The margin between the two realized costs is pinned: it is
//! what the receding-horizon controller leaves on this route.

use otem::mpc::{rollout_cost, MpcConfig, MpcDecision, MpcPlant};
use otem::planner::{plan_route, realized_cost};
use otem::policy::Otem;
use otem::{Controller, Simulator, StepRecord, SystemConfig, SystemState};
use otem_drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
use otem_telemetry::Sink;
use otem_units::{Seconds, Watts};

/// The default closed loop, recording each applied move.
struct Recorded {
    otem: Otem,
    moves: Vec<MpcDecision>,
}

impl Controller for Recorded {
    fn name(&self) -> &'static str {
        "OTEM"
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let decision = self.otem.plan_with(load, forecast, dt, sink);
        self.moves.push(decision);
        self.otem
            .apply_with(load, decision.cap_bus, decision.cool_duty, dt, sink)
    }

    fn state(&self) -> SystemState {
        self.otem.state()
    }
}

#[test]
fn route_plan_floors_the_default_closed_loop_on_one_lap() {
    let config = SystemConfig::default();
    let trace = Powertrain::new(VehicleParams::midsize_ev())
        .expect("vehicle")
        .power_trace(&standard(StandardCycle::Nycc).expect("cycle"));
    let n = trace.len();

    let mut closed = Recorded {
        otem: Otem::new(&config).expect("controller"),
        moves: Vec::with_capacity(n),
    };
    let closed_cost = realized_cost(&Simulator::new(&config).run(&mut closed, &trace));

    // The MPC objective over the whole route at the closed loop's moves:
    // the route solve's start.
    let mut warm = vec![0.0; 2 * n];
    for (t, d) in closed.moves.iter().enumerate() {
        warm[t] = d.cap_bus.value() / config.cap_power_max.value();
        warm[n + t] = d.cool_duty;
    }
    let start = MpcPlant::new(&config).expect("plant");
    let route = MpcConfig {
        horizon: n,
        terminal_tail: 0.0,
        ..MpcConfig::default()
    };
    let warm_cost = rollout_cost(&start, trace.samples(), config.dt, &route, &warm);

    let plan = plan_route(&config, &trace).expect("plan");
    let floor = realized_cost(&plan.replay);
    println!(
        "NYCC x1: warm start {warm_cost:.6e}, planned {:.6e}, realized {floor:.6e}, \
         closed loop {closed_cost:.6e}, closed / floor {:.5}",
        plan.cost,
        closed_cost / floor
    );
    assert!(plan.cost <= warm_cost, "the solve ended above its start");
    assert!(
        (floor / plan.cost - 1.0).abs() <= 2e-3,
        "replay {floor:.6e} vs planned {:.6e}",
        plan.cost
    );
    // Measured 1.1151: the default loop realizes 11.5 % more than the plan.
    let margin = closed_cost / floor;
    assert!(
        (1.10..1.13).contains(&margin),
        "closed loop / route plan {margin:.5}"
    );
}
