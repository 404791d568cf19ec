//! The robustness demonstration: a seeded fault campaign on the US06
//! stress rig under which plain OTEM
//!
//! * surfaces a corrupted forecast structurally (solver outcome
//!   `NonFinite`) while still applying a finite move — the projected,
//!   shifted warm start, i.e. its last plan —,
//! * surfaces a starved solver (a zero deadline) as
//!   `DeadlineReached`, applying the same warm start, and
//! * completes the route with finite, physical state and a bounded
//!   battery temperature.

use otem_repro::control::mpc::MpcConfig;
use otem_repro::control::policy::Otem;
use otem_repro::control::{Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::faults::{FaultKind, FaultPlan, FaultedController};
use otem_repro::fleet::OutcomeTally;
use otem_repro::solver::SolverOutcome;
use otem_repro::telemetry::NullSink;
use otem_repro::units::{Kelvin, Seconds, Watts};

const STEPS: usize = 120;

fn rig_trace() -> PowerTrace {
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    PowerTrace::new(Seconds::new(1.0), trace.window(0, STEPS))
}

fn campaign_mpc() -> MpcConfig {
    MpcConfig {
        horizon: 6,
        solver_iterations: 10,
        ..MpcConfig::default()
    }
}

/// The adversary: corrupted forecasts mid-route, a stuck pump under
/// load spikes, a noisy thermistor and a starved solver near the end.
fn campaign_plan() -> FaultPlan {
    FaultPlan::new(0xD06_F00D)
        .inject(FaultKind::ForecastCorrupt, 20, 35)
        .inject(FaultKind::PumpStuck, 50, 75)
        .inject(FaultKind::LoadSpike { power_w: 400_000.0 }, 55, 60)
        .inject(FaultKind::SolverDeadline { deadline_ns: 0 }, 90, 100)
        .inject(FaultKind::SensorNoise { temp_sigma_k: 0.5 }, 40, 50)
}

#[test]
fn unsupervised_mpc_produces_rejectable_decisions_under_corrupted_forecast() {
    let config = SystemConfig::stress_rig();
    let mut otem = Otem::with_mpc(&config, campaign_mpc()).expect("valid");

    // Nominal decision first: a finite plan.
    let nominal = otem.plan_with(
        Watts::new(20_000.0),
        &[Watts::new(20_000.0); 6],
        Seconds::new(1.0),
        &NullSink,
    );
    assert_ne!(nominal.outcome, SolverOutcome::NonFinite, "{nominal:?}");
    assert!(nominal.cost.is_finite(), "{nominal:?}");

    // A NaN forecast poisons the rollout objective end to end: the
    // solver says so, and the move it hands back is still finite.
    let corrupt = vec![Watts::new(f64::NAN); 6];
    let decision = otem.plan_with(Watts::new(20_000.0), &corrupt, Seconds::new(1.0), &NullSink);
    assert_eq!(
        decision.outcome,
        SolverOutcome::NonFinite,
        "the solver must surface the poisoned objective structurally: {decision:?}"
    );
    assert!(!decision.cost.is_finite());
    assert!(decision.cap_bus.is_finite(), "{decision:?}");
    assert!(decision.cool_duty.is_finite(), "{decision:?}");
}

#[test]
fn plain_otem_completes_the_fault_campaign_with_bounded_state() {
    let config = SystemConfig::stress_rig();
    let otem = Otem::with_mpc(&config, campaign_mpc()).expect("valid");
    let mut harness = FaultedController::new(otem, campaign_plan());

    let tally = OutcomeTally::new();
    let result = Simulator::new(&config).run_with(&mut harness, &rig_trace(), &tally);

    // The route completes with every state finite and physical, despite
    // NaN forecasts, a megawatt-class spike on a stuck pump and a
    // starved solver.
    let t_b_max = Kelvin::from_celsius(60.0);
    assert_eq!(result.records.len(), STEPS);
    for (step, rec) in result.records.iter().enumerate() {
        let s = rec.state;
        assert!(
            s.battery_temp.value().is_finite() && s.coolant_temp.value().is_finite(),
            "step {step}: {s:?}"
        );
        assert!((0.0..=1.0).contains(&s.soc.value()), "step {step}: {s:?}");
        assert!((0.0..=1.0).contains(&s.soe.value()), "step {step}: {s:?}");
        assert!(s.battery_temp < t_b_max, "step {step}: {s:?}");
        assert!(rec.hees.delivered.is_finite(), "step {step}");
        assert!(rec.cooling_power.is_finite(), "step {step}");
    }
    assert!(result.totals.capacity_loss.is_finite());

    // The adversary fired: each corrupted forecast surfaced as one
    // non-finite solve, and each starved solve as one that reached its
    // zero deadline.
    assert!(harness.injections() > 0, "no faults injected");
    let outcomes = tally.snapshot();
    assert_eq!(outcomes.non_finite, 15, "{outcomes:?}");
    assert_eq!(outcomes.deadline_reached, 10, "{outcomes:?}");
    assert_eq!(outcomes.total(), STEPS as u64, "{outcomes:?}");
}

/// Determinism of the whole campaign: same seed, same plan, same trace
/// → bit-identical trajectories (this is what makes fault campaigns
/// regression-testable).
#[test]
fn fault_campaign_is_deterministic() {
    let config = SystemConfig::stress_rig();
    let trace = rig_trace();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let otem = Otem::with_mpc(&config, campaign_mpc()).expect("valid");
        let mut harness = FaultedController::new(otem, campaign_plan());
        runs.push(Simulator::new(&config).run(&mut harness, &trace));
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.state.battery_temp.value().to_bits(),
            rb.state.battery_temp.value().to_bits()
        );
        assert_eq!(
            ra.state.soc.value().to_bits(),
            rb.state.soc.value().to_bits()
        );
        assert_eq!(
            ra.hees.delivered.value().to_bits(),
            rb.hees.delivered.value().to_bits()
        );
    }
}
