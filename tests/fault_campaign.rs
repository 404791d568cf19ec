//! The acceptance demonstration for the robustness PR: a seeded fault
//! campaign on the US06 stress rig where
//!
//! * **unsupervised** OTEM demonstrably produces unusable decisions
//!   (NaN cost / structurally non-finite solver outcome), while
//! * **supervised** OTEM under the *same* faults completes the route
//!   with finite state and bounded battery temperature, narrating the
//!   degradation ladder through telemetry.

use otem_repro::control::mpc::MpcConfig;
use otem_repro::control::policy::Otem;
use otem_repro::control::supervisor::{validate_decision, validate_state};
use otem_repro::control::{Simulator, SupervisedOtem, SupervisorConfig, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::faults::{FaultKind, FaultPlan, FaultedController};
use otem_repro::solver::SolverOutcome;
use otem_repro::telemetry::{MemorySink, NullSink};
use otem_repro::units::{Seconds, Watts};

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

/// The adversary both runs face: corrupted forecasts mid-route, a stuck
/// pump under load spikes, and a starved solver near the end.
fn campaign_plan() -> FaultPlan {
    FaultPlan::new(0xD06_F00D)
        .inject(FaultKind::ForecastCorrupt, 20, 35)
        .inject(FaultKind::PumpStuck, 50, 75)
        .inject(FaultKind::LoadSpike { power_w: 400_000.0 }, 55, 60)
        .inject(FaultKind::SolverStarvation { max_iterations: 0 }, 90, 100)
        .inject(
            FaultKind::SensorNoise {
                temp_sigma_k: 0.5,
                ratio_sigma: 0.002,
            },
            40,
            50,
        )
}

#[test]
fn unsupervised_mpc_produces_rejectable_decisions_under_corrupted_forecast() {
    let config = SystemConfig::stress_rig();
    let mut otem = Otem::with_mpc(&config, campaign_mpc()).expect("valid");

    // Nominal decision first: the validator accepts it.
    let nominal = otem.plan_with(
        Watts::new(20_000.0),
        &[Watts::new(20_000.0); 6],
        Seconds::new(1.0),
        &NullSink,
    );
    assert!(
        validate_decision(&nominal, config.cap_power_max).is_ok(),
        "nominal decision must pass validation: {nominal:?}"
    );

    // A NaN forecast poisons the rollout objective end to end.
    let corrupt = vec![Watts::new(f64::NAN); 6];
    let decision = otem.plan_with(Watts::new(20_000.0), &corrupt, Seconds::new(1.0), &NullSink);
    assert_eq!(
        decision.outcome,
        SolverOutcome::NonFinite,
        "the solver must surface the poisoned objective structurally: {decision:?}"
    );
    assert!(!decision.cost.is_finite());
    let err = validate_decision(&decision, config.cap_power_max)
        .expect_err("a NaN-cost decision must be rejected");
    assert!(err.to_string().contains("non-finite") || err.to_string().contains("solver"));
}

#[test]
fn supervised_otem_completes_the_fault_campaign_with_bounded_state() {
    let config = SystemConfig::stress_rig();
    let supervisor_config = SupervisorConfig::default();
    let supervised = SupervisedOtem::new(
        Otem::with_mpc(&config, campaign_mpc()).expect("valid"),
        supervisor_config,
    );
    let mut harness = FaultedController::new(supervised, campaign_plan());

    let sink = MemorySink::new();
    let result = Simulator::new(&config).run_with(&mut harness, &rig_trace(), &sink);

    // The route completes with every reported quantity finite and
    // SoC/SoE physical, despite NaN forecasts and a starved solver.
    assert_eq!(result.records.len(), STEPS);
    for (step, rec) in result.records.iter().enumerate() {
        assert!(
            validate_state(&rec.state, &supervisor_config).is_ok(),
            "step {step}: state left the validated envelope: {:?}",
            rec.state
        );
        assert!(rec.hees.delivered.is_finite(), "step {step}");
        assert!(rec.cooling_power.is_finite(), "step {step}");
        assert!(
            rec.state.battery_temp < supervisor_config.temp_hard_max,
            "step {step}: battery temperature ran away"
        );
    }
    assert!(result.capacity_loss().is_finite());

    // The adversary actually fired, and the ladder visibly handled it.
    let supervised = harness.into_inner();
    assert!(sink.count_kind("fault_injected") > 0, "no faults injected");
    assert!(
        supervised.rejected() > 0,
        "the corrupted forecast must produce rejected decisions"
    );
    assert!(
        supervised.fallbacks() > 0,
        "rejections must engage the fallback"
    );
    assert!(
        supervised.rearms() > 0,
        "the MPC must re-arm once the fault windows close"
    );
    assert_eq!(
        sink.count_kind("decision_rejected") as u64,
        supervised.rejected()
    );
    assert_eq!(
        sink.count_kind("fallback_engaged") as u64,
        supervised.fallbacks()
    );
    assert_eq!(sink.count_kind("mpc_rearmed") as u64, supervised.rearms());
    // Healthy again by route end: armed with the MPC driving.
    assert!(
        supervised.is_armed(),
        "the supervisor should have re-armed the MPC after the last fault window"
    );

    // Degraded-time accounting: under this campaign the supervisor's
    // fallback/probe spans must carry nonzero wall time — the time a
    // span profile attributes to the degradation ladder.
    assert!(
        degraded_span_ns(&sink) > 0,
        "the campaign engaged the fallback, so supervisor spans must have duration"
    );
}

/// Total wall time (ns) recorded under the supervisor's degradation
/// spans (`supervisor_fallback` + `supervisor_probe`).
fn degraded_span_ns(sink: &MemorySink) -> u64 {
    use otem_repro::telemetry::Event;
    sink.events()
        .iter()
        .filter_map(|e| match *e {
            Event::SpanEnd { name, dur_ns, .. }
                if name == "supervisor_fallback" || name == "supervisor_probe" =>
            {
                Some(dur_ns)
            }
            _ => None,
        })
        .sum()
}

/// The converse of the degraded-time assertion above: a fault-free
/// supervised run never enters the fallback or probe paths, so its
/// supervisor span total is exactly zero (while the MPC's own spans
/// are plentiful).
#[test]
fn nominal_supervised_run_accumulates_zero_degraded_time() {
    let config = SystemConfig::stress_rig();
    let mut supervised =
        SupervisedOtem::with_defaults(Otem::with_mpc(&config, campaign_mpc()).expect("valid"));
    let trace = PowerTrace::new(Seconds::new(1.0), rig_trace().window(0, 30));

    let sink = MemorySink::new();
    let result = Simulator::new(&config).run_with(&mut supervised, &trace, &sink);
    assert_eq!(result.records.len(), 30);
    assert!(supervised.is_armed(), "nominal run must stay armed");
    assert_eq!(supervised.fallbacks(), 0);

    assert_eq!(
        degraded_span_ns(&sink),
        0,
        "no degradation, no degraded time"
    );
    assert!(
        sink.count_kind("span_start") > 0,
        "the armed path is still span-instrumented"
    );
    assert_eq!(
        sink.count_kind("span_start"),
        sink.count_kind("span_end"),
        "nominal span stream must be balanced"
    );
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
        let supervised =
            SupervisedOtem::with_defaults(Otem::with_mpc(&config, campaign_mpc()).expect("valid"));
        let mut harness = FaultedController::new(supervised, campaign_plan());
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
