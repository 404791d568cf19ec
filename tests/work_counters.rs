//! Exact work-counter gate for the MPC's adjoint gradient path.
//!
//! A fixed closed-loop decision sequence on the thermally stressed
//! city-EV rig (`SystemConfig::stress_rig`, compact EV over US06) is
//! solved by the default MPC. Three things are pinned:
//!
//! * the decisions themselves, as an FNV-1a hash over the bits of every
//!   returned `cap_bus`, `cool_duty`, `cost` and iteration count, so any
//!   change to the solver path fails loudly;
//! * the forward-pass count [`Mpc::rollouts`]. Each gradient is taken at
//!   the point the line search just accepted, and the tape recorded by
//!   that evaluation is reused for the backward sweep, so the count is
//!   the one-forward-pass-per-gradient baseline minus one per
//!   `gradient_eval` event;
//! * the line-search waste, forward passes minus differentiated points:
//!   every rejected trial, plus the last accepted trial of each solve
//!   that runs out of budget (nothing differentiates it).
//!
//! All three are deterministic; a change that moves any must say so and
//! re-pin them here.
//!
//! Two more tests ride on the same counters:
//!
//! * on a warm-started open-loop problem (default system, horizons 12,
//!   24 and 48) the adjoint's forward passes per solve stay far below
//!   the `4·horizon` rollouts *per gradient* finite differences need;
//! * a traced 20-step OTEM run emits a balanced, properly nested span
//!   stream whose per-phase counts are pinned.

use otem_repro::control::mpc::{Mpc, MpcConfig, MpcPlant};
use otem_repro::control::policy::Otem;
use otem_repro::control::{Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::hees::HybridCommand;
use otem_repro::telemetry::{Event, MemorySink};
use otem_repro::thermal::{CoolerAction, CoolingPlant, ThermalModel, ThermalState};
use otem_repro::units::{Kelvin, Ratio, Seconds, Watts};
use std::collections::BTreeMap;

/// Closed-loop decisions in the pinned sequence.
const STEPS: usize = 60;

/// The work and decision fingerprint of the decision sequence.
struct Run {
    rollouts: u64,
    gradient_evals: u64,
    decision_hash: u64,
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs `STEPS` receding-horizon decisions, applying each first move to
/// the plant exactly as the OTEM controller does (cooling gated on below
/// a 1e-3 duty, the battery covering load plus cooling minus the bank).
fn run() -> Run {
    let config = SystemConfig::stress_rig();
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    let dt = Seconds::new(1.0);

    let mut hees = config.hybrid_plant().expect("hees");
    let thermal = ThermalModel::new(config.thermal_active).expect("thermal");
    let cooling = CoolingPlant::new(config.plant).expect("cooling plant");
    let mut state = ThermalState::uniform(config.ambient);

    let mpc_config = MpcConfig::default();
    let mut mpc = Mpc::new(mpc_config);
    let sink = MemorySink::with_capacity(1 << 16);
    let mut gradient_evals = 0;
    let mut decision_hash = 0xcbf2_9ce4_8422_2325;

    for k in 0..STEPS {
        let loads = trace.window(k, mpc_config.horizon);
        let plant = MpcPlant {
            hees: hees.clone(),
            thermal,
            plant: cooling,
            state,
            aging: config.aging,
            soc_min: config.soc_min,
            soe_min: config.soe_min,
            battery_power_max: config.battery_power_max,
            cap_power_max: config.cap_power_max,
        };
        let d = mpc.solve_with(&plant, &loads, dt, &sink);
        gradient_evals += sink.count_kind("gradient_eval") as u64;
        sink.clear();
        for bits in [
            d.cap_bus.value().to_bits(),
            d.cool_duty.to_bits(),
            d.cost.to_bits(),
            d.iterations as u64,
        ] {
            fnv1a(&mut decision_hash, bits);
        }

        let outlet = state.coolant;
        let coldest = cooling.coldest_inlet(outlet);
        let inlet = Kelvin::new(
            outlet.value() - d.cool_duty.clamp(0.0, 1.0) * (outlet.value() - coldest.value()),
        );
        let action = if d.cool_duty > 1e-3 {
            cooling.actuate(outlet, inlet)
        } else {
            CoolerAction::idle(outlet)
        };
        let step = hees.step(
            HybridCommand {
                battery_bus: loads[0] + action.total_power() - d.cap_bus,
                cap_bus: d.cap_bus,
            },
            state.battery,
            dt,
        );
        state = thermal.step_crank_nicolson(state, step.battery_heat, action.inlet, dt);
    }
    Run {
        rollouts: mpc.rollouts(),
        gradient_evals,
        decision_hash,
    }
}

/// The pinned decision hash, and every gradient reused the accepted
/// trial's tape: 2693 is the count with one taped forward pass per
/// gradient on top of the line-search trials.
#[test]
fn adjoint_gradients_reuse_the_accepted_trial_tape() {
    let r = run();
    assert_eq!(
        r.decision_hash, 0x63e6_f0a3_724c_f5ae,
        "decisions drifted: hash {:#018x}",
        r.decision_hash
    );
    assert!(r.gradient_evals > STEPS as u64, "ran no gradients");
    assert_eq!(
        r.rollouts,
        2693 - r.gradient_evals,
        "{} rollouts for {} gradient evaluations",
        r.rollouts,
        r.gradient_evals
    );
    assert_eq!(
        r.rollouts - r.gradient_evals,
        293,
        "line-search waste: {} forward passes, {} differentiated",
        r.rollouts,
        r.gradient_evals
    );
}

/// Warm-started solves per horizon in the open-loop problem below.
const REPS: usize = 8;

/// Adjoint forward passes per solve on the default system at 80 % SoC /
/// 60 % SoE and 33 °C, facing a repeating 20–60 kW load ramp over
/// `horizon` steps: one warm-up solve, then `REPS` solves of the same
/// problem from the warm start.
fn open_loop_rollouts_per_solve(horizon: usize) -> f64 {
    let config = SystemConfig::default();
    let mut hees = config.hybrid_plant().expect("hees");
    hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    let plant = MpcPlant {
        hees,
        thermal: ThermalModel::new(config.thermal_active).expect("thermal"),
        plant: CoolingPlant::new(config.plant).expect("cooling plant"),
        state: ThermalState::uniform(Kelvin::from_celsius(33.0)),
        aging: config.aging,
        soc_min: config.soc_min,
        soe_min: config.soe_min,
        battery_power_max: config.battery_power_max,
        cap_power_max: config.cap_power_max,
    };
    let loads: Vec<Watts> = (0..horizon)
        .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
        .collect();
    let dt = Seconds::new(1.0);
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        ..MpcConfig::default()
    });
    mpc.solve(&plant, &loads, dt);
    let rollouts_before = mpc.rollouts();
    for _ in 0..REPS {
        let d = mpc.solve(&plant, &loads, dt);
        assert!(d.cap_bus.value().is_finite() && d.cool_duty.is_finite());
    }
    (mpc.rollouts() - rollouts_before) as f64 / REPS as f64
}

#[test]
fn adjoint_forward_passes_per_solve_stay_horizon_independent() {
    // Finite differences need `4·horizon` rollouts per gradient (≥ 1440
    // per solve at horizon 12 with the default budget); the adjoint
    // needs at most one forward pass per gradient plus the line-search
    // trials, so `8·iterations` still separates the two by an order of
    // magnitude.
    let iterations = MpcConfig::default().solver_iterations;
    for horizon in [12, 24, 48] {
        let rollouts_per_solve = open_loop_rollouts_per_solve(horizon);
        assert!(
            rollouts_per_solve < (8 * iterations) as f64,
            "horizon {horizon}: {} rollouts/solve — the adjoint gradient is paying \
             per-coordinate rollouts (FD would need ≥ {})",
            rollouts_per_solve,
            4 * horizon * iterations
        );
    }
}

/// Span counts per phase of the traced run below. Every count is a
/// solver work counter (one `iteration` span per solver iteration, one
/// `rollout` per forward pass, one `gradient` per gradient evaluation),
/// so they are as deterministic as [`Mpc::rollouts`].
const SPAN_COUNTS: [(&str, usize); 9] = [
    ("gradient", 385),
    ("iteration", 385),
    ("line_search", 385),
    ("mpc_solve", 20),
    ("otem_step", 20),
    ("pool", 20),
    ("rollout", 958),
    ("sim_step", 20),
    ("warm_start", 20),
];

/// A span opened on some lane and not yet closed.
struct OpenSpan {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

#[test]
fn traced_otem_run_emits_a_balanced_span_stream_with_pinned_counts() {
    const TRACE_STEPS: usize = 20;
    let config = SystemConfig::stress_rig();
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let full = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    let trace = PowerTrace::new(full.dt(), full.samples()[..TRACE_STEPS].to_vec());
    let mut otem = Otem::new(&config).expect("controller");
    let sink = MemorySink::new();
    let result = Simulator::new(&config).run_with(&mut otem, &trace, &sink);
    assert_eq!(result.records.len(), TRACE_STEPS);
    let events = sink.events();
    assert!(
        events.len() < MemorySink::DEFAULT_CAPACITY,
        "the ring evicted events; the span stream is incomplete"
    );

    // Replay the stream per lane: each start must name the lane's
    // innermost open span as its parent, each end must close that
    // innermost span, and a span's direct children can never account
    // for more time than the span itself.
    let mut open: BTreeMap<u64, Vec<OpenSpan>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for event in events {
        match event {
            Event::SpanStart {
                id,
                parent,
                name,
                lane,
                t_ns,
            } => {
                let stack = open.entry(lane).or_default();
                let innermost = stack.last().map_or(0, |s| s.id);
                assert_eq!(parent, innermost, "span {id} ({name}) misnames its parent");
                stack.push(OpenSpan {
                    id,
                    name,
                    start_ns: t_ns,
                    child_ns: 0,
                });
            }
            Event::SpanEnd {
                id,
                lane,
                t_ns,
                dur_ns,
                ..
            } => {
                let stack = open.entry(lane).or_default();
                let top = stack
                    .pop()
                    .unwrap_or_else(|| panic!("span {id} closed on lane {lane} with none open"));
                assert_eq!(top.id, id, "lane {lane} closed {id} before {}", top.name);
                assert!(
                    t_ns >= top.start_ns,
                    "span {id} ({}) ends before it starts",
                    top.name
                );
                assert!(
                    top.child_ns <= dur_ns,
                    "span {id} ({}) lasted {dur_ns} ns but its children total {} ns",
                    top.name,
                    top.child_ns
                );
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur_ns;
                }
                *counts.entry(top.name).or_default() += 1;
            }
            _ => {}
        }
    }
    for (lane, stack) in &open {
        assert!(
            stack.is_empty(),
            "lane {lane} left {:?} open",
            stack.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    assert_eq!(counts.into_iter().collect::<Vec<_>>(), SPAN_COUNTS);
    assert_eq!(SPAN_COUNTS.iter().map(|(_, n)| n).sum::<usize>(), 2213);
}
