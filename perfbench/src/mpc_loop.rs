//! `mpc_loop`: one OTEM vehicle on the stress rig driving repeated US06
//! laps in a closed loop, single-threaded, with `MpcConfig::default()`.
//! Almost all time goes to `core.mpc` → `solver` → rollout → plant; the
//! fleet engine, trace cache and server are never touched.

use crate::report::Report;
use crate::speed::{Probe, REFERENCE_MS};
use crate::stats::{self, median, median_setup, percentile, ratio, sorted, succession};
use crate::trace::LayerSink;
use crate::Args;
use otem::policy::Otem;
use otem::{Controller, Simulator, StepRecord, SystemConfig, SystemState};
use otem_drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_fleet::{OutcomeTally, SummaryBuilder, VehicleSummary};
use otem_telemetry::{NullSink, Sink};
use otem_units::{Seconds, Watts};
use std::time::Instant;

/// Closed-loop decisions measured per `--seconds` second (fixed work,
/// whole US06 laps at `--seconds 30`: 0.6–0.85 s of MPC per second at
/// today's 4.3–6 ms per decision).
const DECISIONS_PER_SECOND: usize = 140;
/// Untimed warm-up decisions on a separate controller.
const WARMUP_DECISIONS: usize = 60;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 51;
/// Decisions between two probes of the host's speed (≈ 0.1 s of work;
/// a probe takes ≈ 3 ms).
const PROBE_EVERY: usize = 25;
/// Blocks on either side whose probes also set a block's scale.
const PROBE_SMOOTH: usize = 2;
/// A decision slower than this misses its real-time limit (10 % of the
/// paper's 1 s control period).
pub const DECISION_LIMIT_MS: f64 = 100.0;

/// Everything one route needs.
struct Rig {
    config: SystemConfig,
    route: PowerTrace,
    synth_ms: f64,
}

/// Builds the stress-rig configuration and the route: `decisions`
/// samples of back-to-back US06 laps (compact EV) from the lap start.
///
/// The route takes nothing from the seed. Starting the laps at a seeded
/// offset moves the converged count between 0 and 1 of ~1800 solves and
/// `Q_loss` by ±2 %, which would swamp the change a relative bound is
/// meant to catch; on a fixed route the quality metrics repeat exactly.
fn build_rig(decisions: usize) -> Rig {
    let config = SystemConfig::stress_rig();
    let t0 = Instant::now();
    let cycle = standard(StandardCycle::Us06).expect("US06 is a built-in cycle");
    let lap = Powertrain::new(VehicleParams::compact_ev())
        .expect("compact EV parameters are valid")
        .power_trace(&cycle);
    let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
    let samples = lap
        .samples()
        .iter()
        .copied()
        .cycle()
        .take(decisions)
        .collect();
    Rig {
        config,
        route: PowerTrace::new(lap.dt(), samples),
        synth_ms,
    }
}

/// Per-decision timing of the two public halves of an OTEM step.
#[derive(Default)]
struct StepTimes {
    plan_ns: Vec<u64>,
    apply_ns: Vec<u64>,
}

/// The OTEM controller as the simulator sees it, stepping through
/// `Otem::plan_with` then `Otem::apply_with` (what `Otem::step_with`
/// composes) so every decision can be checked against its box and,
/// in the traced pass, each half timed.
struct Checked {
    otem: Otem,
    cap_max_w: f64,
    decisions: u64,
    bad: u64,
    times: Option<StepTimes>,
}

impl Checked {
    fn new(config: &SystemConfig, timed: bool) -> Self {
        Self {
            otem: Otem::new(config).expect("stress rig is a valid configuration"),
            cap_max_w: config.cap_power_max.value(),
            decisions: 0,
            bad: 0,
            times: timed.then(StepTimes::default),
        }
    }
}

impl Controller for Checked {
    fn name(&self) -> &'static str {
        "OTEM"
    }

    fn step(&mut self, load: Watts, forecast: &[Watts], dt: Seconds) -> StepRecord {
        self.step_with(load, forecast, dt, &NullSink)
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let t0 = self.times.as_ref().map(|_| Instant::now());
        let d = self.otem.plan_with(load, forecast, dt, sink);
        let t1 = t0.map(|_| Instant::now());
        self.decisions += 1;
        let cap = d.cap_bus.value();
        if !(cap.is_finite()
            && cap.abs() <= self.cap_max_w
            && (0.0..=1.0).contains(&d.cool_duty)
            && d.cost.is_finite())
        {
            self.bad += 1;
        }
        let record = self.otem.apply_with(load, d.cap_bus, d.cool_duty, dt, sink);
        if let (Some(times), Some(t0), Some(t1)) = (self.times.as_mut(), t0, t1) {
            times.plan_ns.push((t1 - t0).as_nanos() as u64);
            times.apply_ns.push(t1.elapsed().as_nanos() as u64);
        }
        record
    }

    fn state(&self) -> SystemState {
        self.otem.state()
    }
}

/// One untraced closed-loop pass, timing every decision.
struct Pass {
    /// Wall time of the decisions, probes excluded.
    wall_s: f64,
    /// Per-decision wall latency.
    raw_ms: Vec<f64>,
    /// Per-decision latency at reference speed (see [`crate::speed`]).
    latencies_ms: Vec<f64>,
    probes_ms: Vec<f64>,
    summary: VehicleSummary,
    decisions: u64,
    bad: u64,
    converged: u64,
    solves: u64,
}

/// Runs the route, probing the host's speed before the first decision
/// and after every [`PROBE_EVERY`] decisions, and scales each block of
/// decisions to reference speed.
fn untraced_pass(rig: &Rig) -> Pass {
    let sim = Simulator::new(&rig.config);
    let mut controller = Checked::new(&rig.config, false);
    let tally = OutcomeTally::new();
    let mut builder = SummaryBuilder::new(rig.config.dt);
    let mut raw_ms = Vec::with_capacity(rig.route.len());
    let mut probe = Probe::default();
    let mut probes_ms = vec![probe.measure_ms()];
    let mut cursor = sim.cursor();
    let mut wall_s = 0.0;
    loop {
        let t0 = Instant::now();
        if !cursor.advance(&mut controller, &rig.route, &tally, |_, r| builder.push(r)) {
            wall_s += t0.elapsed().as_secs_f64();
            break;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        wall_s += elapsed;
        raw_ms.push(elapsed * 1e3);
        if raw_ms.len() % PROBE_EVERY == 0 {
            probes_ms.push(probe.measure_ms());
        }
    }
    if raw_ms.len() % PROBE_EVERY != 0 {
        probes_ms.push(probe.measure_ms());
    }
    // One probe can catch a momentary hiccup; the host's busy and quiet
    // spells last seconds or more, so each block takes the median of the
    // probes within `PROBE_SMOOTH` blocks of it.
    let scale: Vec<f64> = (0..probes_ms.len() - 1)
        .map(|k| {
            let lo = k.saturating_sub(PROBE_SMOOTH);
            let hi = (k + 1 + PROBE_SMOOTH).min(probes_ms.len() - 1);
            REFERENCE_MS / median(&probes_ms[lo..=hi])
        })
        .collect();
    let latencies_ms = raw_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| ms * scale[i / PROBE_EVERY])
        .collect();
    let totals = cursor.finish(&tally);
    let outcomes = tally.snapshot();
    Pass {
        wall_s,
        raw_ms,
        latencies_ms,
        probes_ms,
        summary: builder.finish(0, totals),
        decisions: controller.decisions,
        bad: controller.bad,
        converged: outcomes.converged,
        solves: outcomes.total(),
    }
}

fn warm_up(rig: &Rig) {
    let warm = PowerTrace::new(
        rig.route.dt(),
        rig.route.samples()[..WARMUP_DECISIONS.min(rig.route.len())].to_vec(),
    );
    let mut controller = Checked::new(&rig.config, false);
    Simulator::new(&rig.config).run_each(&mut controller, &warm, &NullSink, |_, _| {});
}

fn check_pass(report: &mut Report, pass: &Pass) {
    report.check(
        "mpc_loop.decisions_finite_in_box",
        pass.bad == 0 && pass.decisions == pass.latencies_ms.len() as u64,
        format!(
            "{} of {} decisions outside their box or non-finite",
            pass.bad, pass.decisions
        ),
    );
    let s = &pass.summary;
    report.check(
        "mpc_loop.route_totals_finite",
        s.capacity_loss.is_finite()
            && s.capacity_loss > 0.0
            && s.energy_j.is_finite()
            && s.peak_temp_k.is_finite(),
        format!("Q_loss {:e}, energy {:.0} J", s.capacity_loss, s.energy_j),
    );
}

pub fn run(args: &Args, report: &mut Report) {
    let decisions = (args.seconds * DECISIONS_PER_SECOND as f64)
        .round()
        .max(1.0) as usize;
    let mut probe = Probe::default();
    let probe_before_ms = probe.measure_ms();
    let (setup_s, rig) = median_setup(SETUP_REPS, || {
        let rig = build_rig(decisions);
        let controller = Checked::new(&rig.config, false);
        let sim = Simulator::new(&rig.config);
        std::hint::black_box((&controller.otem, &sim));
        rig
    });
    let setup_s = setup_s * REFERENCE_MS / (probe_before_ms * probe.measure_ms()).sqrt();
    report.info(format!(
        "route: {decisions} decisions of US06 laps from the lap start (compact EV, \
         stress rig; the route takes nothing from the seed); 1 thread of nproc={}; \
         closed loop; times at reference speed (probe every {PROBE_EVERY} decisions)",
        stats::nproc()
    ));
    warm_up(&rig);
    let pass = untraced_pass(&rig);
    check_pass(report, &pass);
    report.attempted = pass.decisions;
    report.failed = pass.bad;

    if args.trace {
        traced(report, &rig, &pass);
        return;
    }
    let probes = sorted(&pass.probes_ms);
    report.info(format!(
        "probe: {} times, min {:.4} / median {:.4} / max {:.4} ms (reference {REFERENCE_MS} ms)",
        probes.len(),
        probes[0],
        percentile(&probes, 0.5),
        probes[probes.len() - 1]
    ));
    let raw = sorted(&pass.raw_ms);
    report.info(format!(
        "wall latency per decision: p50 {:.4} ms, p99 {:.4} ms",
        percentile(&raw, 0.5),
        percentile(&raw, 0.99)
    ));
    let n = pass.latencies_ms.len() as u64;
    let lat = sorted(&pass.latencies_ms);
    let decisions_s = lat.iter().sum::<f64>() / 1e3;
    // The limit is real time, so it is checked against wall latency.
    let within = raw.iter().filter(|&&l| l <= DECISION_LIMIT_MS).count() as u64;
    report.set(
        "setup_s",
        setup_s,
        SETUP_REPS as u64,
        "median set-up: config, route, controller; reference speed",
    );
    report.set("peak_rss_mb", stats::peak_rss_mb(), 1, "VmHWM");
    report.set(
        "throughput_per_s",
        pass.decisions as f64 / decisions_s,
        n,
        format!(
            "{} decisions / {decisions_s:.3} s at reference speed ({:.3} s wall)",
            pass.decisions, pass.wall_s
        ),
    );
    report.set(
        "latency_p50_ms",
        percentile(&lat, 0.50),
        n,
        "per decision, reference speed",
    );
    report.set(
        "latency_p99_ms",
        percentile(&lat, 0.99),
        n,
        "per decision, reference speed",
    );
    report.set(
        "converged_share",
        succession(pass.converged, pass.solves),
        pass.solves,
        format!(
            "(converged+1)/(solves+2): {} of {} solves converged",
            pass.converged, pass.solves
        ),
    );
    report.set(
        "qloss_ppm",
        pass.summary.capacity_loss * 1e6,
        1,
        "capacity loss of the route",
    );
    report.set(
        "energy_mj",
        pass.summary.energy_j / 1e6,
        1,
        "HEES energy of the route",
    );
    report.set(
        "slo_share",
        ratio(within as f64, n as f64),
        n,
        format!("{within} of {n} decisions within {DECISION_LIMIT_MS} ms"),
    );
}

/// The traced pass: the same route through `Simulator::run_each` with a
/// span-collecting sink, timing `plan_with` and `apply_with` per
/// decision.
fn traced(report: &mut Report, rig: &Rig, untraced: &Pass) {
    let sink = LayerSink::default();
    let sim = Simulator::new(&rig.config);
    let mut controller = Checked::new(&rig.config, true);
    let mut builder = SummaryBuilder::new(rig.config.dt);
    let started = Instant::now();
    let totals = sim.run_each(&mut controller, &rig.route, &sink, |_, r| builder.push(r));
    let wall_s = started.elapsed().as_secs_f64();
    let summary = builder.finish(0, totals);
    report.check(
        "mpc_loop.traced_stream_equals_untraced",
        summary == untraced.summary,
        format!(
            "record-stream FNV {:016x} traced vs {:016x} untraced",
            summary.checksum, untraced.summary.checksum
        ),
    );
    report.check(
        "mpc_loop.traced_decisions_finite_in_box",
        controller.bad == 0,
        format!("{} bad decisions", controller.bad),
    );

    let times = controller.times.take().unwrap_or_default();
    let n = times.plan_ns.len() as u64;
    let to_ms = |v: &[u64]| v.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>();
    let plan_ms = sorted(&to_ms(&times.plan_ns));
    let apply_ms = sorted(&to_ms(&times.apply_ns));
    let plan_s: f64 = plan_ms.iter().sum::<f64>() / 1e3;
    let apply_s: f64 = apply_ms.iter().sum::<f64>() / 1e3;
    let c = sink.counts();

    report.info(format!(
        "traced wall {wall_s:.3} s vs untraced {:.3} s; Σ plan {plan_s:.3} s + Σ apply {apply_s:.3} s",
        untraced.wall_s
    ));
    report.set(
        "core.mpc.plan_ms_p50",
        percentile(&plan_ms, 0.5),
        n,
        "Otem::plan_with",
    );
    report.set(
        "core.mpc.plan_ms_p99",
        percentile(&plan_ms, 0.99),
        n,
        "Otem::plan_with",
    );
    report.set(
        "core.mpc.plan_share",
        plan_s / wall_s,
        n,
        format!("{plan_s:.3} s plan / {wall_s:.3} s traced wall"),
    );
    report.set(
        "hees.apply_us_p50",
        percentile(&apply_ms, 0.5) * 1e3,
        n,
        "Otem::apply_with",
    );
    report.set(
        "hees.apply_share",
        apply_s / wall_s,
        n,
        format!("{apply_s:.4} s apply / {wall_s:.3} s traced wall"),
    );
    report.set(
        "trace.residual_share",
        (wall_s - plan_s - apply_s) / wall_s,
        n,
        "simulator loop outside plan+apply (aging, forecast window, events)",
    );
    report.set(
        "telemetry.trace_overhead_share",
        wall_s / untraced.wall_s - 1.0,
        n,
        format!("{wall_s:.3} s traced / {:.3} s untraced", untraced.wall_s),
    );
    report.set(
        "drivecycle.synth_ms",
        rig.synth_ms,
        1,
        "US06 cycle + compact-EV power trace",
    );
    solver_layers(report, &c, plan_s);
}

/// The solver-layer rows from a traced pass, shares taken of Σ plan time.
fn solver_layers(report: &mut Report, c: &crate::trace::SolverCounts, plan_s: f64) {
    let span_s = |name: &str| c.spans.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let rollout_self_s = c
        .spans
        .get("rollout")
        .map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let solves = c.solves;
    report.set(
        "solver.iterations_per_solve",
        ratio(c.iterations as f64, solves as f64),
        solves,
        format!("{} iterations / {solves} solves", c.iterations),
    );
    report.set(
        "solver.rollouts_per_solve",
        ratio(c.rollouts as f64, solves as f64),
        solves,
        format!("{} plant rollouts / {solves} solves", c.rollouts),
    );
    report.set(
        "solver.rollouts_per_iteration",
        ratio(c.line_search_rollouts as f64, c.iterations as f64),
        c.iterations,
        format!(
            "{} line-search rollouts / {} iterations",
            c.line_search_rollouts, c.iterations
        ),
    );
    for (name, span) in [
        ("solver.gradient_share", "gradient"),
        ("solver.line_search_share", "line_search"),
    ] {
        let s = span_s(span);
        report.set(
            name,
            ratio(s, plan_s),
            c.spans.get(span).map_or(0, |t| t.count),
            format!("{s:.3} s in `{span}` spans / {plan_s:.3} s plan"),
        );
    }
    report.set(
        "solver.rollout_self_share",
        ratio(rollout_self_s, plan_s),
        c.spans.get("rollout").map_or(0, |t| t.count),
        format!("{rollout_self_s:.3} s `rollout` self time / {plan_s:.3} s plan"),
    );
    for (name, outcome) in [
        ("solver.outcome.converged", "converged"),
        ("solver.outcome.budget_exhausted", "budget_exhausted"),
        ("solver.outcome.stalled", "stalled"),
        ("solver.outcome.deadline_reached", "deadline_reached"),
        ("solver.outcome.non_finite", "non_finite"),
    ] {
        let count = c.outcomes.get(outcome).copied().unwrap_or(0);
        report.set(name, count as f64, solves, format!("of {solves} solves"));
    }
}
