//! `fleet_mix`: a synthetic campaign (90 % reactive, 10 % OTEM) run as a
//! closed batch through `FleetEngine` on `Schedule::WorkStealing` with
//! `shards = nproc`. Loads the engine, the work-stealing pool, the trace
//! cache and the reactive plant step; the few slow MPC vehicles among
//! many fast reactive ones make scheduling and the tail matter.

use crate::report::Report;
use crate::speed::{self, Probe, REFERENCE_MS};
use crate::stats::{self, mean, median_setup, percentile, ratio, sorted, succession, SplitMix};
use crate::Args;
use otem_fleet::{
    Campaign, FleetEngine, FleetReport, Methodology, Schedule, TraceCache, VehicleSpec,
};
use otem_telemetry::{Event, Sink};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The campaign is fixed: `Campaign::synthetic(CAMPAIGN_SIZE,
/// CAMPAIGN_SEED)`. A seed-drawn campaign of this size swings its OTEM
/// count (and so its work) by about ±10 % between seeds, which would
/// drown any code change; the run seed instead sets the dispatch order.
const CAMPAIGN_SEED: u64 = 42;
/// Vehicles per campaign repetition.
const CAMPAIGN_SIZE: usize = 500;
/// Vehicles measured per `--seconds` second (fixed work: whole
/// repetitions of the campaign, ≈ 70 vehicles/s on 2 cores today).
const VEHICLES_PER_SECOND: f64 = 67.0;
/// Untimed warm-up: this many vehicles from the front of the order.
const WARMUP_VEHICLES: usize = 40;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 9;
/// A vehicle misses its limit when simulating it takes longer than
/// this per simulated second of route (100× faster than real time).
pub const LIMIT_MS_PER_STEP: f64 = 10.0;

thread_local! {
    /// The vehicle this worker thread is simulating, and since when.
    static STARTED: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

/// Times each vehicle inside the engine from its `VehicleStarted` event
/// to the flush that closes its run, per worker thread. Disabled, so the
/// engine keeps its zero-cost path (no spans).
#[derive(Default)]
struct VehicleClock {
    done: Mutex<Vec<(u64, f64)>>,
}

impl Sink for VehicleClock {
    fn record(&self, event: Event) {
        if let Event::VehicleStarted { vehicle, .. } = event {
            STARTED.set(Some((vehicle, Instant::now())));
        }
    }

    fn enabled(&self) -> bool {
        false
    }

    fn flush(&self) {
        if let Some((id, t0)) = STARTED.take() {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.done.lock().expect("clock poisoned").push((id, ms));
        }
    }
}

struct Setup {
    campaign: Campaign,
    cache: Arc<TraceCache>,
    synth_ms: Vec<f64>,
}

/// Synthesises the campaign in seeded dispatch order and fills a fresh
/// trace cache for every distinct (cycle, vehicle class) key.
fn build(seed: u64) -> Setup {
    let mut campaign = Campaign::synthetic(CAMPAIGN_SIZE, CAMPAIGN_SEED);
    SplitMix::new(seed, 2).shuffle(&mut campaign.vehicles);
    let cache = Arc::new(TraceCache::new());
    let mut keys = BTreeMap::new();
    for spec in &campaign.vehicles {
        keys.entry(format!("{:?}/{}", spec.cycle, spec.compact))
            .or_insert(spec);
    }
    let synth_ms = keys
        .values()
        .map(|spec| {
            let t0 = Instant::now();
            cache
                .trace_for(spec)
                .expect("standard cycles synthesise cleanly");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Setup {
        campaign,
        cache,
        synth_ms,
    }
}

/// One timed engine run over the campaign.
struct Rep {
    wall_s: f64,
    report: FleetReport,
    vehicle_ms: Vec<(u64, f64)>,
}

fn run_engine(engine: &FleetEngine, campaign: &Campaign) -> Rep {
    let clock = VehicleClock::default();
    let t0 = Instant::now();
    let report = engine.run_with(campaign, &clock);
    let wall_s = t0.elapsed().as_secs_f64();
    let vehicle_ms = clock.done.into_inner().expect("clock poisoned");
    Rep {
        wall_s,
        report,
        vehicle_ms,
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let shards = stats::nproc();
    let mut probe = Probe::default();
    let probe_before_ms = probe.measure_ms();
    let (setup_s, setup) = median_setup(SETUP_REPS, || build(args.seed));
    let setup_s = setup_s * REFERENCE_MS / (probe_before_ms * probe.measure_ms()).sqrt();
    // The traced run needs one untraced engine pass as its reference.
    let reps = if args.trace {
        1
    } else {
        ((args.seconds * VEHICLES_PER_SECOND / CAMPAIGN_SIZE as f64).round() as usize).max(1)
    };
    let engine =
        FleetEngine::with_cache(Schedule::WorkStealing { shards }, Arc::clone(&setup.cache));
    let campaign = &setup.campaign;
    let otem = campaign
        .vehicles
        .iter()
        .filter(|v| v.methodology == Methodology::Otem)
        .count();
    report.info(format!(
        "campaign: Campaign::synthetic({CAMPAIGN_SIZE}, {CAMPAIGN_SEED}) ({otem} OTEM), \
         dispatch order from seed {}; {reps} repetition(s); WorkStealing shards={shards} \
         (nproc={shards}); closed batch",
        args.seed
    ));

    let warm = Campaign {
        seed: campaign.seed,
        vehicles: campaign.vehicles[..WARMUP_VEHICLES.min(campaign.vehicles.len())].to_vec(),
    };
    let warm_report = engine.run(&warm);
    let hits0 = setup.cache.hits();
    let misses0 = setup.cache.misses();
    // The host's speed on every core before the first repetition and
    // after each one; each repetition is scaled to reference speed by
    // the probes on either side of it.
    let mut probes_ms = vec![speed::measure_parallel_ms(shards)];
    let runs: Vec<Rep> = (0..reps)
        .map(|_| {
            let rep = run_engine(&engine, campaign);
            probes_ms.push(speed::measure_parallel_ms(shards));
            rep
        })
        .collect();
    let scale: Vec<f64> = probes_ms
        .windows(2)
        .map(|p| REFERENCE_MS / (p[0] * p[1]).sqrt())
        .collect();
    let hits = setup.cache.hits() - hits0;
    let misses = setup.cache.misses() - misses0;

    let first = &runs[0].report;
    let same = runs.iter().all(|r| {
        r.report.summaries == first.summaries
            && r.report.fleet_checksum() == first.fleet_checksum()
            && r.report.solve_outcomes == first.solve_outcomes
    });
    report.check(
        "fleet_mix.checksum_stable_across_repetitions",
        same,
        format!(
            "fleet_checksum {:016x} over {} run(s)",
            first.fleet_checksum(),
            runs.len()
        ),
    );
    let by_id: BTreeMap<u64, _> = first.summaries.iter().map(|s| (s.id, s)).collect();
    report.check(
        "fleet_mix.warmup_summaries_equal",
        warm_report.failures.is_empty()
            && warm_report
                .summaries
                .iter()
                .all(|s| by_id.get(&s.id) == Some(&s)),
        format!("{} warm-up vehicles", warm_report.summaries.len()),
    );
    let failures: usize = runs.iter().map(|r| r.report.failures.len()).sum();
    let timed: usize = runs.iter().map(|r| r.vehicle_ms.len()).sum();
    report.check(
        "fleet_mix.every_vehicle_timed",
        timed + failures == runs.len() * campaign.vehicles.len(),
        format!("{timed} timed + {failures} failed"),
    );
    report.attempted = (runs.len() * campaign.vehicles.len()) as u64;
    report.failed = failures as u64;

    if args.trace {
        traced(report, &setup, &engine, &runs[0], shards, hits, misses);
        return;
    }

    let raw_wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let wall_s: f64 = runs.iter().zip(&scale).map(|(r, k)| r.wall_s * k).sum();
    let steps: BTreeMap<u64, usize> = campaign.vehicles.iter().map(|v| (v.id, v.steps)).collect();
    let all_ms: Vec<f64> = runs
        .iter()
        .zip(&scale)
        .flat_map(|(r, &k)| r.vehicle_ms.iter().map(move |&(_, ms)| ms * k))
        .collect();
    report.info(format!(
        "probe on {shards} threads: {} ms around the repetitions (reference {REFERENCE_MS} ms)",
        probes_ms
            .iter()
            .map(|p| format!("{p:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The limit is real time, so it is checked against wall time.
    let within = runs
        .iter()
        .flat_map(|r| &r.vehicle_ms)
        .filter(|&&(id, ms)| ms <= steps[&id] as f64 * LIMIT_MS_PER_STEP)
        .count();
    // One repetition's solves (all repetitions are checked equal above),
    // so the share does not depend on how many repetitions ran.
    let outcomes = first.solve_outcomes;
    let n = all_ms.len() as u64;
    let lat = sorted(&all_ms);
    let vehicles = report.attempted;
    report.set(
        "setup_s",
        setup_s,
        SETUP_REPS as u64,
        "median set-up: campaign + cache fill; reference speed",
    );
    report.set("peak_rss_mb", stats::peak_rss_mb(), 1, "VmHWM");
    report.set(
        "throughput_per_s",
        vehicles as f64 / wall_s,
        vehicles,
        format!(
            "{vehicles} vehicles / {wall_s:.3} s at reference speed ({raw_wall_s:.3} s wall) \
             at campaign size {CAMPAIGN_SIZE}"
        ),
    );
    report.set(
        "latency_p50_ms",
        percentile(&lat, 0.50),
        n,
        "per vehicle inside the engine, reference speed",
    );
    report.set(
        "latency_p99_ms",
        percentile(&lat, 0.99),
        n,
        "per vehicle inside the engine, reference speed",
    );
    report.set(
        "converged_share",
        succession(outcomes.converged, outcomes.total()),
        outcomes.total(),
        format!(
            "(converged+1)/(solves+2): {} of {} solves converged",
            outcomes.converged,
            outcomes.total()
        ),
    );
    let summaries = &first.summaries;
    report.set(
        "qloss_ppm",
        mean(
            &summaries
                .iter()
                .map(|s| s.capacity_loss * 1e6)
                .collect::<Vec<_>>(),
        ),
        summaries.len() as u64,
        "mean capacity loss per vehicle",
    );
    report.set(
        "energy_mj",
        mean(
            &summaries
                .iter()
                .map(|s| s.energy_j / 1e6)
                .collect::<Vec<_>>(),
        ),
        summaries.len() as u64,
        "mean HEES energy per vehicle",
    );
    report.set(
        "slo_share",
        ratio(within as f64, vehicles as f64),
        vehicles,
        format!("{within} of {vehicles} vehicles within {LIMIT_MS_PER_STEP} ms per route step"),
    );
}

/// The traced run: a serial pass over the same campaign timing
/// `FleetEngine::run_vehicle` per spec, checked bit-equal against the
/// engine's summaries.
fn traced(
    report: &mut Report,
    setup: &Setup,
    engine: &FleetEngine,
    untraced: &Rep,
    shards: usize,
    hits: u64,
    misses: u64,
) {
    let specs: &[VehicleSpec] = &setup.campaign.vehicles;
    let mut otem_ms = Vec::new();
    let mut reactive_ms = Vec::new();
    let mut equal = 0usize;
    let t0 = Instant::now();
    for (spec, expected) in specs.iter().zip(&untraced.report.summaries) {
        let t = Instant::now();
        let summary = engine.run_vehicle(spec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if summary.as_ref().ok() == Some(expected) {
            equal += 1;
        }
        if spec.methodology == Methodology::Otem {
            otem_ms.push(ms);
        } else {
            reactive_ms.push(ms);
        }
    }
    let traced_wall_s = t0.elapsed().as_secs_f64();
    report.check(
        "fleet_mix.serial_summaries_equal_engine",
        equal == specs.len() && untraced.report.summaries.len() == specs.len(),
        format!("{equal} of {} per-vehicle summaries bit-equal", specs.len()),
    );
    let all: Vec<f64> = otem_ms.iter().chain(&reactive_ms).copied().collect();
    let total_s = all.iter().sum::<f64>() / 1e3;
    let otem_s = otem_ms.iter().sum::<f64>() / 1e3;
    let lat = sorted(&all);
    let n = all.len() as u64;
    let capacity_s = untraced.wall_s * shards as f64;
    let busy = total_s / capacity_s;
    report.info(format!(
        "untraced engine wall {:.3} s × {shards} shards; serial pass {traced_wall_s:.3} s, \
         Σ vehicle {total_s:.3} s",
        untraced.wall_s
    ));
    report.set(
        "fleet.engine.vehicle_ms_p50",
        percentile(&lat, 0.5),
        n,
        "FleetEngine::run_vehicle",
    );
    report.set(
        "fleet.engine.vehicle_ms_p99",
        percentile(&lat, 0.99),
        n,
        "FleetEngine::run_vehicle",
    );
    report.set(
        "fleet.engine.otem_vehicle_ms_mean",
        mean(&otem_ms),
        otem_ms.len() as u64,
        "OTEM vehicles",
    );
    report.set(
        "fleet.engine.reactive_vehicle_ms_mean",
        mean(&reactive_ms),
        reactive_ms.len() as u64,
        "parallel / active_cooling / dual vehicles",
    );
    report.set(
        "fleet.engine.otem_time_share",
        otem_s / total_s,
        n,
        format!("{otem_s:.3} s OTEM / {total_s:.3} s all vehicles"),
    );
    report.set(
        "fleet.engine.busy_share",
        busy,
        n,
        format!(
            "Σ vehicle {total_s:.3} s / ({:.3} s wall × {shards} shards)",
            untraced.wall_s
        ),
    );
    report.set(
        "fleet.engine.failures",
        untraced.report.failures.len() as f64,
        n,
        "FleetReport::failures",
    );
    report.set(
        "trace.residual_share",
        1.0 - busy,
        n,
        "engine capacity (wall × shards) not covered by vehicle time",
    );
    report.set(
        "telemetry.trace_overhead_share",
        traced_wall_s / total_s - 1.0,
        n,
        format!("serial pass {traced_wall_s:.3} s / Σ timed vehicles {total_s:.3} s"),
    );
    report.set(
        "fleet.cache.hits",
        hits as f64,
        n,
        "TraceCache lookups served, engine run",
    );
    report.set(
        "fleet.cache.misses",
        misses as f64,
        n,
        "TraceCache syntheses, engine run",
    );
    report.set(
        "drivecycle.synth_ms",
        mean(&setup.synth_ms),
        setup.synth_ms.len() as u64,
        "cold TraceCache::trace_for per (cycle, class) key",
    );
    let o = untraced.report.solve_outcomes;
    for (name, count) in [
        ("solver.outcome.converged", o.converged),
        ("solver.outcome.budget_exhausted", o.budget_exhausted),
        ("solver.outcome.stalled", o.stalled),
        ("solver.outcome.deadline_reached", o.deadline_reached),
        ("solver.outcome.non_finite", o.non_finite),
    ] {
        report.set(
            name,
            count as f64,
            o.total(),
            format!("of {} engine solves", o.total()),
        );
    }
}
