//! The metric catalogue (kept in step with `BENCHMARK.json`) and the
//! result printer: a human table, then the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("converged_share", "ratio"),
    ("qloss_ppm", "ppm"),
    ("energy_mj", "MJ"),
    ("slo_share", "ratio"),
];

/// Per-layer metrics: `(name, unit, what it should move)`. A traced run
/// reports all of them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "core.mpc.plan_ms_p50",
        "ms",
        "mpc_loop throughput/p50; fleet_mix throughput",
    ),
    ("core.mpc.plan_ms_p99", "ms", "mpc_loop latency_p99_ms"),
    ("core.mpc.plan_share", "ratio", "mpc_loop throughput"),
    (
        "solver.iterations_per_solve",
        "count",
        "mpc_loop throughput, converged_share",
    ),
    (
        "solver.rollouts_per_solve",
        "count",
        "mpc_loop + fleet_mix throughput",
    ),
    (
        "solver.rollouts_per_iteration",
        "count",
        "mpc_loop throughput (line-search waste)",
    ),
    (
        "solver.gradient_share",
        "ratio",
        "mpc_loop + fleet_mix throughput",
    ),
    (
        "solver.line_search_share",
        "ratio",
        "mpc_loop + fleet_mix throughput",
    ),
    (
        "solver.rollout_self_share",
        "ratio",
        "mpc_loop + fleet_mix throughput",
    ),
    (
        "solver.outcome.converged",
        "count",
        "converged_share, qloss_ppm",
    ),
    (
        "solver.outcome.budget_exhausted",
        "count",
        "converged_share, qloss_ppm",
    ),
    (
        "solver.outcome.stalled",
        "count",
        "converged_share, qloss_ppm",
    ),
    (
        "solver.outcome.deadline_reached",
        "count",
        "converged_share, qloss_ppm",
    ),
    (
        "solver.outcome.non_finite",
        "count",
        "converged_share, qloss_ppm",
    ),
    (
        "hees.apply_us_p50",
        "us",
        "serve_mix p50; fleet_mix throughput; all",
    ),
    (
        "hees.apply_share",
        "ratio",
        "serve_mix p50; fleet_mix throughput; all",
    ),
    ("fleet.engine.vehicle_ms_p50", "ms", "fleet_mix throughput"),
    ("fleet.engine.vehicle_ms_p99", "ms", "fleet_mix throughput"),
    (
        "fleet.engine.otem_vehicle_ms_mean",
        "ms",
        "fleet_mix throughput",
    ),
    (
        "fleet.engine.reactive_vehicle_ms_mean",
        "ms",
        "fleet_mix throughput",
    ),
    (
        "fleet.engine.otem_time_share",
        "ratio",
        "fleet_mix throughput",
    ),
    ("fleet.engine.busy_share", "ratio", "fleet_mix throughput"),
    ("fleet.engine.failures", "count", "fleet_mix throughput"),
    ("fleet.cache.hits", "count", "fleet_mix + serve_mix setup_s"),
    (
        "fleet.cache.misses",
        "count",
        "fleet_mix + serve_mix setup_s",
    ),
    ("drivecycle.synth_ms", "ms", "fleet_mix + serve_mix setup_s"),
    (
        "fleet.server.latency_ms_mean.simulate",
        "ms",
        "serve_mix p50/p99/slo_share",
    ),
    (
        "fleet.server.latency_ms_mean.healthz",
        "ms",
        "serve_mix p50/p99/slo_share",
    ),
    (
        "fleet.server.latency_ms_mean.metrics",
        "ms",
        "serve_mix p50/p99/slo_share",
    ),
    (
        "fleet.server.transport_ms_mean",
        "ms",
        "serve_mix p50/p99/slo_share",
    ),
    (
        "fleet.server.compute_share",
        "ratio",
        "serve_mix p50/p99/slo_share",
    ),
    (
        "fleet.protocol.response_bytes.summary",
        "bytes",
        "serve_mix p50/p99",
    ),
    (
        "fleet.protocol.response_bytes.jsonl",
        "bytes",
        "serve_mix p99",
    ),
    ("fleet.protocol.parse_us", "us", "serve_mix p50/p99"),
    (
        "telemetry.jsonl_lines_per_request",
        "count",
        "serve_mix p99",
    ),
    ("fleet.server.shed", "count", "serve_mix slo_share"),
    ("fleet.server.timeouts", "count", "serve_mix slo_share"),
    ("fleet.server.errors", "count", "serve_mix slo_share"),
    ("gen.sent", "count", "serve_mix throughput"),
    ("gen.ok", "count", "serve_mix throughput, slo_share"),
    ("gen.failed", "count", "serve_mix slo_share"),
    (
        "gen.lateness_ms_p99",
        "ms",
        "serve_mix p99 (generator, not server)",
    ),
    (
        "telemetry.trace_overhead_share",
        "ratio",
        "none (trace cost)",
    ),
    (
        "trace.residual_share",
        "ratio",
        "none (wall not covered by a layer)",
    ),
];

/// One reported value with its sample count and the base counts behind
/// it (printed in the table, not in the JSON).
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    samples: u64,
    note: String,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Report {
    workload: String,
    trace: bool,
    header: Vec<String>,
    values: BTreeMap<&'static str, Value>,
    checks: Vec<(String, bool, String)>,
    /// Operations attempted (decisions, vehicles or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, trace: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            trace,
            header: Vec::new(),
            values: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds a free-form line to the printed header (inputs, sizes, nproc).
    pub fn info(&mut self, line: impl Into<String>) {
        self.header.push(line.into());
    }

    /// Records metric `name` (which must be in the catalogue of this
    /// run's kind) measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64, note: impl Into<String>) {
        assert!(
            self.catalogue().any(|(n, _)| n == name),
            "metric {name} is not in the {} catalogue",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.values.insert(
            name,
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// Records an output check; a failed check makes the run fail.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    fn catalogue(&self) -> Box<dyn Iterator<Item = (&'static str, &'static str)>> {
        if self.trace {
            Box::new(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        } else {
            Box::new(END_TO_END.iter().copied())
        }
    }

    /// Fills every catalogue metric this workload does not measure with 0
    /// ("layer not entered"). Only per-layer metrics may be left unset.
    fn fill_unentered_layers(&mut self) {
        if !self.trace {
            return;
        }
        for (name, _, _) in PER_LAYER {
            self.values.entry(name).or_insert(Value {
                value: 0.0,
                samples: 0,
                note: "layer not entered by this workload".into(),
            });
        }
    }

    /// Prints the table and the JSON result line; returns whether every
    /// check passed and every metric is present and finite.
    pub fn print(mut self) -> bool {
        self.fill_unentered_layers();
        let mut correct = true;
        for (name, _) in self.catalogue() {
            match self.values.get(name) {
                Some(v) if v.value.is_finite() => {}
                Some(_) => {
                    self.checks
                        .push((format!("{name} finite"), false, "non-finite value".into()));
                }
                None => {
                    self.checks
                        .push((format!("{name} reported"), false, "missing".into()));
                }
            }
        }
        println!(
            "# workload {} ({} run)",
            self.workload,
            if self.trace {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            }
        );
        for line in &self.header {
            println!("#   {line}");
        }
        let moves: BTreeMap<&str, &str> = PER_LAYER.iter().map(|&(n, _, m)| (n, m)).collect();
        for (name, unit) in self.catalogue() {
            if let Some(v) = self.values.get(name) {
                let mut row = format!("{name:<40} {:>14.6} {unit:<6} n={:<7}", v.value, v.samples);
                if !v.note.is_empty() {
                    let _ = write!(row, " {}", v.note);
                }
                if let Some(m) = moves.get(name) {
                    let _ = write!(row, "  [moves: {m}]");
                }
                println!("{row}");
            }
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {:<44} {} {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
            correct &= ok;
        }
        let mut json = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in self.catalogue() {
            if let Some(v) = self.values.get(name) {
                if !first {
                    json.push(',');
                }
                first = false;
                let value = if v.value.is_finite() { v.value } else { 0.0 };
                let _ = write!(
                    json,
                    "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}
