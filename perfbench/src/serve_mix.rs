//! `serve_mix`: an in-process `FleetServer` on loopback with
//! `workers = nproc`, driven open loop at a fixed offered rate over at
//! most `nproc` connections. Mostly single-vehicle reactive `/simulate`
//! summaries, a share of the same requests streaming `"telemetry":"jsonl"`,
//! occasional `GET /healthz` and a rare `GET /metrics` scrape. The serving
//! layer dominates; the solver never runs.

use crate::report::Report;
use crate::stats::{self, mean, median_setup, percentile, ratio, sorted, succession, SplitMix};
use crate::Args;
use otem_drivecycle::StandardCycle;
use otem_fleet::protocol::{cycle_wire_name, json_f64, summary_line, SimulateRequest, Telemetry};
use otem_fleet::{FleetEngine, FleetServer, Schedule, ServerConfig, ServerHandle, TraceCache};
use otem_telemetry::promparse::{validate_exposition, ParsedExposition};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load, requests per second — below the knee on a 2-core box.
pub const OFFERED_RATE: f64 = 100.0;
/// Share of `--seconds` spent in the measured window.
const WINDOW_SHARE: f64 = 0.8;
/// A request meets its limit when it returns 200 within this many ms of
/// when it was due.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Traffic mix per block of `MIX_BLOCK` requests. Summaries of long
/// routes are the slow mode (5 %): p99 falls near its 80th percentile,
/// set by route length rather than by scheduler delays of a few ms, and
/// p50 falls well inside the short-summary mode (73.5 %). The jsonl
/// streams (15 %) are the write-heavy use of the same layer.
const MIX_BLOCK: usize = 200;
const MIX_HEALTHZ: usize = 12;
const MIX_METRICS: usize = 1;
const MIX_JSONL: usize = 30;
const MIX_LONG: usize = 10;
/// Route lengths (control periods) of summary, jsonl and long requests.
const SUMMARY_STEPS: (f64, f64) = (60.0, 480.0);
const JSONL_STEPS: (f64, f64) = (60.0, 240.0);
const LONG_STEPS: (f64, f64) = (50_000.0, 100_000.0);
/// Untimed warm-up: this many seconds of the same traffic.
const WARMUP_S: f64 = 2.0;
/// Idle time before set-up. On a shared 2-core VM, small-request latency
/// stays about 2× higher after a CPU-heavy process (such as a
/// `fleet_mix` run) until the cores have idled for ~10 s — traffic does
/// not clear it — so without this pause p50 would depend on what ran
/// before.
const SETTLE_S: f64 = 12.0;
/// Set-up repetitions (spawn, health check, cache warm); median reported.
const SETUP_REPS: usize = 7;
const METHODOLOGIES: [&str; 3] = ["parallel", "active_cooling", "dual"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Healthz,
    Metrics,
    Summary,
    Long,
    Jsonl,
}

impl Kind {
    fn is_simulate(self) -> bool {
        matches!(self, Kind::Summary | Kind::Long | Kind::Jsonl)
    }
}

/// One planned request: its kind, raw HTTP bytes and (for `/simulate`)
/// its JSON body.
struct Planned {
    kind: Kind,
    wire: Vec<u8>,
    body: String,
}

fn http(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(kind: Kind, path: &str) -> Planned {
    Planned {
        kind,
        wire: http("GET", path, ""),
        body: String::new(),
    }
}

fn simulate(kind: Kind, body: String) -> Planned {
    Planned {
        kind,
        wire: http("POST", "/simulate", &body),
        body,
    }
}

/// Stratified vehicle parameters: every block of `STRATA` draws covers
/// each (cycle, vehicle class) pair once and each twelfth of the step,
/// ambient and capacitance ranges once, in seeded order. The seed varies
/// the requests while the mix's statistics stay put, so two seeds
/// measure the same workload.
struct Strata {
    rng: SplitMix,
    perms: Vec<[usize; STRATA]>,
    next: usize,
}

const STRATA: usize = 2 * StandardCycle::ALL.len();

impl Strata {
    fn new(rng: SplitMix) -> Self {
        Self {
            rng,
            perms: Vec::new(),
            next: STRATA,
        }
    }

    /// The next vehicle's JSON fields (no braces), with `steps` drawn
    /// from `steps_lo..=steps_hi`.
    fn fields(&mut self, steps_lo: f64, steps_hi: f64) -> String {
        if self.next == STRATA {
            self.perms = (0..5)
                .map(|_| {
                    let mut p: [usize; STRATA] = std::array::from_fn(|i| i);
                    self.rng.shuffle(&mut p);
                    p
                })
                .collect();
            self.next = 0;
        }
        let j = self.next;
        self.next += 1;
        let mut within = |k: usize| (self.perms[k][j] as f64 + self.rng.unit()) / STRATA as f64;
        let combo = self.perms[0][j];
        let steps = steps_lo + (steps_hi - steps_lo) * within(1);
        let ambient_c = 15.0 + 20.0 * within(2);
        let capacitance_f = 5_000.0 + 20_000.0 * within(3);
        format!(
            "\"cycle\":\"{}\",\"methodology\":\"{}\",\"steps\":{},\"compact\":{},\
             \"ambient_c\":{ambient_c:.1},\"capacitance_f\":{capacitance_f:.0}",
            cycle_wire_name(StandardCycle::ALL[combo / 2]),
            METHODOLOGIES[self.perms[4][j] % METHODOLOGIES.len()],
            steps.round(),
            combo % 2 == 1,
        )
    }
}

/// The seeded request mix: blocks of `MIX_BLOCK` requests, each with a
/// fixed count of every kind in seeded positions.
fn plan(seed: u64, salt: u64, n: usize) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed, salt);
    let mut summary = Strata::new(SplitMix::new(seed, salt + 100));
    let mut jsonl = Strata::new(SplitMix::new(seed, salt + 200));
    let mut long = Strata::new(SplitMix::new(seed, salt + 300));
    let mut block = Vec::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if block.is_empty() {
            block.extend(std::iter::repeat_n(Kind::Healthz, MIX_HEALTHZ));
            block.extend(std::iter::repeat_n(Kind::Metrics, MIX_METRICS));
            block.extend(std::iter::repeat_n(Kind::Jsonl, MIX_JSONL));
            block.extend(std::iter::repeat_n(Kind::Long, MIX_LONG));
            block.resize(MIX_BLOCK, Kind::Summary);
            rng.shuffle(&mut block);
        }
        let id = out.len();
        out.push(match block.pop().expect("refilled above") {
            Kind::Healthz => get(Kind::Healthz, "/healthz"),
            Kind::Metrics => get(Kind::Metrics, "/metrics"),
            Kind::Summary => {
                let body = format!(
                    "{{\"id\":{id},{}}}",
                    summary.fields(SUMMARY_STEPS.0, SUMMARY_STEPS.1)
                );
                simulate(Kind::Summary, body)
            }
            Kind::Long => {
                let body = format!(
                    "{{\"id\":{id},{}}}",
                    long.fields(LONG_STEPS.0, LONG_STEPS.1)
                );
                simulate(Kind::Long, body)
            }
            Kind::Jsonl => {
                let body = format!(
                    "{{\"id\":{id},{},\"telemetry\":\"jsonl\"}}",
                    jsonl.fields(JSONL_STEPS.0, JSONL_STEPS.1)
                );
                simulate(Kind::Jsonl, body)
            }
        });
    }
    out
}

/// What one request returned.
#[derive(Debug, Default, Clone)]
struct Outcome {
    /// HTTP status; 0 on an I/O error.
    status: u16,
    latency_ms: f64,
    lateness_ms: f64,
    body_bytes: usize,
    lines: usize,
    step_lines: usize,
    /// Last body line (the summary line of a `/simulate`).
    last_line: String,
}

/// One request on a fresh connection (the server closes after each
/// response); the whole response is read into `buf`.
fn exchange(addr: SocketAddr, wire: &[u8], buf: &mut Vec<u8>) -> io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(wire)?;
    buf.clear();
    stream.read_to_end(buf)?;
    buf.get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "not an HTTP response"))
}

/// Splits a response into body statistics.
fn digest(buf: &[u8], outcome: &mut Outcome) {
    let body = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&buf[buf.len()..], |at| &buf[at + 4..]);
    outcome.body_bytes = body.len();
    let mut last: &[u8] = &[];
    for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        outcome.lines += 1;
        if line.starts_with(b"{\"event\":\"step_completed\"") {
            outcome.step_lines += 1;
        }
        last = line;
    }
    outcome.last_line = String::from_utf8_lossy(last).into_owned();
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives `plan` open loop: request `i` is due `i / rate` seconds after
/// the start, and `conns` connection threads each take the next due
/// request as soon as they are free. Latency counts from when a request
/// was due, so a stall also charges the requests queued behind it.
fn drive(addr: SocketAddr, plan: &[Planned], rate: f64, conns: usize) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let mut last_done = start;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut buf = Vec::with_capacity(1 << 20);
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.len() {
                            return mine;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        let status = exchange(addr, &plan[i].wire, &mut buf).unwrap_or(0);
                        let done = Instant::now();
                        let mut outcome = Outcome {
                            status,
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            lateness_ms: (sent - due).as_secs_f64() * 1e3,
                            ..Outcome::default()
                        };
                        digest(&buf, &mut outcome);
                        mine.push((i, outcome, done));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, outcome, done) in worker.join().expect("connection thread panicked") {
                outcomes[i] = outcome;
                last_done = last_done.max(done);
            }
        }
    });
    (outcomes, (last_done - start).as_secs_f64())
}

fn scrape(addr: SocketAddr) -> Option<ParsedExposition> {
    let mut buf = Vec::new();
    let status = exchange(addr, &http("GET", "/metrics", ""), &mut buf).ok()?;
    let at = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    (status == 200)
        .then(|| validate_exposition(std::str::from_utf8(&buf[at..]).ok()?).ok())
        .flatten()
}

fn sample(m: &ParsedExposition, name: &str, labels: &[(&str, &str)]) -> f64 {
    m.sample(name, labels).map_or(0.0, |s| s.value)
}

/// Spawns the server and waits until `/healthz` answers, then warms its
/// trace cache with one short `/simulate` per (cycle, vehicle class).
fn start_server(nproc: usize) -> ServerHandle {
    let handle = FleetServer::new(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: nproc,
        shards: nproc,
        ..Default::default()
    })
    .spawn()
    .expect("bind a loopback port");
    let mut buf = Vec::new();
    let healthz = http("GET", "/healthz", "");
    let deadline = Instant::now() + Duration::from_secs(10);
    while exchange(handle.addr(), &healthz, &mut buf).ok() != Some(200) {
        assert!(Instant::now() < deadline, "server never answered /healthz");
        std::thread::sleep(Duration::from_millis(1));
    }
    for cycle in StandardCycle::ALL {
        for compact in [false, true] {
            let body = format!(
                "{{\"cycle\":\"{}\",\"methodology\":\"parallel\",\"steps\":1,\"compact\":{compact}}}",
                cycle_wire_name(cycle)
            );
            let status = exchange(handle.addr(), &http("POST", "/simulate", &body), &mut buf).ok();
            assert_eq!(status, Some(200), "cache warm-up request failed");
        }
    }
    handle
}

/// Output checks over one window: every `/simulate` summary line must
/// equal the in-process engine's for the same spec, and every jsonl
/// stream must carry one step event per step. Returns the in-process
/// compute time (s) and the number of mismatches.
fn verify(plan: &[Planned], outcomes: &[Outcome]) -> (f64, usize, usize) {
    let engine = FleetEngine::new(Schedule::Serial);
    let mut compute_s = 0.0;
    let mut bad = 0;
    let mut checked = 0;
    for (p, o) in plan.iter().zip(outcomes) {
        if !p.kind.is_simulate() || o.status != 200 {
            continue;
        }
        checked += 1;
        let Ok(SimulateRequest::Vehicle { spec, telemetry }) = SimulateRequest::parse(&p.body)
        else {
            bad += 1;
            continue;
        };
        let t0 = Instant::now();
        let expected = engine.run_vehicle(&spec);
        compute_s += t0.elapsed().as_secs_f64();
        let lines_ok = match telemetry {
            Telemetry::Jsonl => o.step_lines == spec.steps,
            _ => o.lines == 1,
        };
        if !lines_ok || expected.map(|s| summary_line(&s)).ok().as_deref() != Some(&o.last_line) {
            bad += 1;
        }
    }
    (compute_s, bad, checked)
}

pub fn run(args: &Args, report: &mut Report) {
    let nproc = stats::nproc();
    let n = ((args.seconds * WINDOW_SHARE * OFFERED_RATE).round() as usize).max(1);
    std::thread::sleep(Duration::from_secs_f64(SETTLE_S));
    let (setup_s, mut server) = median_setup(SETUP_REPS, || start_server(nproc));
    let addr = server.addr();
    let traffic = plan(args.seed, 3, n);
    report.info(format!(
        "open loop: {n} requests at {OFFERED_RATE} req/s over ≤{nproc} connections, \
         server workers={nproc} (nproc={nproc}); stratified mix from seed {}, per \
         {MIX_BLOCK} requests: {MIX_HEALTHZ} healthz, {MIX_METRICS} metrics, {MIX_JSONL} \
         jsonl, {MIX_LONG} long-route, rest summary; p99 limit {P99_LIMIT_MS} ms",
        args.seed,
    ));
    let warmup = (WARMUP_S * OFFERED_RATE) as usize;
    drive(addr, &plan(args.seed, 4, warmup), OFFERED_RATE, nproc);

    let shed0 = server.shed();
    let (outcomes, wall_s) = drive(addr, &traffic, OFFERED_RATE, nproc);
    let shed = server.shed() - shed0;
    let (_, mut bad, mut checked) = verify(&traffic, &outcomes);
    let ok = outcomes.iter().filter(|o| o.status == 200).count();
    report.attempted = n as u64;
    report.failed = (n - ok) as u64;

    if args.trace {
        let m0 = scrape(addr);
        let before = (server.shed(), server.timeouts(), server.errors());
        let (traced, traced_wall_s) = drive(addr, &traffic, OFFERED_RATE, nproc);
        let after = (server.shed(), server.timeouts(), server.errors());
        let m1 = scrape(addr);
        let (compute_s, traced_bad, traced_checked) = verify(&traffic, &traced);
        bad += traced_bad;
        checked += traced_checked;
        report.check(
            "serve_mix.metrics_scrapes_valid",
            m0.is_some() && m1.is_some(),
            "/metrics parses as Prometheus text",
        );
        if let (Some(m0), Some(m1)) = (m0, m1) {
            layers(
                report,
                &traffic,
                &outcomes,
                &traced,
                traced_wall_s,
                &m0,
                &m1,
                compute_s,
                before,
                after,
            );
        }
    } else {
        let solves = scrape(addr).map_or(0.0, |m| {
            m.families
                .get("otem_solve_outcome_total")
                .map_or(0.0, |f| f.samples.iter().map(|s| s.value).sum())
        });
        for (label, kind) in [
            ("summary", Kind::Summary),
            ("long", Kind::Long),
            ("jsonl", Kind::Jsonl),
            ("healthz", Kind::Healthz),
            ("metrics", Kind::Metrics),
        ] {
            let l = sorted(
                &traffic
                    .iter()
                    .zip(&outcomes)
                    .filter(|(p, _)| p.kind == kind)
                    .map(|(_, o)| o.latency_ms)
                    .collect::<Vec<_>>(),
            );
            report.info(format!(
                "mode {label}: n={} p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms",
                l.len(),
                percentile(&l, 0.5),
                percentile(&l, 0.9),
                percentile(&l, 0.99)
            ));
        }
        let lat = sorted(&outcomes.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
        let within = outcomes
            .iter()
            .filter(|o| o.status == 200 && o.latency_ms <= P99_LIMIT_MS)
            .count();
        // Long routes run the pack flat; they probe latency, not quality.
        let summaries: Vec<&str> = traffic
            .iter()
            .zip(&outcomes)
            .filter(|(p, o)| matches!(p.kind, Kind::Summary | Kind::Jsonl) && o.status == 200)
            .map(|(_, o)| o.last_line.as_str())
            .collect();
        let field = |key: &str, scale: f64| {
            mean(
                &summaries
                    .iter()
                    .filter_map(|l| json_f64(l, key))
                    .map(|v| v * scale)
                    .collect::<Vec<_>>(),
            )
        };
        report.set(
            "setup_s",
            setup_s,
            SETUP_REPS as u64,
            "median: spawn, /healthz, cache warm",
        );
        report.set(
            "peak_rss_mb",
            stats::peak_rss_mb(),
            1,
            "VmHWM (server and client)",
        );
        report.set(
            "throughput_per_s",
            ok as f64 / wall_s,
            n as u64,
            format!("{ok} completed / {wall_s:.3} s at {OFFERED_RATE} req/s offered"),
        );
        report.set(
            "latency_p50_ms",
            percentile(&lat, 0.50),
            n as u64,
            "per request, from due",
        );
        report.set(
            "latency_p99_ms",
            percentile(&lat, 0.99),
            n as u64,
            "per request, from due",
        );
        report.set(
            "converged_share",
            succession(0, solves as u64),
            solves as u64,
            format!("(converged+1)/(solves+2): {solves} solves (reactive traffic)"),
        );
        report.set(
            "qloss_ppm",
            field("capacity_loss", 1e6),
            summaries.len() as u64,
            "mean capacity loss per served summary/jsonl vehicle",
        );
        report.set(
            "energy_mj",
            field("energy_j", 1e-6),
            summaries.len() as u64,
            "mean HEES energy per served summary/jsonl vehicle",
        );
        report.set(
            "slo_share",
            ratio(within as f64, n as f64),
            n as u64,
            format!("{within} of {n} sent returned 200 within {P99_LIMIT_MS} ms ({shed} shed)"),
        );
    }
    report.check(
        "serve_mix.summaries_equal_in_process",
        bad == 0,
        format!(
            "{bad} of {checked} /simulate responses differ from run_vehicle or miss step events"
        ),
    );
    server.shutdown();
}

#[allow(clippy::too_many_arguments)]
fn layers(
    report: &mut Report,
    traffic: &[Planned],
    untraced: &[Outcome],
    traced: &[Outcome],
    wall_s: f64,
    m0: &ParsedExposition,
    m1: &ParsedExposition,
    compute_s: f64,
    before: (u64, u64, u64),
    after: (u64, u64, u64),
) {
    let delta =
        |name: &str, labels: &[(&str, &str)]| sample(m1, name, labels) - sample(m0, name, labels);
    let server_mean_ms = |route: &str| {
        let l = [("route", route)];
        let count = delta("otem_request_latency_seconds_count", &l);
        (
            ratio(delta("otem_request_latency_seconds_sum", &l) * 1e3, count),
            count as u64,
        )
    };
    let of = |outcomes: &[Outcome], kinds: &[Kind]| -> Vec<Outcome> {
        traffic
            .iter()
            .zip(outcomes)
            .filter(|(p, _)| kinds.contains(&p.kind))
            .map(|(_, o)| o.clone())
            .collect()
    };
    let sims = of(traced, &[Kind::Summary, Kind::Long, Kind::Jsonl]);
    let client_sim_ms = mean(&sims.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    let untraced_sim_ms = mean(
        &of(untraced, &[Kind::Summary, Kind::Long, Kind::Jsonl])
            .iter()
            .map(|o| o.latency_ms)
            .collect::<Vec<_>>(),
    );
    let (sim_ms, sim_n) = server_mean_ms("/simulate");
    for (name, route) in [
        ("fleet.server.latency_ms_mean.simulate", "/simulate"),
        ("fleet.server.latency_ms_mean.healthz", "/healthz"),
        ("fleet.server.latency_ms_mean.metrics", "/metrics"),
    ] {
        let (ms, count) = server_mean_ms(route);
        report.set(
            name,
            ms,
            count,
            "Δsum/Δcount of otem_request_latency_seconds, queue wait included",
        );
    }
    report.set(
        "fleet.server.transport_ms_mean",
        client_sim_ms - sim_ms,
        sims.len() as u64,
        format!("client {client_sim_ms:.3} ms − server {sim_ms:.3} ms per /simulate"),
    );
    let server_s = sim_ms * sim_n as f64 / 1e3;
    report.set(
        "fleet.server.compute_share",
        ratio(compute_s, server_s),
        sim_n,
        format!("{compute_s:.3} s in-process run_vehicle / {server_s:.3} s server /simulate time"),
    );
    report.set(
        "trace.residual_share",
        ratio(client_sim_ms - sim_ms, client_sim_ms),
        sims.len() as u64,
        "client /simulate latency not covered by server time (transport, client)",
    );
    for (name, kind) in [
        ("fleet.protocol.response_bytes.summary", Kind::Summary),
        ("fleet.protocol.response_bytes.jsonl", Kind::Jsonl),
    ] {
        let o = of(traced, &[kind]);
        report.set(
            name,
            mean(&o.iter().map(|o| o.body_bytes as f64).collect::<Vec<_>>()),
            o.len() as u64,
            "mean response body bytes",
        );
    }
    let jsonl = of(traced, &[Kind::Jsonl]);
    report.set(
        "telemetry.jsonl_lines_per_request",
        mean(&jsonl.iter().map(|o| o.lines as f64).collect::<Vec<_>>()),
        jsonl.len() as u64,
        format!(
            "{} lines over {} jsonl responses",
            jsonl.iter().map(|o| o.lines).sum::<usize>(),
            jsonl.len()
        ),
    );
    let bodies: Vec<&str> = traffic
        .iter()
        .filter(|p| p.kind.is_simulate())
        .map(|p| p.body.as_str())
        .collect();
    let t0 = Instant::now();
    for body in &bodies {
        std::hint::black_box(SimulateRequest::parse(std::hint::black_box(body)).is_ok());
    }
    report.set(
        "fleet.protocol.parse_us",
        t0.elapsed().as_secs_f64() * 1e6 / bodies.len().max(1) as f64,
        bodies.len() as u64,
        "SimulateRequest::parse over the window's bodies",
    );
    for (i, name) in [
        "fleet.server.shed",
        "fleet.server.timeouts",
        "fleet.server.errors",
    ]
    .into_iter()
    .enumerate()
    {
        let (b, a) = [
            (before.0, after.0),
            (before.1, after.1),
            (before.2, after.2),
        ][i];
        report.set(
            name,
            (a - b) as f64,
            traced.len() as u64,
            "ServerHandle counter delta",
        );
    }
    let ok = traced.iter().filter(|o| o.status == 200).count();
    let sent = traced.len();
    report.set(
        "gen.sent",
        sent as f64,
        sent as u64,
        format!("over {wall_s:.3} s"),
    );
    report.set("gen.ok", ok as f64, sent as u64, "HTTP 200");
    report.set(
        "gen.failed",
        (sent - ok) as f64,
        sent as u64,
        "non-200 or I/O error",
    );
    let late = sorted(&traced.iter().map(|o| o.lateness_ms).collect::<Vec<_>>());
    report.set(
        "gen.lateness_ms_p99",
        percentile(&late, 0.99),
        sent as u64,
        "send time − due time",
    );
    report.set(
        "fleet.cache.hits",
        delta("otem_trace_cache_hits_total", &[]),
        sent as u64,
        "server TraceCache, traced window",
    );
    report.set(
        "fleet.cache.misses",
        delta("otem_trace_cache_misses_total", &[]),
        sent as u64,
        "server TraceCache, traced window",
    );
    let cache = TraceCache::new();
    let mut synth = Vec::new();
    for p in traffic.iter().filter(|p| p.kind.is_simulate()) {
        if let Ok(SimulateRequest::Vehicle { spec, .. }) = SimulateRequest::parse(&p.body) {
            let misses = cache.misses();
            let t0 = Instant::now();
            let _ = cache.trace_for(&spec);
            if cache.misses() > misses {
                synth.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    report.set(
        "drivecycle.synth_ms",
        mean(&synth),
        synth.len() as u64,
        "cold TraceCache::trace_for per (cycle, class) key",
    );
    report.set(
        "telemetry.trace_overhead_share",
        client_sim_ms / untraced_sim_ms - 1.0,
        sims.len() as u64,
        format!("mean /simulate latency traced {client_sim_ms:.3} ms / untraced {untraced_sim_ms:.3} ms"),
    );
}
