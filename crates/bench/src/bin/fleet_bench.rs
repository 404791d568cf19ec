//! Fleet-scale throughput benchmark: synthetic campaigns through the
//! sharded engine, plus a loopback round-trip section against the
//! serving layer. Writes `BENCH_fleet.json`.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin fleet_bench -- [flags]`
//!
//! | flag | effect |
//! |------|--------|
//! | `--smoke` | quick gate for `scripts/tier1.sh`: determinism across schedules/shards + a server round trip; writes nothing |
//! | `--chaos-smoke` | serving-layer robustness gate: malformed traffic, load shedding + retry, poisoned vehicle containment, graceful drain; writes nothing |
//! | `--obs-smoke` | observability gate: scrapes `/metrics`, validates the Prometheus exposition with the test-suite parser, checks `/metrics.json` and span sampling, and asserts a poisoned vehicle freezes a flight-recorder dump attributed to its request id; writes nothing |
//! | `--vehicles N` | campaign size for `--smoke` (default 64) |
//! | `--full` | adds the 100k-vehicle campaign to the report |
//! | `--seed S` | campaign family (default 42) |
//! | `--shards K` | worker count (default: available parallelism) |
//!
//! Every campaign row records vehicles/sec, steps/sec and the
//! per-vehicle latency tail (p50/p95/p99) under the work-stealing
//! scheduler; the smallest campaign also compares serial vs static vs
//! work-stealing wall time, and every row pins the fleet checksum so a
//! future change that alters any vehicle's record stream shows up as a
//! checksum diff in the committed report.

use otem::mpc::{Clock, VirtualClock};
use otem_fleet::client::{request, BackoffPolicy, RetryClient};
use otem_fleet::protocol::outcomes_json;
use otem_fleet::{
    Campaign, FleetEngine, FleetServer, Methodology, Schedule, ServerConfig, ServerHandle,
    VehicleSpec,
};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const SERVER_REQUESTS: usize = 24;
const SERVER_VEHICLES: usize = 32;

struct Args {
    smoke: bool,
    chaos_smoke: bool,
    obs_smoke: bool,
    full: bool,
    vehicles: usize,
    seed: u64,
    shards: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        chaos_smoke: false,
        obs_smoke: false,
        full: false,
        vehicles: 64,
        seed: 42,
        shards: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs an integer value"))
        };
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--chaos-smoke" => out.chaos_smoke = true,
            "--obs-smoke" => out.obs_smoke = true,
            "--full" => out.full = true,
            "--vehicles" => out.vehicles = value("--vehicles") as usize,
            "--seed" => out.seed = value("--seed"),
            "--shards" => out.shards = (value("--shards") as usize).max(1),
            other => panic!("unrecognised argument {other:?}"),
        }
    }
    out
}

fn quantiles_json(latency: &otem_telemetry::Histogram) -> String {
    format!(
        "{{ \"p50\": {:.4}, \"p95\": {:.4}, \"p99\": {:.4} }}",
        latency.quantile(0.50),
        latency.quantile(0.95),
        latency.quantile(0.99)
    )
}

/// One loopback HTTP exchange; returns the response body lines.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to fleet server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    let (head, payload) = response.split_once("\r\n\r\n").expect("http response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "{method} {path} failed: {head}"
    );
    payload.lines().map(str::to_owned).collect()
}

fn spawn_server(shards: usize) -> ServerHandle {
    FleetServer::new(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards,
        max_vehicles: 100_000,
        ..ServerConfig::default()
    })
    .spawn()
    .expect("bind loopback server")
}

/// The tier-1 gate: schedules and shard counts must not change a single
/// bit of any vehicle's summary, and the serving layer must round-trip.
fn smoke(args: &Args) {
    let campaign = Campaign::synthetic(args.vehicles, args.seed);
    let reference = FleetEngine::new(Schedule::Serial).run(&campaign);
    println!(
        "smoke: {} vehicles, {} steps, serial {:.2}s ({:.0} steps/s)",
        args.vehicles,
        reference.total_steps,
        reference.wall_s,
        reference.steps_per_sec()
    );
    for shards in [1usize, 4, 16] {
        for schedule in [
            Schedule::Static { shards },
            Schedule::WorkStealing { shards },
        ] {
            let report = FleetEngine::new(schedule).run(&campaign);
            assert_eq!(
                report.summaries, reference.summaries,
                "{schedule:?} diverged from the serial reference"
            );
            println!(
                "smoke: {:>7}x{:<2} OK  {:.2}s  checksum {:016x}",
                schedule.wire_name(),
                shards,
                report.wall_s,
                report.fleet_checksum()
            );
        }
    }

    // Loopback server round trip: simulate a small fleet and check the
    // served checksum against the in-process engine.
    let mut handle = spawn_server(2);
    let lines = http(handle.addr(), "GET", "/healthz", "");
    assert_eq!(lines, ["{\"status\":\"ok\"}"], "healthz");
    let body = format!("{{\"vehicles\":16,\"seed\":{}}}", args.seed);
    let lines = http(handle.addr(), "POST", "/simulate", &body);
    assert_eq!(lines.len(), 17, "16 summaries + fleet trailer");
    let local = FleetEngine::new(Schedule::Serial).run(&Campaign::synthetic(16, args.seed));
    let want = format!("\"fleet_checksum\":\"{:016x}\"", local.fleet_checksum());
    assert!(
        lines[16].contains(&want),
        "served checksum diverges from the engine: {}",
        lines[16]
    );
    let lines = http(handle.addr(), "POST", "/shutdown", "");
    assert_eq!(lines, ["{\"event\":\"shutdown\"}"], "shutdown ack");
    handle.shutdown();
    println!("smoke: server round trip OK (checksum matched, clean shutdown)");

    // Virtual-clock deadline smoke: deadline-constrained OTEM vehicles
    // on a deterministic clock must reproduce bit-for-bit across
    // schedules and actually exercise the anytime path.
    deadline_smoke(args.seed);
    println!("fleet smoke PASS");
}

/// Each clock read advances 40 µs of virtual time against a 100 µs
/// per-solve budget, so every vehicle hits the deadline path after a
/// couple of solver iterations — deterministically, regardless of host
/// load.
fn deadline_clock(_spec: &VehicleSpec) -> Arc<dyn Clock> {
    Arc::new(VirtualClock::with_tick(40_000))
}

fn deadline_smoke(seed: u64) {
    let mut campaign = Campaign::synthetic(4, seed);
    for spec in &mut campaign.vehicles {
        spec.methodology = Methodology::Otem;
        spec.mpc_deadline_us = 100;
    }
    let reference = FleetEngine::new(Schedule::Serial)
        .with_clock_factory(deadline_clock)
        .run(&campaign);
    assert!(
        reference.solve_outcomes.deadline_reached > 0,
        "virtual clock never tripped the 100 µs deadline: {:?}",
        reference.solve_outcomes
    );
    let stealing = FleetEngine::new(Schedule::WorkStealing { shards: 4 })
        .with_clock_factory(deadline_clock)
        .run(&campaign);
    assert_eq!(
        stealing.summaries, reference.summaries,
        "deadline-constrained summaries diverged across schedules"
    );
    assert_eq!(
        stealing.solve_outcomes, reference.solve_outcomes,
        "deadline-constrained outcome counts diverged across schedules"
    );
    println!(
        "smoke: virtual-clock deadline OK ({} of {} solves deadline-limited, bit-identical)",
        reference.solve_outcomes.deadline_reached,
        reference.solve_outcomes.total()
    );
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spawn_chaos_server(workers: usize, queue_depth: usize, read_timeout_ms: u64) -> ServerHandle {
    FleetServer::new(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        workers,
        queue_depth,
        read_timeout_ms,
        write_timeout_ms: read_timeout_ms,
        drain_deadline_ms: 2_000,
        ..ServerConfig::default()
    })
    .spawn()
    .expect("bind chaos server")
}

/// Sends raw bytes, then reads to EOF and returns the HTTP status the
/// server answered with (`None` if the connection died first).
fn raw_status(addr: std::net::SocketAddr, payload: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok()?;
    stream.write_all(payload).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split_whitespace().nth(1)?.parse().ok()
}

/// The serving-layer robustness gate: a deterministic (seeded) abuse
/// schedule against a live server — malformed traffic, a poisoned
/// vehicle, queue-overflow shedding with a retrying client, and a drain
/// under concurrent load. `/healthz` must answer correctly after every
/// phase.
fn chaos_smoke(args: &Args) {
    use std::time::Duration;

    // Phase 1: malformed traffic. Each abuse draws the documented 4xx
    // and the server stays healthy afterwards.
    let mut handle = spawn_chaos_server(2, 8, 400);
    let addr = handle.addr();
    let flood = {
        let mut head = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..100 {
            head.push_str(&format!("X-Flood-{i}: 1\r\n"));
        }
        head.push_str("\r\n");
        head
    };
    let mut abuses: Vec<(&str, String, Option<u16>)> = vec![
        ("garbage request line", "GARBAGE\r\n\r\n".into(), Some(400)),
        (
            "malformed content-length",
            "POST /simulate HTTP/1.1\r\nContent-Length: banana\r\n\r\n".into(),
            Some(400),
        ),
        (
            "oversized body",
            "POST /simulate HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".into(),
            Some(413),
        ),
        (
            "unknown route",
            "GET /nope HTTP/1.1\r\n\r\n".into(),
            Some(404),
        ),
        ("header flood", flood, Some(400)),
        (
            // The client stalls mid-head and waits: the read deadline
            // trips and the server cuts it off with 408.
            "stalled mid-head",
            "POST /simulate HTTP/1.1\r\nContent-Le".into(),
            Some(408),
        ),
    ];
    // Seeded schedule: the abuse order is deterministic for a given
    // --seed, and different seeds exercise different interleavings.
    let mut rng = args.seed ^ 0xc3a05;
    for i in (1..abuses.len()).rev() {
        let j = (splitmix64(&mut rng) as usize) % (i + 1);
        abuses.swap(i, j);
    }
    for (name, payload, want) in &abuses {
        let got = raw_status(addr, payload.as_bytes());
        if let Some(want) = want {
            assert_eq!(got, Some(*want), "{name}: wrong status");
        }
        let health = request(addr, "GET", "/healthz", "").expect("healthz after abuse");
        assert_eq!(health.status, 200, "{name}: server unhealthy after abuse");
        println!("chaos: {name:<24} -> {got:?}, healthz OK");
    }

    // Phase 2: poisoned vehicle. The campaign answers 200 with N−1
    // summaries plus one structured error record, and the server keeps
    // serving.
    let body = format!("{{\"vehicles\":4,\"seed\":{},\"poison_id\":2}}", args.seed);
    // The vehicle panic is contained by the engine but still reaches the
    // global panic hook, which would spray a backtrace into the gate's
    // output — silence the hook for just this request.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let resp = request(addr, "POST", "/simulate", &body).expect("poison campaign");
    std::panic::set_hook(prev_hook);
    assert_eq!(resp.status, 200, "poisoned campaign still answers 200");
    assert_eq!(resp.lines.len(), 5, "3 summaries + 1 error + trailer");
    let errors: Vec<&String> = resp
        .lines
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"vehicle_error\""))
        .collect();
    assert_eq!(errors.len(), 1, "exactly one vehicle error");
    assert!(
        errors[0].contains("\"id\":2") && errors[0].contains("\"panicked\":true"),
        "structured error record: {}",
        errors[0]
    );
    assert!(
        resp.lines[4].contains("\"vehicle_panics\":1"),
        "trailer tallies the contained panic: {}",
        resp.lines[4]
    );
    assert_eq!(handle.vehicle_panics(), 1);
    let health = request(addr, "GET", "/healthz", "").expect("healthz after poison");
    assert_eq!(health.status, 200);
    handle.shutdown();
    println!("chaos: poisoned vehicle contained (3 summaries + 1 error record)");

    // Phase 3: load shedding. One worker + depth-1 queue, both occupied
    // by stalled clients — further connections draw an immediate 503
    // with a retry hint, and a retrying client converges once the
    // stalls time out.
    let mut handle = spawn_chaos_server(1, 1, 500);
    let addr = handle.addr();
    let stalls: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("stall connects"))
        .collect();
    let mut saw_shed = false;
    for _ in 0..50 {
        match otem_fleet::client::request_with_timeout(
            addr,
            "GET",
            "/healthz",
            "",
            Some(Duration::from_millis(300)),
        ) {
            Ok(resp) if resp.status == 503 => {
                assert_eq!(
                    resp.retry_after_ms(),
                    Some(100),
                    "shed carries the retry hint: {:?}",
                    resp.lines
                );
                saw_shed = true;
                break;
            }
            _ => {}
        }
    }
    assert!(saw_shed, "saturated pool never shed");
    assert!(handle.shed() >= 1);
    let mut retry = RetryClient::new(
        addr,
        BackoffPolicy {
            base_ms: 100,
            cap_ms: 1_000,
            max_attempts: 10,
            seed: args.seed,
        },
    );
    let resp = retry.send("GET", "/healthz", "").expect("retry transport");
    assert_eq!(
        resp.status, 200,
        "retrying client converges once the stalls expire"
    );
    println!(
        "chaos: shed -> 503 + retry_after_ms, retry client OK in {} attempts",
        retry.last_attempts
    );
    drop(stalls);
    handle.shutdown();

    // Phase 4: graceful drain under load. Concurrent clients race a
    // shutdown; everything accepted before the drain finishes cleanly.
    let mut handle = spawn_chaos_server(2, 8, 1_000);
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                otem_fleet::client::request_with_timeout(
                    addr,
                    "POST",
                    "/simulate",
                    &format!("{{\"vehicles\":2,\"seed\":{i}}}"),
                    Some(Duration::from_secs(10)),
                )
            })
        })
        .collect();
    // Give the accept loop a beat to enqueue them, then drain.
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();
    let mut served = 0;
    for client in clients {
        match client.join().expect("client thread") {
            Ok(resp) if resp.status == 200 => {
                assert!(
                    resp.lines
                        .last()
                        .is_some_and(|l| l.contains("\"event\":\"fleet\"")),
                    "drained response is complete: {:?}",
                    resp.lines
                );
                served += 1;
            }
            // Shed while draining, or the connection raced the listener
            // closing — both are clean refusals, not hangs.
            Ok(resp) => assert_eq!(resp.status, 503, "unexpected status during drain"),
            Err(_) => {}
        }
    }
    assert!(served >= 1, "drain served the in-flight requests");
    println!("chaos: drain under load OK ({served}/4 served to completion)");
    println!("fleet chaos smoke PASS");
}

/// The observability gate for `scripts/tier1.sh`: boots a live server,
/// drives nominal traffic, scrapes `/metrics`, and validates the
/// exposition on the wire bytes with the same parser the property
/// suite round-trips through; checks `/metrics.json` still serves the
/// legacy JSON; arms span sampling through `/debug/trace`; then
/// injects a poisoned vehicle and asserts the flight recorder froze a
/// dump whose entries carry the poisoned request's correlation id.
fn obs_smoke(args: &Args) {
    use otem_telemetry::promparse::validate_exposition;

    let mut handle = spawn_chaos_server(2, 16, 5_000);
    let addr = handle.addr();

    // Nominal traffic first, so every hot family has samples on the
    // wire: a few campaigns, plus one 404 for the error counter.
    let body = format!("{{\"vehicles\":4,\"seed\":{}}}", args.seed);
    for _ in 0..3 {
        let resp = request(addr, "POST", "/simulate", &body).expect("simulate");
        assert_eq!(resp.status, 200, "nominal campaign refused");
    }
    // A guaranteed-MPC vehicle (the synthetic methodology mix is only
    // ~10 % OTEM, so a tiny campaign may produce zero solves): this
    // populates `otem_solve_outcome_total` deterministically.
    let resp = request(
        addr,
        "POST",
        "/simulate",
        "{\"methodology\":\"otem\",\"steps\":20}",
    )
    .expect("mpc vehicle");
    assert_eq!(resp.status, 200, "MPC vehicle refused");
    let miss = request(addr, "GET", "/nope", "").expect("unknown route answered");
    assert_eq!(miss.status, 404);

    // Scrape and mechanically validate the exposition.
    let exposition = http(addr, "GET", "/metrics", "").join("\n") + "\n";
    let parsed = validate_exposition(&exposition).expect("/metrics is valid Prometheus text");
    let counter = |name: &str| {
        parsed
            .sample(name, &[])
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .value
    };
    assert!(counter("otem_requests_total") >= 4.0, "requests counted");
    assert!(counter("otem_request_errors_total") >= 1.0, "404 counted");
    // The ops counters exist from boot even at zero, so dashboards see
    // the full family set before the first incident.
    for family in [
        "otem_requests_shed_total",
        "otem_request_timeouts_total",
        "otem_request_panics_total",
        "otem_vehicle_panics_total",
    ] {
        let _ = counter(family);
    }
    assert!(counter("otem_uptime_seconds") > 0.0, "uptime ticks");
    // The scrape itself is being handled while the gauge is read.
    assert!(
        counter("otem_in_flight_requests") >= 1.0,
        "scrape in flight"
    );
    let build = parsed
        .families
        .get("otem_build_info")
        .and_then(|f| f.samples.first())
        .expect("build info exported");
    assert!(
        build.label("version").is_some_and(|v| !v.is_empty())
            && build.label("profile").is_some_and(|p| !p.is_empty()),
        "build info carries version and profile labels"
    );
    let solves = parsed
        .families
        .get("otem_solve_outcome_total")
        .expect("solve outcomes exported");
    let total_solves: f64 = solves.samples.iter().map(|s| s.value).sum();
    assert!(total_solves >= 1.0, "campaigns produced solve outcomes");
    assert!(
        solves
            .samples
            .iter()
            .all(|s| s.label("mode").is_some() && s.label("outcome").is_some()),
        "solve outcomes are broken down by mode and outcome"
    );
    let latency_count = parsed
        .sample(
            "otem_request_latency_seconds_count",
            &[("route", "/simulate")],
        )
        .expect("latency histogram covers /simulate")
        .value;
    assert!(latency_count >= 3.0, "campaign latencies observed");
    println!(
        "obs: /metrics exposition valid ({} families)",
        parsed.families.len()
    );

    // The machine-readable JSON snapshot moved to /metrics.json.
    let legacy = http(addr, "GET", "/metrics.json", "");
    assert!(
        legacy[0].starts_with("{\"event\":\"metrics\""),
        "legacy JSON metrics preserved at /metrics.json: {}",
        legacy[0]
    );
    println!("obs: /metrics.json legacy snapshot OK");

    // Span sampling: arm 1-in-1, run a single-vehicle simulation, and
    // the live recorder ring must hold correlated span events.
    let armed = http(addr, "GET", "/debug/trace?sample=1", "");
    assert!(
        armed[0].contains("\"sample\":1"),
        "sampling armed: {}",
        armed[0]
    );
    let resp = request(addr, "POST", "/simulate", "{\"steps\":5}").expect("sampled run");
    assert_eq!(resp.status, 200);
    let spans = http(addr, "GET", "/debug/trace?sample=0", "");
    assert!(
        spans
            .iter()
            .any(|l| l.contains("\"event\":\"span_start\"") && !l.contains("\"request_id\":0,")),
        "sampled spans carry their request id"
    );
    println!("obs: span sampling via /debug/trace OK");

    // Poison phase: the contained vehicle panic freezes the flight
    // recorder, and the dump attributes the incident to its request.
    let poison = format!("{{\"vehicles\":4,\"seed\":{},\"poison_id\":2}}", args.seed);
    // The contained panic still reaches the global hook; silence it so
    // the gate's output stays readable.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let resp = request(addr, "POST", "/simulate", &poison).expect("poison campaign");
    std::panic::set_hook(prev_hook);
    assert_eq!(resp.status, 200, "poisoned campaign still answers 200");
    let flight = http(addr, "GET", "/debug/flight", "");
    assert!(
        flight[0].starts_with("{\"flight_dump\":true,\"trigger\":\"panic_caught\","),
        "flight recorder froze on the contained panic: {}",
        flight[0]
    );
    let trigger = flight
        .iter()
        .find(|l| l.contains("\"event\":{\"event\":\"panic_caught\""))
        .expect("the trigger event is in the dump");
    assert!(
        trigger.contains("\"request_id\":") && !trigger.contains("\"request_id\":0,"),
        "dump entries carry the originating request id: {trigger}"
    );
    println!("obs: flight-recorder dump attributed to request OK");

    let health = request(addr, "GET", "/healthz", "").expect("healthz after poison");
    assert_eq!(health.status, 200, "server healthy after the incident");
    handle.shutdown();
    println!("fleet obs smoke PASS");
}

/// Folds a campaign's solve-outcome tally into `registry` under the
/// same `otem_solve_outcome_total{mode,outcome}` family the server
/// exports, so BENCH rows and live scrapes read identically.
fn fold_outcomes(
    registry: &otem_telemetry::MetricsRegistry,
    mode: &str,
    outcomes: &otem_fleet::SolveOutcomes,
) {
    const HELP: &str = "MPC solve outcomes by gradient mode across the benchmark campaigns.";
    for (outcome, n) in [
        ("converged", outcomes.converged),
        ("budget_exhausted", outcomes.budget_exhausted),
        ("stalled", outcomes.stalled),
        ("non_finite", outcomes.non_finite),
        ("deadline_reached", outcomes.deadline_reached),
    ] {
        registry
            .counter(
                "otem_solve_outcome_total",
                HELP,
                &[("mode", mode), ("outcome", outcome)],
            )
            .add(n);
    }
}

fn bench(args: &Args) {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut sizes = vec![1_000usize, 10_000];
    if args.full {
        sizes.push(100_000);
    }
    // Campaign outcomes and loopback latency fold into one registry
    // snapshot, embedded in the report as the `metrics` object — the
    // same shape `/metrics.json` serves, so dashboards can ingest both.
    let registry = otem_telemetry::MetricsRegistry::new();
    let campaign_mode = otem::mpc::MpcConfig::default().gradient_mode.name();

    println!(
        "{:<9} {:>10} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "vehicles", "steps", "wall_s", "veh/s", "steps/s", "p50_ms", "p95_ms", "p99_ms", "solves"
    );
    let mut rows = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let campaign = Campaign::synthetic(n, args.seed);
        let report = FleetEngine::new(Schedule::WorkStealing {
            shards: args.shards,
        })
        .run(&campaign);
        fold_outcomes(&registry, campaign_mode, &report.solve_outcomes);
        println!(
            "{:<9} {:>10} {:>9.2} {:>11.1} {:>11.0} {:>9.3} {:>9.3} {:>9.3} {:>9}",
            n,
            report.total_steps,
            report.wall_s,
            report.vehicles_per_sec(),
            report.steps_per_sec(),
            report.latency_ms.quantile(0.50),
            report.latency_ms.quantile(0.95),
            report.latency_ms.quantile(0.99),
            report.solve_outcomes.total()
        );
        // Schedule comparison on the smallest campaign only: the point
        // is the *relative* cost of static chunking vs stealing on a
        // heterogeneous fleet, which doesn't need the big runs.
        let comparison = if i == 0 {
            let serial = FleetEngine::new(Schedule::Serial).run(&campaign);
            let fixed = FleetEngine::new(Schedule::Static {
                shards: args.shards,
            })
            .run(&campaign);
            assert_eq!(serial.summaries, report.summaries, "steal diverged");
            assert_eq!(fixed.summaries, report.summaries, "static diverged");
            println!(
                "          schedules @ {n}: serial {:.2}s, static {:.2}s, steal {:.2}s",
                serial.wall_s, fixed.wall_s, report.wall_s
            );
            format!(
                ",\n      \"schedule_wall_s\": {{ \"serial\": {:.4}, \"static\": {:.4}, \"steal\": {:.4} }}",
                serial.wall_s, fixed.wall_s, report.wall_s
            )
        } else {
            String::new()
        };
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"vehicles\": {},\n",
                "      \"total_steps\": {},\n",
                "      \"schedule\": \"steal\",\n",
                "      \"wall_s\": {:.4},\n",
                "      \"vehicles_per_sec\": {:.2},\n",
                "      \"steps_per_sec\": {:.1},\n",
                "      \"latency_ms\": {},\n",
                "      \"solve_outcomes\": {},\n",
                "      \"fleet_checksum\": \"{:016x}\"{}\n",
                "    }}"
            ),
            n,
            report.total_steps,
            report.wall_s,
            report.vehicles_per_sec(),
            report.steps_per_sec(),
            quantiles_json(&report.latency_ms),
            outcomes_json(&report.solve_outcomes),
            report.fleet_checksum(),
            comparison
        ));
    }

    // Serving-layer tail latency: loopback requests against a live
    // server through the retrying client (the production access path —
    // on clean traffic every request succeeds on attempt 1, so the
    // retry layer adds nothing to the measured latency).
    let mut handle = spawn_server(args.shards);
    let request_latency = otem_telemetry::Histogram::exponential(0.01, 2.0, 23);
    let client_latency = registry.histogram(
        "otem_client_request_latency_seconds",
        "Loopback request latency observed by the bench client.",
        &[("route", "/simulate")],
        otem_telemetry::Histogram::exponential(1e-5, 2.0, 22).bounds(),
    );
    let body = format!("{{\"vehicles\":{SERVER_VEHICLES},\"seed\":{}}}", args.seed);
    let mut client = RetryClient::new(handle.addr(), BackoffPolicy::default());
    for _ in 0..SERVER_REQUESTS {
        let t0 = Instant::now();
        let response = client
            .send("POST", "/simulate", &body)
            .expect("live-server request");
        let elapsed = t0.elapsed().as_secs_f64();
        request_latency.observe(elapsed * 1e3);
        client_latency.observe(elapsed);
        assert_eq!(response.status, 200, "clean traffic is never refused");
        assert_eq!(response.lines.len(), SERVER_VEHICLES + 1);
    }
    // `/metrics` speaks Prometheus now; validate the scrape mechanically
    // and report what the server says it served.
    let exposition = http(handle.addr(), "GET", "/metrics", "").join("\n") + "\n";
    let scraped = otem_telemetry::promparse::validate_exposition(&exposition)
        .expect("live /metrics is valid Prometheus text");
    let served = scraped
        .sample("otem_requests_total", &[])
        .map_or(0.0, |s| s.value);
    println!(
        "server: {SERVER_REQUESTS} x {SERVER_VEHICLES}-vehicle requests, \
         p50 {:.2} ms, p99 {:.2} ms",
        request_latency.quantile(0.50),
        request_latency.quantile(0.99)
    );
    println!(
        "server: /metrics scrape valid ({} families, {served:.0} requests served)",
        scraped.families.len()
    );
    handle.shutdown();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fleet_engine\",\n",
            "  \"seed\": {},\n",
            "  \"cpu_cores\": {},\n",
            "  \"shards\": {},\n",
            "  \"resolved_workers\": {},\n",
            "  \"campaigns\": [\n{}\n  ],\n",
            "  \"server\": {{\n",
            "    \"requests\": {},\n",
            "    \"vehicles_per_request\": {},\n",
            "    \"request_latency_ms\": {}\n",
            "  }},\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        args.seed,
        cores,
        args.shards,
        otem_fleet::pool::resolve_workers(args.shards),
        rows.join(",\n"),
        SERVER_REQUESTS,
        SERVER_VEHICLES,
        quantiles_json(&request_latency),
        registry.snapshot().render_json()
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!(
        "\nwrote BENCH_fleet.json ({} shards on {cores} cores)",
        args.shards
    );
}

fn main() {
    let args = parse_args();
    if args.smoke {
        smoke(&args);
    } else if args.chaos_smoke {
        chaos_smoke(&args);
    } else if args.obs_smoke {
        obs_smoke(&args);
    } else {
        bench(&args);
    }
}
