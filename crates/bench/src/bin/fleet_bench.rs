//! Fleet-scale throughput benchmark: synthetic campaigns through the
//! sharded engine, plus a loopback round-trip section against the
//! serving layer. Writes `BENCH_fleet.json`.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin fleet_bench -- [flags]`
//!
//! | flag | effect |
//! |------|--------|
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

use otem_bench::fold_outcomes;
use otem_fleet::client::{BackoffPolicy, RetryClient};
use otem_fleet::protocol::outcomes_json;
use otem_fleet::{Campaign, FleetEngine, FleetServer, Schedule, ServerConfig, ServerHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Instant;

const SERVER_REQUESTS: usize = 24;
const SERVER_VEHICLES: usize = 32;

struct Args {
    full: bool,
    seed: u64,
    shards: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        full: false,
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
            "--full" => out.full = true,
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

fn bench(args: &Args) {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut sizes = vec![1_000usize, 10_000];
    if args.full {
        sizes.push(100_000);
    }
    // Campaign outcomes and loopback latency fold into one registry
    // snapshot, embedded in the report as the `metrics` object.
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
    bench(&parse_args());
}
