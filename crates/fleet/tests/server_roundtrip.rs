//! Loopback round-trips against a spawned [`FleetServer`]: raw
//! `TcpStream` HTTP/1.1 requests, close-delimited `x-ndjson` responses,
//! clean shutdown.

use otem_fleet::{Campaign, FleetEngine, FleetServer, Schedule, ServerConfig, ServerHandle};
use otem_telemetry::promparse::{validate_exposition, ParsedExposition};
use std::io::{Read, Write};
use std::net::TcpStream;

/// One HTTP exchange: returns (status line, body lines).
fn roundtrip(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (String, Vec<String>) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().expect("status line").to_owned();
    let lines = payload.lines().map(str::to_owned).collect();
    (status, lines)
}

/// Scrapes `/metrics` and validates the Prometheus exposition (every
/// family typed, histogram buckets cumulative).
fn scrape(handle: &ServerHandle) -> ParsedExposition {
    let (status, lines) = roundtrip(handle, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let text = lines.join("\n") + "\n";
    validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"))
}

fn spawn_server() -> ServerHandle {
    FleetServer::new(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: 2,
        max_vehicles: 100,
        ..ServerConfig::default()
    })
    .spawn()
    .expect("bind loopback")
}

#[test]
fn serves_health_fleet_vehicle_plan_metrics_and_shuts_down() {
    let mut handle = spawn_server();

    let (status, lines) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(lines, ["{\"status\":\"ok\"}"]);

    // A scrape before any incident: the ops counters already exist at
    // zero, so dashboards see every family from boot, and the in-flight
    // gauge, refreshed at scrape time, counts the scrape itself.
    let boot = scrape(&handle);
    for family in [
        "otem_requests_shed_total",
        "otem_request_timeouts_total",
        "otem_request_panics_total",
        "otem_vehicle_panics_total",
    ] {
        assert_eq!(
            boot.sample(family, &[]).map(|s| s.value),
            Some(0.0),
            "{family} exported at zero from boot"
        );
    }
    assert!(
        boot.sample("otem_in_flight_requests", &[])
            .is_some_and(|s| s.value >= 1.0),
        "the scrape is in flight while the gauge is read"
    );

    // Fleet simulate: one summary line per vehicle plus the fleet
    // trailer, and the trailer's checksum matches an in-process run of
    // the same campaign.
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"vehicles\":8,\"seed\":42,\"shards\":2,\"schedule\":\"steal\"}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(lines.len(), 9, "8 vehicles + fleet trailer: {lines:?}");
    for (i, line) in lines[..8].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"event\":\"vehicle\",\"id\":{i},")),
            "line {i} malformed: {line}"
        );
    }
    let trailer = &lines[8];
    assert!(
        trailer.starts_with("{\"event\":\"fleet\","),
        "trailer: {trailer}"
    );
    assert!(
        trailer.contains("\"solves\":{\"converged\":"),
        "solve-outcome distribution present: {trailer}"
    );
    let local = FleetEngine::new(Schedule::Serial).run(&Campaign::synthetic(8, 42));
    let expected = format!("\"fleet_checksum\":\"{:016x}\"", local.fleet_checksum());
    assert!(
        trailer.contains(&expected),
        "served checksum diverges from the in-process engine: {trailer}"
    );

    // Single vehicle with JSONL telemetry: per-step events stream ahead
    // of the final summary line.
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"cycle\":\"nycc\",\"methodology\":\"dual\",\"steps\":40,\"telemetry\":\"jsonl\"}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let steps = lines
        .iter()
        .filter(|l| l.starts_with("{\"event\":\"step_completed\""))
        .count();
    assert_eq!(steps, 40, "one step event per control period: {lines:?}");
    assert!(
        lines
            .last()
            .expect("non-empty")
            .starts_with("{\"event\":\"vehicle\","),
        "summary line terminates the stream"
    );

    // Clairvoyant plan: one line per step plus the plan trailer.
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/plan",
        "{\"cycle\":\"nycc\",\"steps\":25}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(lines.len(), 26, "25 plan steps + trailer: {lines:?}");
    assert!(lines[0].starts_with("{\"event\":\"plan_step\",\"t\":0,"));
    assert!(lines[25].starts_with("{\"event\":\"plan\",\"steps\":25,"));

    // Bad requests are 400s, unknown routes 404s — and neither kills
    // the server.
    let (status, _) = roundtrip(&handle, "POST", "/simulate", "{\"vehicles\":0}");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _) = roundtrip(&handle, "POST", "/simulate", "{\"vehicles\":101}");
    assert_eq!(
        status, "HTTP/1.1 400 Bad Request",
        "max_vehicles cap enforced"
    );
    let (status, _) = roundtrip(&handle, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // A deadline-capped OTEM vehicle: every solve is anytime (a 1 µs
    // budget expires almost immediately on the monotonic clock), yet
    // the vehicle still completes with a summary — and the outcomes
    // land in the solve-outcome family asserted on /metrics below.
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"methodology\":\"otem\",\"steps\":12,\"mpc_deadline_us\":1}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        lines
            .last()
            .expect("non-empty")
            .starts_with("{\"event\":\"vehicle\","),
        "deadline-capped vehicle still summarises: {lines:?}"
    );

    assert!(handle.requests() >= 8);

    // /metrics covers the serving-layer counters, the per-mode solve
    // outcomes and the per-route latency histograms.
    let parsed = scrape(&handle);
    let counter = |name: &str| {
        parsed
            .sample(name, &[])
            .unwrap_or_else(|| panic!("{name} exported"))
            .value
    };
    assert!(
        counter("otem_requests_total") >= 8.0,
        "request counter covers the traffic above"
    );
    assert!(
        counter("otem_request_errors_total") >= 3.0,
        "two 400s and a 404 counted"
    );
    let solves = &parsed
        .families
        .get("otem_solve_outcome_total")
        .expect("solve outcomes exported")
        .samples;
    assert!(
        solves
            .iter()
            .all(|s| s.label("mode").is_some() && s.label("outcome").is_some()),
        "solve outcomes broken out by gradient mode and outcome: {solves:?}"
    );
    let deadline_reached: f64 = solves
        .iter()
        .filter(|s| s.label("outcome") == Some("deadline_reached"))
        .map(|s| s.value)
        .sum();
    assert!(deadline_reached >= 1.0, "1 µs deadline never tripped");
    assert!(
        parsed
            .sample(
                "otem_request_latency_seconds_count",
                &[("route", "/simulate")]
            )
            .is_some_and(|s| s.value >= 3.0),
        "per-route latency histogram covers the /simulate traffic"
    );
    assert!(
        parsed.sample("otem_build_info", &[]).is_none(),
        "build info carries version/profile labels, not a bare sample"
    );
    assert!(
        parsed.families.get("otem_build_info").is_some_and(|f| f
            .samples
            .iter()
            .any(|s| s.value == 1.0
                && s.label("version").is_some_and(|v| !v.is_empty())
                && s.label("profile").is_some_and(|p| !p.is_empty()))),
        "otem_build_info{{version,profile}} == 1"
    );
    assert!(counter("otem_uptime_seconds") > 0.0, "uptime ticks");
    assert!(
        counter("otem_trace_cache_misses_total") >= 1.0,
        "trace-cache misses surfaced in the registry"
    );

    // The flight recorder has seen no incident: /debug/flight serves
    // the live ring.
    let (status, lines) = roundtrip(&handle, "GET", "/debug/flight", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        lines[0].starts_with("{\"flight_live\":true,"),
        "no frozen dump on a healthy server: {}",
        lines[0]
    );

    // Span sampling: arm 1-in-1 sampling, run a request, and the next
    // /debug/trace call streams its spans, stamped with a request id.
    let (status, lines) = roundtrip(&handle, "GET", "/debug/trace?sample=1", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        lines[0].starts_with("{\"event\":\"trace\",\"sample\":1,"),
        "sampling armed: {}",
        lines[0]
    );
    let (status, _) = roundtrip(&handle, "POST", "/simulate", "{\"steps\":5}");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, lines) = roundtrip(&handle, "GET", "/debug/trace?sample=0", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        lines
            .iter()
            .skip(1)
            .any(|l| l.contains("\"event\":{\"event\":\"span_start\"")
                && !l.contains("\"request_id\":0,")),
        "sampled spans carry their originating request id: {lines:?}"
    );

    // HTTP-level shutdown: ack line, then the accept loop exits (the
    // handle's join below would hang forever if it didn't).
    let (status, lines) = roundtrip(&handle, "POST", "/shutdown", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(lines, ["{\"event\":\"shutdown\"}"]);
    handle.shutdown();
}

/// Sends raw bytes (no HTTP framing guarantees) and returns the status
/// line the server answered with.
fn raw(handle: &ServerHandle, payload: &str) -> String {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(payload.as_bytes())
        .expect("payload written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn malformed_content_length_is_a_400_not_an_empty_body() {
    // Regression: `parse().unwrap_or(0)` used to treat a garbage
    // Content-Length as "no body", silently simulating the default
    // vehicle instead of rejecting the request.
    let mut handle = spawn_server();
    let status = raw(
        &handle,
        "POST /simulate HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "server survives the rejection");
    handle.shutdown();
}

#[test]
fn oversized_body_is_a_413() {
    let mut handle = spawn_server();
    let status = raw(
        &handle,
        "POST /simulate HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
    let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    handle.shutdown();
}

#[test]
fn unknown_route_is_a_404_and_counts_as_an_error() {
    let mut handle = spawn_server();
    let before = handle.errors();
    let (status, _) = roundtrip(&handle, "GET", "/definitely-not-a-route", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert_eq!(
        handle.errors(),
        before + 1,
        "error responses increment the errors counter"
    );
    handle.shutdown();
}

#[test]
fn plan_beyond_the_step_cap_is_a_400() {
    let mut handle = spawn_server();
    let (status, lines) = roundtrip(&handle, "POST", "/plan", "{\"steps\":2001}");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(
        lines[0].contains("capped at 2000"),
        "reason names the cap: {lines:?}"
    );
    handle.shutdown();
}

#[test]
fn unservable_mpc_shape_is_a_400_and_the_server_stays_up() {
    let mut handle = spawn_server();
    for body in ["{\"mpc_horizon\":0}", "{\"mpc_horizon\":1000000000}"] {
        let (status, lines) = roundtrip(&handle, "POST", "/simulate", body);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
        assert!(
            lines[0].contains("mpc_horizon"),
            "reason names the field: {lines:?}"
        );
    }
    let (status, lines) = roundtrip(&handle, "POST", "/simulate", "{\"mpc_iterations\":401}");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(lines[0].contains("mpc_iterations"), "{lines:?}");
    let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    handle.shutdown();
}

#[test]
fn malformed_integer_fields_are_400s_and_the_server_stays_up() {
    let mut handle = spawn_server();
    for body in [
        "{\"vehicles\":1e3}",
        "{\"vehicles\":-5}",
        "{\"vehicles\":\"abc\"}",
        "{\"vehicles\":18446744073709551616}",
        "{\"vehicles\":4,\"shards\":2.5}",
        "{\"steps\":1e2}",
    ] {
        let (status, lines) = roundtrip(&handle, "POST", "/simulate", body);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
        assert!(
            lines[0].contains("unsigned integer"),
            "reason names the rule: {lines:?}"
        );
    }
    // An oversized shard request is clamped to the configured width and
    // served like any other.
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"vehicles\":3,\"seed\":42,\"shards\":100000}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let local =
        FleetEngine::new(Schedule::WorkStealing { shards: 2 }).run(&Campaign::synthetic(3, 42));
    let expected = format!("\"fleet_checksum\":\"{:016x}\"", local.fleet_checksum());
    assert!(
        lines.last().is_some_and(|l| l.contains(&expected)),
        "{lines:?}"
    );
    let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    handle.shutdown();
}

#[test]
fn malformed_float_bool_and_string_fields_are_400s_and_the_server_stays_up() {
    let mut handle = spawn_server();
    for (body, field) in [
        ("{\"ambient_c\":\"hot\"}", "ambient_c"),
        ("{\"ambient_c\":null}", "ambient_c"),
        ("{\"ambient_c\":35abc}", "ambient_c"),
        ("{\"capacitance_f\":[]}", "capacitance_f"),
        ("{\"compact\":\"yes\"}", "compact"),
        ("{\"cycle\":5}", "cycle"),
        ("{\"methodology\":null}", "methodology"),
        ("{\"telemetry\":1}", "telemetry"),
        ("{\"vehicles\":4,\"schedule\":true}", "schedule"),
    ] {
        let (status, lines) = roundtrip(&handle, "POST", "/simulate", body);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
        assert!(lines[0].contains(field), "reason names {field}: {lines:?}");
        let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
        assert_eq!(status, "HTTP/1.1 200 OK", "server down after {body}");
    }
    // Well-formed values of the same fields are still served.
    let (status, _) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"cycle\":\"nycc\",\"methodology\":\"parallel\",\"steps\":5,\
         \"ambient_c\":35,\"compact\":true}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    handle.shutdown();
}

#[test]
fn header_flood_is_refused() {
    let mut handle = spawn_server();
    // More headers than MAX_HEADER_COUNT, still under the byte cap.
    let mut payload = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..80 {
        payload.push_str(&format!("X-Flood-{i}: 1\r\n"));
    }
    payload.push_str("\r\n");
    assert_eq!(raw(&handle, &payload), "HTTP/1.1 400 Bad Request");

    // A single header far beyond the byte cap is refused too.
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Huge: {}\r\n\r\n",
        "a".repeat(9000)
    );
    assert_eq!(raw(&handle, &huge), "HTTP/1.1 400 Bad Request");

    let (status, _) = roundtrip(&handle, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK", "server survives the floods");
    handle.shutdown();
}

#[test]
fn chrome_telemetry_streams_a_trace_array() {
    let mut handle = spawn_server();
    let (status, lines) = roundtrip(
        &handle,
        "POST",
        "/simulate",
        "{\"methodology\":\"parallel\",\"steps\":10,\"telemetry\":\"chrome\"}",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let joined = lines.join("\n");
    assert!(joined.starts_with('['), "chrome trace opens an array");
    assert!(joined.contains("\"ph\":"), "trace events present");
    assert!(
        lines
            .last()
            .expect("non-empty")
            .starts_with("{\"event\":\"vehicle\","),
        "summary follows the trace: {lines:?}"
    );
    handle.shutdown();
}
