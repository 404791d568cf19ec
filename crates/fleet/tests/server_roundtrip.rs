//! Loopback round-trips against a spawned [`FleetServer`]: raw
//! `TcpStream` HTTP/1.1 requests, close-delimited `x-ndjson` responses,
//! clean shutdown.

use otem_fleet::{Campaign, FleetEngine, FleetServer, Schedule, ServerConfig, ServerHandle};
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
    // land in the server-lifetime tally asserted on /metrics below.
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

    // The legacy JSON blob moved to /metrics.json and still reflects
    // the traffic above.
    let (status, lines) = roundtrip(&handle, "GET", "/metrics.json", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let metrics = &lines[0];
    assert!(metrics.starts_with("{\"event\":\"metrics\","), "{metrics}");
    assert!(
        metrics.contains("\"p50\":"),
        "latency quantiles present: {metrics}"
    );
    let deadline_reached: u64 = metrics
        .split("\"deadline_reached\":")
        .nth(1)
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .expect("solves tally present in metrics");
    assert!(
        deadline_reached > 0,
        "1 µs deadline never tripped: {metrics}"
    );
    assert!(handle.requests() >= 8);

    // /metrics now serves the Prometheus text exposition: it parses
    // and validates (every family typed, buckets cumulative), and
    // covers the serving-layer counters, the per-mode solve outcomes
    // and the per-route latency histograms.
    let (status, lines) = roundtrip(&handle, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let text = lines.join("\n") + "\n";
    let parsed = otem_telemetry::promparse::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    let requests = parsed
        .sample("otem_requests_total", &[])
        .expect("otem_requests_total exported")
        .value;
    assert!(requests >= 8.0, "request counter covers the traffic above");
    assert!(
        parsed
            .families
            .get("otem_solve_outcome_total")
            .is_some_and(|f| f.samples.iter().any(
                |s| s.label("mode").is_some() && s.label("outcome") == Some("deadline_reached")
            )),
        "solve outcomes broken out by gradient mode: {text}"
    );
    assert!(
        parsed
            .families
            .get("otem_request_latency_seconds")
            .is_some_and(|f| f
                .samples
                .iter()
                .any(|s| s.name.ends_with("_bucket") && s.label("route") == Some("/simulate"))),
        "per-route latency histogram present: {text}"
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
                && s.label("version").is_some()
                && s.label("profile").is_some())),
        "otem_build_info{{version,profile}} == 1: {text}"
    );
    assert!(
        parsed
            .sample("otem_uptime_seconds", &[])
            .is_some_and(|s| s.value >= 0.0),
        "uptime gauge present"
    );
    assert!(
        parsed
            .sample("otem_trace_cache_misses_total", &[])
            .is_some_and(|s| s.value >= 1.0),
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
