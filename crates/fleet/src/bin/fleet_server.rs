//! `fleet_server` — the long-running fleet simulation service.
//!
//! ```text
//! fleet_server [--addr 127.0.0.1:7878] [--shards N] [--max-vehicles N]
//!              [--workers N] [--queue-depth N] [--read-timeout-ms N]
//!              [--drain-deadline-ms N] [--flight-dir DIR]
//! ```
//!
//! Speaks HTTP/1.1 with `application/x-ndjson` responses; see the
//! README's "Fleet server" quickstart for request examples. Exits
//! cleanly on `POST /shutdown` after draining in-flight requests.

use otem_fleet::{FleetServer, ServerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--shards" => match value("--shards").parse() {
                Ok(n) if n > 0 => config.shards = n,
                _ => {
                    eprintln!("--shards needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--max-vehicles" => match value("--max-vehicles").parse() {
                Ok(n) if n > 0 => config.max_vehicles = n,
                _ => {
                    eprintln!("--max-vehicles needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("--workers needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--queue-depth" => match value("--queue-depth").parse() {
                Ok(n) if n > 0 => config.queue_depth = n,
                _ => {
                    eprintln!("--queue-depth needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--read-timeout-ms" => match value("--read-timeout-ms").parse() {
                Ok(n) if n > 0 => config.read_timeout_ms = n,
                _ => {
                    eprintln!("--read-timeout-ms needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--drain-deadline-ms" => match value("--drain-deadline-ms").parse() {
                Ok(n) if n > 0 => config.drain_deadline_ms = n,
                _ => {
                    eprintln!("--drain-deadline-ms needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--flight-dir" => config.flight_dir = value("--flight-dir"),
            "--help" | "-h" => {
                println!(
                    "usage: fleet_server [--addr HOST:PORT] [--shards N] [--max-vehicles N]\n\
                     \u{20}                   [--workers N] [--queue-depth N]\n\
                     \u{20}                   [--read-timeout-ms N] [--drain-deadline-ms N]\n\
                     \u{20}                   [--flight-dir DIR]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let server = FleetServer::new(config);
    match server.run(|addr| println!("fleet_server listening on http://{addr}")) {
        Ok(()) => {
            println!("fleet_server shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("fleet_server: {err}");
            ExitCode::FAILURE
        }
    }
}
