//! The OTEM workspace benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mpc_loop|fleet_mix|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` lists `mpc_loop` and `fleet_mix`; `serve_mix` runs
//! on its own for inspection and inside `fleet_mix --trace 1`.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Work per run is fixed by
//! `--seconds` and the workload's nominal rate, never by the measured
//! speed, so two versions of the program do the same work. The last
//! stdout line is the JSON result; the process exits non-zero when an
//! output check fails.

mod fleet_mix;
mod mpc_loop;
mod report;
mod serve_mix;
mod speed;
mod stats;
mod trace;

use report::Report;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(&args.workload, args.trace);
    report.info(format!(
        "seed {} seconds {} nproc {}",
        args.seed,
        args.seconds,
        stats::nproc()
    ));
    match args.workload.as_str() {
        "mpc_loop" => mpc_loop::run(&args, &mut report),
        "fleet_mix" => {
            // serve_mix is not a benchmark workload: its open-loop
            // latencies follow the shared host's thread wake-up delays
            // (up to 2.5× in busy spells), which no bound holds. Its
            // server layers are measured in fleet_mix's traced run
            // instead; it runs first so that fleet_mix's own rows win
            // where both set one.
            if args.trace {
                serve_mix::run(&args, &mut report);
            }
            let (served, served_failed) = (report.attempted, report.failed);
            fleet_mix::run(&args, &mut report);
            report.attempted += served;
            report.failed += served_failed;
        }
        "serve_mix" => serve_mix::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    if !report.print() {
        eprintln!("perfbench: an output check failed");
        std::process::exit(1);
    }
}
