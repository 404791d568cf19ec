//! Golden-trace regression suite: every methodology's closed-loop
//! behaviour on a fixed rig is pinned against compact reference traces
//! committed under `tests/golden/`.
//!
//! The rig is the paper's thermally stressed city-EV
//! (`SystemConfig::stress_rig` + `VehicleParams::compact_ev`) over the
//! first 120 s of US06 — long enough to exercise acceleration peaks,
//! regeneration, and the first thermal response of every controller,
//! short enough that even the (debug-build) MPC stays affordable.
//!
//! Any behavioural drift — a changed solver path, a reordered floating-
//! point reduction, a retuned default — fails these tests. If the change
//! is *intentional*, re-bless the references and review the diff:
//!
//! ```sh
//! OTEM_BLESS=1 cargo test --test golden_traces
//! git diff tests/golden/
//! ```
//!
use otem_repro::control::mpc::MpcConfig;
use otem_repro::control::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem_repro::control::{Controller, SimulationResult, Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::units::Seconds;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Steps of the route each golden trace covers.
const STEPS: usize = 120;

/// Relative tolerance for the comparison. The runs are deterministic, so
/// on the blessing platform the match is exact; the margin only absorbs
/// cross-platform libm / FMA differences.
const REL_TOL: f64 = 1e-6;

/// Absolute floors for quantities that legitimately pass through zero.
const ABS_TOL_TEMP_C: f64 = 1e-6;
const ABS_TOL_RATIO: f64 = 1e-9;
const ABS_TOL_POWER_W: f64 = 1e-2;

fn rig_trace() -> PowerTrace {
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    PowerTrace::new(Seconds::new(1.0), trace.window(0, STEPS))
}

fn run(controller: &mut dyn Controller) -> SimulationResult {
    let config = SystemConfig::stress_rig();
    Simulator::new(&config).run(controller, &rig_trace())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.csv"))
}

/// One golden row: the externally observable per-step quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    step: usize,
    t_battery_c: f64,
    soc: f64,
    soe: f64,
    delivered_w: f64,
}

fn rows_of(result: &SimulationResult) -> Vec<Row> {
    result
        .records
        .iter()
        .enumerate()
        .map(|(step, r)| Row {
            step,
            t_battery_c: r.state.battery_temp.to_celsius().value(),
            soc: r.state.soc.value(),
            soe: r.state.soe.value(),
            delivered_w: r.hees.delivered.value(),
        })
        .collect()
}

fn encode(rows: &[Row]) -> String {
    let mut out = String::from("step,t_battery_c,soc,soe,delivered_w\n");
    for r in rows {
        writeln!(
            out,
            "{},{:.12e},{:.12e},{:.12e},{:.12e}",
            r.step, r.t_battery_c, r.soc, r.soe, r.delivered_w
        )
        .expect("string write");
    }
    out
}

fn decode(text: &str, path: &std::path::Path) -> Vec<Row> {
    text.lines()
        .skip(1) // header
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 5, "malformed golden row in {path:?}: {line}");
            let num = |i: usize| -> f64 {
                fields[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("bad field {i} in {path:?} ({line}): {e}"))
            };
            Row {
                step: fields[0].parse().expect("step index"),
                t_battery_c: num(1),
                soc: num(2),
                soe: num(3),
                delivered_w: num(4),
            }
        })
        .collect()
}

fn close(actual: f64, expected: f64, abs_floor: f64) -> bool {
    let tol = abs_floor.max(REL_TOL * expected.abs());
    (actual - expected).abs() <= tol
}

/// Runs `controller`, then either re-blesses the reference (when
/// `OTEM_BLESS` is set) or asserts the run matches it row by row.
fn check(name: &str, controller: &mut dyn Controller) {
    let result = run(controller);
    let rows = rows_of(&result);
    assert_eq!(rows.len(), STEPS, "route truncated for {name}");
    let path = golden_path(name);

    if std::env::var_os("OTEM_BLESS").is_some() {
        std::fs::write(&path, encode(&rows)).expect("write golden");
        eprintln!("blessed {path:?}");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {path:?} ({e}); generate it with \
             OTEM_BLESS=1 cargo test --test golden_traces"
        )
    });
    let expected = decode(&text, &path);
    assert_eq!(expected.len(), rows.len(), "{name}: golden length mismatch");

    for (got, want) in rows.iter().zip(&expected) {
        assert_eq!(got.step, want.step, "{name}: step index drift");
        let t = got.step;
        assert!(
            close(got.t_battery_c, want.t_battery_c, ABS_TOL_TEMP_C),
            "{name} step {t}: T_b {} != golden {}",
            got.t_battery_c,
            want.t_battery_c
        );
        assert!(
            close(got.soc, want.soc, ABS_TOL_RATIO),
            "{name} step {t}: SoC {} != golden {}",
            got.soc,
            want.soc
        );
        assert!(
            close(got.soe, want.soe, ABS_TOL_RATIO),
            "{name} step {t}: SoE {} != golden {}",
            got.soe,
            want.soe
        );
        assert!(
            close(got.delivered_w, want.delivered_w, ABS_TOL_POWER_W),
            "{name} step {t}: delivered {} != golden {}",
            got.delivered_w,
            want.delivered_w
        );
    }
}

#[test]
fn golden_parallel() {
    let config = SystemConfig::stress_rig();
    let mut c = Parallel::new(&config).expect("valid");
    check("parallel", &mut c);
}

#[test]
fn golden_active_cooling() {
    let config = SystemConfig::stress_rig();
    let mut c = ActiveCooling::new(&config).expect("valid");
    check("active_cooling", &mut c);
}

#[test]
fn golden_dual() {
    let config = SystemConfig::stress_rig();
    let mut c = Dual::new(&config).expect("valid");
    check("dual", &mut c);
}

/// Production OTEM (`MpcConfig::default()`, the adjoint gradient).
#[test]
fn golden_otem() {
    let config = SystemConfig::stress_rig();
    let mut c = Otem::new(&config).expect("valid");
    check("otem", &mut c);
}

/// Solve-quality contract: the production controller, which stops on
/// its iteration budget, must land on the *same physical behaviour* as
/// the same controller given a 400-iteration budget, a solve run close
/// to convergence. Bit-level trajectory identity is not the point — warm
/// starts carry each solve's endpoint into the next, so any truncation
/// shows up along the whole route. What must hold is physical agreement
/// over the route: battery temperature within 0.2 °C, states of
/// charge/energy within 5e-4 / 5e-3, and cumulative delivered energy
/// within 0.5 %. A budget that stops short of a solved plan (the
/// unscaled step at 30 iterations drifts 0.23 °C and 0.53 % from its own
/// 400-iteration run) fails here.
#[test]
fn default_otem_agrees_with_a_solved_reference_physically() {
    let config = SystemConfig::stress_rig();
    let rows = rows_of(&run(&mut Otem::new(&config).expect("valid")));
    let solved = MpcConfig {
        solver_iterations: 400,
        ..MpcConfig::default()
    };
    let reference = rows_of(&run(&mut Otem::with_mpc(&config, solved).expect("valid")));
    assert_eq!(rows.len(), STEPS, "route truncated for default otem");
    assert_eq!(reference.len(), STEPS, "route truncated for solved otem");

    let mut energy_got = 0.0;
    let mut energy_want = 0.0;
    for (got, want) in rows.iter().zip(&reference) {
        let t = got.step;
        assert!(
            (got.t_battery_c - want.t_battery_c).abs() <= 0.2,
            "otem step {t}: T_b {} vs solved {}",
            got.t_battery_c,
            want.t_battery_c
        );
        assert!(
            (got.soc - want.soc).abs() <= 5e-4,
            "otem step {t}: SoC {} vs solved {}",
            got.soc,
            want.soc
        );
        assert!(
            (got.soe - want.soe).abs() <= 5e-3,
            "otem step {t}: SoE {} vs solved {}",
            got.soe,
            want.soe
        );
        energy_got += got.delivered_w;
        energy_want += want.delivered_w;
    }
    let rel = (energy_got - energy_want).abs() / energy_want.abs().max(1.0);
    assert!(
        rel <= 5e-3,
        "delivered energy drift {rel:.3e} ({energy_got:.4e} vs {energy_want:.4e} W·s)"
    );
}
