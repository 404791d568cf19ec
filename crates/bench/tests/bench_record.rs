//! `BENCH_mpc.json` is `perf_report`'s stdout, committed. Every field in
//! it is an exact work count, so the record rebuilds byte for byte: a
//! change that moves a forward-pass, gradient, iteration or outcome
//! count fails here until `./scripts/exhibits.sh` rewrites the record.

use std::process::Command;

#[test]
fn committed_bench_mpc_is_perf_report_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .output()
        .expect("perf_report runs");
    assert!(
        out.status.success(),
        "perf_report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = String::from_utf8(out.stdout).expect("perf_report prints UTF-8");
    assert_eq!(
        fresh,
        include_str!("../../../BENCH_mpc.json"),
        "BENCH_mpc.json is stale: rerun ./scripts/exhibits.sh"
    );
}
