#!/usr/bin/env bash
# Regenerates every committed exhibit, `results/<bin>.txt`, from the
# `otem-bench` binary of the same name (stdout only; the fig6/fig8 bins
# also rewrite their ignored `results/*.jsonl` streams), and the MPC
# work record `BENCH_mpc.json` from `perf_report`'s stdout.
#   ./scripts/exhibits.sh
#
# Every exhibit and the record are deterministic, so a second run on the
# same commit leaves `git status --porcelain` empty; a diff after a
# change is that change's effect on them.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
    ablation_forecast_noise
    ablation_horizon
    ablation_weights
    ambient_sweep
    architecture_space
    fig1_dual_thermal
    fig6_temperature
    fig7_teb
    fig8_lifetime
    fig9_power
    table1_ucap_sweep
)

echo "==> cargo build --release -p otem-bench --bins"
cargo build --release -p otem-bench --bins

target_dir="${CARGO_TARGET_DIR:-target}"
for bin in "${BINS[@]}"; do
    echo "==> ${bin} > results/${bin}.txt"
    "${target_dir}/release/${bin}" > "results/${bin}.txt"
done

echo "==> perf_report > BENCH_mpc.json"
"${target_dir}/release/perf_report" > BENCH_mpc.json
