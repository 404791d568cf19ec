#!/usr/bin/env bash
# Regenerates every committed exhibit, `results/<bin>.txt`, from the
# stdout of the `otem-bench` binary of the same name (the bins write no
# other file), and the MPC work record `BENCH_mpc.json` from
# `perf_report`'s stdout.
#   ./scripts/exhibits.sh
#
# Every exhibit and the record are deterministic, so a second run on the
# same commit leaves `git status --porcelain` empty; a diff after a
# change is that change's effect on them.
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/exhibit_bins.sh

echo "==> cargo build --release -p otem-bench --bins"
cargo build --release -p otem-bench --bins

target_dir="${CARGO_TARGET_DIR:-target}"
for bin in "${EXHIBIT_BINS[@]}"; do
    echo "==> ${bin} > results/${bin}.txt"
    "${target_dir}/release/${bin}" > "results/${bin}.txt"
done

echo "==> perf_report > BENCH_mpc.json"
"${target_dir}/release/perf_report" > BENCH_mpc.json
