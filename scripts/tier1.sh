#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#   ./scripts/tier1.sh
#
# Every correctness assertion lives in a test that `cargo test` runs
# (the root manifest's `default-members` makes a bare `cargo test` cover
# the facade package and every member crate), plus the benchmark's own
# output checks, run once each at the end, and the committed exhibits,
# which must reproduce. No step writes a tracked file, so on a clean
# checkout `git status --porcelain` stays empty.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --workspace --examples"
cargo build --workspace --examples

# A build proves an example compiles, not that it runs: each workspace
# example (the root ones and every member crate's) runs once in release
# and must exit zero (each takes well under a second). Their output is
# not checked, only discarded. A bare `--example` resolves the name
# across the default members.
for example in examples/*.rs crates/*/examples/*.rs; do
    example=$(basename "$example" .rs)
    echo "==> cargo run --release --example ${example}"
    cargo run --release --quiet --example "$example" > /dev/null
done

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a deleted or renamed item is an error, not a warning.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Exhibit gate: every committed `results/<bin>.txt` and the work record
# `BENCH_mpc.json` must reproduce byte for byte (all are deterministic;
# `scripts/exhibits.sh` rewrites them after a change that moves them).
# The fresh outputs go to a temporary directory, never over the tracked
# files; no exhibit bin writes any other file.
source scripts/exhibit_bins.sh
# The list and the committed files must match one to one: an exhibit
# left out of EXHIBIT_BINS would never be checked, and a listed bin
# without a committed file has nothing to be checked against.
echo "==> exhibit list vs results/*.txt"
unlisted=()
for committed in results/*.txt; do
    bin=$(basename "$committed" .txt)
    [[ " ${EXHIBIT_BINS[*]} " == *" ${bin} "* ]] || unlisted+=("$committed")
done
uncommitted=()
for bin in "${EXHIBIT_BINS[@]}"; do
    [[ -f "results/${bin}.txt" ]] || uncommitted+=("$bin")
done
if ((${#unlisted[@]} + ${#uncommitted[@]})); then
    echo "exhibits without a bin in scripts/exhibit_bins.sh: ${unlisted[*]:-none}" >&2
    echo "bins in scripts/exhibit_bins.sh without results/<bin>.txt: ${uncommitted[*]:-none}" >&2
    exit 1
fi
# Every otem-bench bin is an exhibit or the work record: a bin outside
# EXHIBIT_BINS and perf_report would escape the reproduction check
# below. The manifest's `[[bin]]` entries and the files cargo
# auto-discovers under src/bin/ must both equal that list.
echo "==> otem-bench bins vs EXHIBIT_BINS + perf_report"
expected=$(printf '%s\n' "${EXHIBIT_BINS[@]}" perf_report | sort)
declared=$(awk '/^\[\[bin\]\]/ { bin = 1; next } bin && /^name = / { gsub(/"/, "", $3); print $3; bin = 0 }' \
    crates/bench/Cargo.toml | sort)
discovered=$(for file in crates/bench/src/bin/*.rs; do basename "$file" .rs; done | sort)
for found in "declared:${declared}" "discovered:${discovered}"; do
    if [[ "${found#*:}" != "$expected" ]]; then
        echo "otem-bench bins (${found%%:*}) differ from EXHIBIT_BINS + perf_report:" >&2
        diff <(echo "$expected") <(echo "${found#*:}") >&2 || true
        exit 1
    fi
done
echo "==> cargo build --release -p otem-bench --bins"
cargo build --release -p otem-bench --bins
target_dir="${CARGO_TARGET_DIR:-target}"
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT
stale=()
for bin in "${EXHIBIT_BINS[@]}" perf_report; do
    committed="results/${bin}.txt"
    [[ "$bin" == perf_report ]] && committed=BENCH_mpc.json
    echo "==> ${bin} vs ${committed}"
    "${target_dir}/release/${bin}" > "${fresh}/${bin}"
    if ! cmp -s "${fresh}/${bin}" "$committed"; then
        diff -u "$committed" "${fresh}/${bin}" | head -n 20 >&2 || true
        stale+=("$committed")
    fi
done
if ((${#stale[@]})); then
    echo "exhibits no longer reproduce (rerun ./scripts/exhibits.sh and explain the change): ${stale[*]}" >&2
    exit 1
fi

# Benchmark build gate: perfbench is a workspace of its own, so no step
# above compiles it; a public-API change that breaks the benchmark must
# fail here rather than only in the benchmark run. `--locked` makes a
# dependency change in any crate the benchmark builds fail here instead
# of silently rewriting perfbench/Cargo.lock.
echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

# Benchmark smoke run: one short run of each workload, untraced and
# traced, plus serve_mix, the one run that drives the fleet server's
# HTTP path (/simulate, /metrics). perfbench's last line is its
# JSON report, whose `correct` field is the conjunction of its output
# checks (checksums, traced-equals-untraced streams, every vehicle
# timed), so a broken output check fails here rather than only in a full
# benchmark run.
for workload in "mpc_loop --trace 0" "mpc_loop --trace 1" "fleet_mix --trace 0" "fleet_mix --trace 1" "serve_mix --trace 0"; do
    echo "==> perfbench --workload ${workload} --seconds 1"
    # The workload string is split on purpose. perfbench exits non-zero
    # when a check fails; the case below reports that from its last line.
    last=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml \
        -- --workload ${workload} --seconds 1 | tail -n 1) || true
    case "$last" in
        *'"correct":true'*) ;;
        *)
            echo "perfbench --workload ${workload}: output check failed: ${last}" >&2
            exit 1
            ;;
    esac
done

echo "tier-1: all green"
