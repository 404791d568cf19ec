#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#   ./scripts/tier1.sh
#
# Every correctness assertion lives in a test that `cargo test` runs
# (the root manifest's `default-members` makes a bare `cargo test` cover
# the facade package and every member crate), plus the benchmark's own
# output checks, run once each at the end. No step writes a tracked
# file, so on a clean checkout `git status --porcelain` stays empty.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --workspace --examples"
cargo build --workspace --examples

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a deleted or renamed item is an error, not a warning.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Benchmark build gate: perfbench is a workspace of its own, so no step
# above compiles it; a public-API change that breaks the benchmark must
# fail here rather than only in the benchmark run. `--locked` makes a
# dependency change in any crate the benchmark builds fail here instead
# of silently rewriting perfbench/Cargo.lock.
echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

# Benchmark smoke run: one short run of each workload, untraced and (for
# mpc_loop) traced. perfbench's last line is its JSON report, whose
# `correct` field is the conjunction of its output checks (checksums,
# traced-equals-untraced streams, every vehicle timed), so a broken
# output check fails here rather than only in a full benchmark run.
for workload in "mpc_loop --trace 0" "mpc_loop --trace 1" "fleet_mix --trace 0"; do
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
