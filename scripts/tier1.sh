#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#   ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --workspace --examples"
cargo build --workspace --examples

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Span-accounting gate: a short traced run must produce a balanced,
# properly nested span stream (trace_report exits 1 otherwise).
echo "==> trace_report --steps 20 (span accounting)"
cargo run -q --release -p otem-bench --bin trace_report -- --steps 20

# Adjoint-gradient gates: FD-vs-adjoint parity on the rollout objective
# (proptest, ≤1e-6 relative error), then a release smoke asserting the
# tape gradient's rollouts/solve stays horizon-independent.
echo "==> gradient parity (FD vs adjoint)"
cargo test -q --test gradient_parity

echo "==> perf_report --gradient adjoint (rollout-count smoke)"
cargo run -q --release -p otem-bench --bin perf_report -- --gradient adjoint

# Gauss-Newton gate: under a raised iteration budget the tape-curvature
# mode must reach certified convergence in strictly fewer iterations
# than first-order adjoint descent on the same warm-started problem.
echo "==> perf_report --gradient gauss-newton (iterations-to-tolerance smoke)"
cargo run -q --release -p otem-bench --bin perf_report -- --gradient gauss-newton

# Fleet gates: (1) a 64-vehicle campaign must be bit-identical across
# serial/static/work-stealing schedules and shard counts, (2) the
# JSONL-over-TCP serving layer must round-trip a simulate request on
# loopback and shut down cleanly, and (3) a deadline-constrained OTEM
# campaign on a virtual clock must reproduce bit-for-bit across
# schedules while exercising the anytime path (fleet_bench --smoke does
# all three and exits non-zero otherwise).
echo "==> fleet_bench --vehicles 64 --smoke (determinism + server round trip + virtual-clock deadline)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --vehicles 64 --smoke

# Serving-layer robustness gate: a seeded abuse schedule (malformed /
# truncated / oversized requests, a stalled client, a poisoned vehicle,
# queue-overflow shedding with a retrying client, graceful drain under
# load) against a live server — /healthz must answer correctly after
# every phase.
echo "==> fleet_bench --chaos-smoke (serving-layer robustness)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --chaos-smoke

# Observability gate: boot a live server, scrape /metrics and validate
# the Prometheus exposition with the test-suite parser, check the
# legacy /metrics.json snapshot and /debug/trace span sampling, then
# inject a poisoned vehicle and assert the flight recorder freezes a
# dump attributed to the originating request id.
echo "==> fleet_bench --obs-smoke (metrics exposition + flight recorder)"
cargo run -q --release -p otem-bench --bin fleet_bench -- --obs-smoke

# Benchmark build gate: perfbench is a workspace of its own, so no step
# above compiles it; a public-API change that breaks the benchmark must
# fail here rather than only in the benchmark run.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "tier-1: all green"
