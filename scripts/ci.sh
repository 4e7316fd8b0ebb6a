#!/usr/bin/env sh
# Tier-1 gate for the Baryon reproduction.
#
# The workspace is hermetic: it has zero external dependencies, so every
# step below runs with `--offline` and must succeed on a machine with no
# network and an empty crates.io cache. Adding a dependency that breaks
# this is a build regression.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --workspace --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

# The benchmark is a package of its own (empty `[workspace]`), so the
# workspace steps above never build it — yet it drives the public
# Fleet/FleetConfig/ShardLauncher API. Build and test it here so an API
# change that breaks the benchmark fails CI, not the next benchmark run.
echo "==> perfbench tests (separate package)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The full suite above already covers baryon-serve, but the serving
# contract is important enough to gate on explicitly: an ephemeral-port
# server must accept a job, backpressure a burst, and return results
# byte-identical to a direct in-process run.
echo "==> baryon-serve end-to-end smoke"
cargo test -q -p baryon-serve --offline --test e2e

# Chaos gate: the controller under aggressive seeded fault injection
# (transient flips + stuck cells far beyond any real part). The suite's
# seeds are fixed in the test source, so a failure here is a real
# regression in the recovery path, reproducible bit-for-bit — never flake.
echo "==> chaos fault-injection suite (fixed seeds)"
cargo test -q -p baryon-core --offline --test chaos_faults

# Crash-recovery gate: SIGKILL a serving process mid-run (after its job
# has written a checkpoint into the journal directory), restart a server
# on the same journal, and require the recovered job to finish with the
# byte-identical result of an uninterrupted run. The harness is a single
# self-contained binary (it forks itself as the server child), so the
# gate needs no curl, fixed ports, or startup sleeps.
echo "==> serve kill-and-resume gate"
cargo run --release -p baryon-serve --bin kill_resume --offline

# Hot-path oracle: every controller on every registry workload must hash
# to the goldens blessed before the data-oriented refactor. Any
# behaviour drift in the arena/memo/SoA structures fails here first.
echo "==> differential golden gate (10 controllers x 17 workloads)"
cargo test -q -p baryon-bench --release --offline --test differential_golden

# Fleet gate: one binary, three scenarios in a fixed order, each on a
# fresh coordinator over 3 real shard processes with its own journal
# root; it stops at the first failure and names the scenario. Every
# scenario requires gathered results byte-identical to a single-process
# run of the same spec.
#  - kill-mid-sweep: submit a batched grid sweep, SIGKILL one shard while
#    cells are in flight, and require the supervisor to restart it and
#    the gathered result to match. Also asserts the event stream's
#    progress is monotonic and /v1/metrics reports every shard under its
#    shard<i>. namespace.
#  - config-rollout: with a grid sweep in flight, stage a
#    degraded-but-valid policy (1 ms job deadline) and commit. The
#    rolling restart's canary must fail on the first shard and the fleet
#    must roll itself back: 409 rollout_failed, the slot marked bad, zero
#    lost jobs, and the gathered grid byte-identical. Then a benign
#    policy must commit cleanly (the generation propagating into results
#    and every shard's metrics) and roll back to the unstamped baseline.
#  - chaos-ladder: the degradation ladder under aggressive seeded fault
#    injection on every shard (torn/failed journal appends, silent
#    post-write corruption, read flips, fsync failures, post-CRC response
#    flips) plus a forced crash loop. One shard must exhaust its
#    crash-loop budget and be quarantined with singles failing over,
#    rotten checkpoint rotations must be quarantined down the fallback
#    ladder to a cold run, and an 8-cell sweep over the degraded fleet
#    must lose zero jobs and gather byte-identical to a fault-free run.
# To reproduce a chaos failure exactly, re-run with the seed and rates it
# printed, e.g.
#   BARYON_CHAOS_SEED=42 BARYON_CHAOS_CORRUPT_PPM=20000 ... fleet_gate
# (every BARYON_CHAOS_*_PPM knob honors the environment; the gate strips
# them from its own environment and hands them to the chaos-ladder shards
# only, and all default off outside that scenario, so nothing else in CI
# sees injected faults).
echo "==> fleet gate: kill-mid-sweep, config-rollout, chaos-ladder (3 shards each)"
cargo run --release -p baryon-fleet --bin fleet_gate --offline

# Throughput gate: the sim-throughput harness runs a small workload
# matrix through the baryon and simple controllers, interleaved pass for
# pass and timed on the thread CPU clock, and fails when any workload's
# baryon/simple ops/sec ratio drops below its per-workload floor, or when
# a checkpointed run's result differs from the plain run's. Both sides of
# every ratio run in the same pass, so host load moves them alike. It
# also refreshes the profiling document BENCH_sim_throughput.json at the
# repository root, including the fleet_submit control-plane figure
# (jobs/sec for trivial specs through a live 2-shard coordinator) and its
# latency gate: the fleet's single-job p50 must stay within 2x that of
# one baryon-serve process, measured interleaved in the same run.
echo "==> bench: sim-throughput (baryon/simple ratio floors + checkpoint identity + fleet latency gates)"
cargo run --release -p baryon-fleet --bin sim_throughput --offline

# Metadata footprint gate: runs the registry through baryon (flat remap
# table), hybrid2, and trimma (multi-level remap), refreshes
# BENCH_metadata.json at the repository root (footprint bytes, hot-level
# hit latency/rate and leaf lifecycle per workload), and
# fails when trimma's live footprint stops undercutting the flat table
# on a majority of workloads (override with BARYON_METADATA_MIN_WINS).
echo "==> bench: metadata footprint (trimma vs flat regression gate)"
cargo run --release -p baryon-bench --bin metadata_report --offline

echo "==> OK"
