#!/usr/bin/env bash
# Builds the benchmark and the `run_all` reproduction from the checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). `run_all`
# is built through the repository's own workspace, exactly as a user
# builds it; the benchmark is a separate workspace in this directory.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/bench || ! -f results/run_all.txt ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/, results/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p stp-bench --bin run_all >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stp-perfbench" "$@"
