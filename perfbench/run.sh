#!/usr/bin/env bash
# Builds the `troll` release binary and the benchmark from source, then
# runs the benchmark. Usage, from anywhere:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p troll --bin troll 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/troll-perfbench" --troll "$CARGO_TARGET_DIR/release/troll" "$@"
