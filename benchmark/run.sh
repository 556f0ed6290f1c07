#!/usr/bin/env bash
# Builds the benchmark and the etrain-svcd daemon it drives into one target
# directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check
#
# CARGO_TARGET_DIR defaults to .bench_build at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$root/.bench_build}")"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p etrain-svc --bin etrain-svcd
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/etrain-benchmark" "$@"
