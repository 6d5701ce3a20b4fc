#!/usr/bin/env bash
# Build the `monet` binary and the harness, then run the benchmark.
#
#   bench_e2e/run.sh                         every workload, end-to-end and per-layer
#   bench_e2e/run.sh --workload W --seed S   one workload
#   bench_e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#                                            the form BENCHMARK.json's driver uses
#   bench_e2e/run.sh --check-repeat          two sets back to back, compared to the bounds
#
# Builds go to $CARGO_TARGET_DIR when set (a relative value is taken
# from the directory run.sh was started in), else to <repo>/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p monet-serve --bin monet 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/bench_e2e" --root "$root" --monet "$target/release/monet" "$@"
