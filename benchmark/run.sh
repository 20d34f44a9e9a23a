#!/usr/bin/env bash
# The benchmark's one command: build the package (offline; it is its own
# cargo workspace), then run it.
#
#   benchmark/run.sh                      every workload end to end, then the
#                                         traced per-layer pass; tables on
#                                         stdout, benchmark/out/{e2e,layers}.json
#   benchmark/run.sh <arguments>          the binary with those arguments, e.g.
#       --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       selfcheck | run | trace [--quick] [--seed <n>] [--seconds <s>]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"
if [ "$#" -eq 0 ]; then
    "$bin" run --out "$here/out"
    "$bin" trace --out "$here/out"
else
    exec "$bin" "$@" --out "$here/out"
fi
