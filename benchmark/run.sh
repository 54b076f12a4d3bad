#!/usr/bin/env bash
# Builds the benchmark (release, offline, its own manifest) and runs it.
# Every argument goes to `rtcac-benchmark run`; the driver appends
# `--workload NAME --seed N --seconds N --trace 0|1`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"
