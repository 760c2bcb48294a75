#!/usr/bin/env bash
# The benchmark's one command. With no arguments: every workload,
# untraced then traced, every metric printed by name (two to three
# minutes). The harness calls it as
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
# and reads the last line of stdout. Builds offline on first use;
# CARGO_TARGET_DIR is honoured if set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
