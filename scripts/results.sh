#!/usr/bin/env bash
# The published artefact, regenerated or checked from one table: every
# committed file that is the output of an `mgs-bench` command, and the
# one invocation that produces it. A harness machine runs on one host
# worker, so each file repeats to the byte on any host.
#
#   scripts/results.sh [--check] [--quick]
#
# Without flags it rewrites the files in place (stdout only; progress
# lines go to the terminal). `--check` writes nothing: it compares each
# file with a fresh run and stops at the first that differs, naming it,
# with exit status 1. `--quick` keeps to the rows run at `--quick`
# scale (the goldens and the three BENCH_*.json: seconds, where the
# paper-scale rows take minutes).
set -euo pipefail

# file | mgs-bench arguments. A BENCH_*.json row names the file its
# command writes into the working directory; the other rows are stdout.
table='
results/table3.txt            | table3
results/table4.txt            | table4
results/figures.txt           | figures
results/fig11.txt             | fig11
results/fig12.txt             | fig12
results/summary.txt           | summary
results/ablation.txt          | ablation
results/golden/table3.w1.txt  | table3
results/golden/table4.w1.txt  | table4 --quick
results/golden/summary.w1.txt | summary --quick
BENCH_chaos.json              | chaos --quick
BENCH_scenario.json           | scenario --quick
BENCH_adaptive.json           | adaptive --quick
'

check=0
quick=0
for arg in "$@"; do
    case "$arg" in
        --check) check=1 ;;
        --quick) quick=1 ;;
        *) sed -n '2,14p' "$0" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."
root=$PWD
cargo build --release --offline -q -p mgs-bench
target=${CARGO_TARGET_DIR:-target}
case "$target" in /*) ;; *) target=$root/$target ;; esac
bin=$target/release/mgs-bench
# The worker override is a stress knob; a published number is what the
# binary prints without it.
unset MGS_VWORKERS

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"

while IFS='|' read -r file args; do
    file=${file// /}
    [ -n "$file" ] || continue
    case "$file" in
        results/golden/* | BENCH_*) ;;
        *) [ $quick -eq 0 ] || continue ;;
    esac
    echo "results.sh: $file <- mgs-bench$args" >&2
    # shellcheck disable=SC2086  # $args is a flag list, split on purpose
    "$bin" $args > stdout < /dev/null
    case "$file" in
        BENCH_*) fresh=$file ;;
        *) fresh=stdout ;;
    esac
    if [ $check -eq 1 ]; then
        cmp "$fresh" "$root/$file" || {
            echo "results.sh: $file differs from a fresh 'mgs-bench$args'" >&2
            exit 1
        }
    else
        cp "$fresh" "$root/$file"
    fi
done <<< "$table"
