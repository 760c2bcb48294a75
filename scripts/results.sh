#!/usr/bin/env bash
# The published artefact, regenerated or checked from one table: every
# committed file that is the output of an `mgs-bench` command, and the
# one invocation that produces it. A harness machine runs on one host
# worker, so each file repeats to the byte on any host.
#
#   scripts/results.sh [--check] [--quick]
#
# Without flags it rewrites the files in place (progress lines go to
# the terminal). `--check` writes nothing: it compares each file with a
# fresh run and stops at the first that differs, naming it, with exit
# status 1. `--quick` keeps to the rows run at `--quick` scale (the
# goldens and the three BENCH_*.json: seconds, where the paper-scale
# rows take minutes). Each row's wall seconds, and the total, go to
# stderr.
set -euo pipefail
# `$EPOCHREALTIME` and awk agree on the decimal point.
export LC_ALL=C

# mgs-bench arguments | the files the run produces. An output is
# `fresh:committed` — the file the command leaves in its working
# directory (`-` for its stdout) and the committed file it must equal —
# or one path, the same in both.
table='
table3          | -:results/table3.txt
paper           | results/table4.txt results/figures.txt results/fig11.txt results/fig12.txt results/summary.txt
ablation        | -:results/ablation.txt
table3          | -:results/golden/table3.w1.txt
paper --quick   | results/table4.txt:results/golden/table4.w1.txt results/figures.txt:results/golden/figures.w1.txt results/fig11.txt:results/golden/fig11.w1.txt results/fig12.txt:results/golden/fig12.w1.txt results/summary.txt:results/golden/summary.w1.txt
chaos --quick   | BENCH_chaos.json
scenario --quick | BENCH_scenario.json
adaptive --quick | BENCH_adaptive.json
'

check=0
quick=0
for arg in "$@"; do
    case "$arg" in
        --check) check=1 ;;
        --quick) quick=1 ;;
        *) sed -n '2,15p' "$0" >&2; exit 2 ;;
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
start=$EPOCHREALTIME

while IFS='|' read -r command produced; do
    [ -n "${produced// /}" ] || continue
    read -ra args <<< "$command"
    read -ra outputs <<< "$produced"
    case "${outputs[0]#*:}" in
        results/golden/* | BENCH_*) ;;
        *) [ $quick -eq 0 ] || continue ;;
    esac
    # Each run starts in an empty directory, so a file it failed to
    # write cannot be an earlier run's.
    rm -rf "$scratch/run"
    mkdir "$scratch/run"
    cd "$scratch/run"
    echo "results.sh: mgs-bench ${args[*]}" >&2
    row=$EPOCHREALTIME
    "$bin" "${args[@]}" > "$scratch/stdout" < /dev/null
    for output in "${outputs[@]}"; do
        fresh=${output%%:*}
        file=${output#*:}
        [ "$fresh" != - ] || fresh=$scratch/stdout
        if [ $check -eq 1 ]; then
            cmp "$fresh" "$root/$file" || {
                echo "results.sh: $file differs from a fresh 'mgs-bench ${args[*]}'" >&2
                exit 1
            }
        else
            cp "$fresh" "$root/$file"
        fi
    done
    awk -v a="$row" -v b="$EPOCHREALTIME" -v args="${args[*]}" \
        'BEGIN { printf "results.sh: %7.1f s  mgs-bench %s\n", b - a, args }' >&2
done <<< "$table"
awk -v a="$start" -v b="$EPOCHREALTIME" \
    'BEGIN { printf "results.sh: %7.1f s  total\n", b - a }' >&2
