#!/usr/bin/env bash
# Soak runner for rare failures: runs one test binary N times, each run
# under a timeout and optionally beside K busy loops, then prints
# `failed/N` and the de-duplicated failing assertions.
#
#   scripts/soak.sh <test-binary-or-name> <N> [--load K] [--timeout S] [-- <libtest args>]
#
# <test-binary-or-name> is an executable path (e.g. a test binary kept
# from another commit) or the name of a test target of the root package
# (`end_to_end` builds and runs `tests/end_to_end.rs`, debug profile).
# Arguments after `--` go to the binary, e.g. a test-name filter. The
# environment passes through, so `MGS_VWORKERS=1 scripts/soak.sh ...`
# soaks the single-worker configuration. Exit status is 1 if any run
# failed. A run that exceeds the timeout counts as failed and is
# reported as `timeout after Ss`.
set -u

usage() {
    sed -n '2,16p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
target=$1
runs=$2
shift 2
load=0
limit=120
while [ $# -gt 0 ]; do
    case "$1" in
        --load) load=${2:?--load needs a count}; shift 2 ;;
        --timeout) limit=${2:?--timeout needs seconds}; shift 2 ;;
        --) shift; break ;;
        *) usage ;;
    esac
done
case "$runs$load$limit" in *[!0-9]*) usage ;; esac

if [ -x "$target" ] && [ ! -d "$target" ]; then
    bin=$target
else
    cd "$(dirname "$0")/.." || exit 2
    bin=$(cargo test --offline --no-run --test "$target" 2>&1 |
        sed -n 's/^ *Executable .*(\(.*\))$/\1/p' | tail -1)
    [ -n "$bin" ] && [ -x "$bin" ] || {
        echo "soak: no test binary for '$target'" >&2
        exit 2
    }
fi

out=$(mktemp)
sigs=$(mktemp)
burners=()
cleanup() {
    [ ${#burners[@]} -eq 0 ] || kill "${burners[@]}" 2>/dev/null
    rm -f "$out" "$sigs"
}
trap cleanup EXIT
for _ in $(seq "$load"); do
    (while :; do :; done) &
    burners+=($!)
done

failed=0
for _ in $(seq "$runs"); do
    timeout "$limit" "$bin" "$@" >"$out" 2>&1
    status=$?
    [ $status -eq 0 ] && continue
    failed=$((failed + 1))
    if [ $status -eq 124 ]; then
        echo "timeout after ${limit}s" >>"$sigs"
    fi
    # One signature per distinct panic site: the location line plus the
    # message line that follows it. A task that fails takes its peers
    # down with it (scheduler poison, join failure, libtest's own
    # summary panic) — those repeat the first failure, so drop them.
    awk '/panicked at / {
             loc = $0; sub(/.*panicked at /, "", loc); sub(/:$/, "", loc)
             getline msg
             if (msg ~ /scheduler poisoned|processor thread panicked/) next
             print loc ": " msg
         }' "$out" | sort -u >>"$sigs"
done

echo "$failed/$runs failed: $bin $*"
sort "$sigs" | uniq -c | sort -rn
[ "$failed" -eq 0 ]
