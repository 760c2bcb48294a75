#!/usr/bin/env bash
# Line counts of the Rust sources: per file and per crate, production
# lines (those above the file's first `#[cfg(test)]`; a whole file
# under a `tests/` directory is test code) and test lines; then the
# whole-tree number the ROADMAP quotes,
#   find crates src tests examples -name '*.rs' | xargs cat | wc -l
# Run from anywhere: `scripts/loc.sh`. Takes no options.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

find crates src tests examples -name '*.rs' | LC_ALL=C sort | while read -r f; do
    total=$(wc -l < "$f")
    case "/$f" in
    */tests/*) prod=0 ;;
    *)
        first=$(grep -n -m1 -F '#[cfg(test)]' "$f" | cut -d: -f1 || true)
        prod=$((${first:-$((total + 1))} - 1))
        ;;
    esac
    case "$f" in
    crates/*) crate=${f#crates/} crate=crates/${crate%%/*} ;;
    *) crate=root ;;
    esac
    printf '%s %s %s %s\n' "$crate" "$prod" "$((total - prod))" "$f"
done | awk '
    BEGIN { printf "%8s %8s  %s\n", "prod", "test", "file" }
    {
        printf "%8d %8d  %s\n", $2, $3, $4
        if (!($1 in p)) order[n++] = $1
        p[$1] += $2; t[$1] += $3; P += $2; T += $3
    }
    END {
        printf "\n%8s %8s  %s\n", "prod", "test", "crate"
        for (i = 0; i < n; i++) printf "%8d %8d  %s\n", p[order[i]], t[order[i]], order[i]
        printf "%8d %8d  all\n", P, T
        printf "\nwhole tree: %d\n", P + T
    }'
