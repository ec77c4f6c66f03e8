#!/usr/bin/env bash
# Non-test size of the workspace: for every crate, the non-blank lines of
# `crates/<crate>/src/**/*.rs` (each file counted only up to its first
# `#[cfg(test)]`, so in-file unit tests are excluded) and the number of
# `pub fn` items in those lines, then the totals.
#
# Usage: scripts/loc.sh [repo-root]     (default: the repository this
# script lives in). Informational only: it always exits 0.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

printf '%-14s %8s %8s\n' crate lines 'pub fn'
total_lines=0
total_pub=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    read -r lines pub < <(
        find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            in_test { next }
            /[^[:space:]]/ { lines++ }
            /^[[:space:]]*pub fn / { pub++ }
            END { printf "%d %d\n", lines, pub }'
    )
    printf '%-14s %8d %8d\n' "$crate" "$lines" "$pub"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pub))
done
printf '%-14s %8d %8d\n' total "$total_lines" "$total_pub"
