#!/usr/bin/env bash
# Net Rust line count per crate against a git revision.
#
#   scripts/loc.sh <rev>
#
# Prints added, removed and net lines of `*.rs` files between <rev> and
# the working tree, one row per workspace crate plus `perfbench` and the
# root facade package (`src/`, `tests/`, `examples/`), then a total.
# Untracked files are not counted: `git add` new files first.
set -euo pipefail

rev=${1:?usage: scripts/loc.sh <rev>}
cd "$(git rev-parse --show-toplevel)"

git diff --numstat --no-renames "$rev" -- '*.rs' | awk '
{
    n = split($3, part, "/")
    if (part[1] == "crates" && n > 2) unit = "crates/" part[2]
    else if (part[1] == "perfbench") unit = "perfbench"
    else unit = "facade"
    add[unit] += $1
    del[unit] += $2
}
END {
    printf "%-18s %8s %8s %8s\n", "unit", "added", "removed", "net"
    for (u in add) {
        printf "%-18s %8d %8d %+8d\n", u, add[u], del[u], add[u] - del[u] | "sort"
        total_add += add[u]
        total_del += del[u]
    }
    close("sort")
    printf "%-18s %8d %8d %+8d\n", "total", total_add, total_del, total_add - total_del
}'
