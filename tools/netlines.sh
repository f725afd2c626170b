#!/bin/sh
# Lines added, removed and net per top-level directory since a revision.
#
#   tools/netlines.sh REV
#
# Reads `git diff --numstat REV`, which compares REV with the working
# tree (a new file counts once it is staged), and prints one row per
# top-level directory, files at the root under `.`, then a total.
# ISSUE.md, CHANGES.md and the catalog baselines (BENCH_*.json), all at
# the root, are left out: they record a change rather than make it.
# Binary files count no lines.  Exits 2 on a usage error or an unknown
# revision.  Run from the repository root.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: tools/netlines.sh REV" >&2
  exit 2
fi
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
  echo "netlines: unknown revision $1" >&2
  exit 2
}

git diff --numstat "$1" | awk -F '\t' '
  $3 == "ISSUE.md" || $3 == "CHANGES.md" || $3 ~ /^BENCH_[^\/]*\.json$/ { next }
  {
    dir = ($3 ~ /\//) ? substr($3, 1, index($3, "/") - 1) : "."
    if (!(dir in add)) { add[dir] = 0; del[dir] = 0; dirs[++n] = dir }
    if ($1 != "-") { add[dir] += $1; del[dir] += $2 }
  }
  END {
    printf "%-12s %8s %8s %8s\n", "dir", "added", "removed", "net"
    for (i = 1; i <= n; i++) {
      d = dirs[i]
      printf "%-12s %8d %8d %+8d\n", d, add[d], del[d], add[d] - del[d]
      ta += add[d]; td += del[d]
    }
    printf "%-12s %8d %8d %+8d\n", "total", ta, td, ta - td
  }'
