#!/bin/sh
# Lines added, removed and net per top-level directory since a revision.
#
#   tools/netlines.sh REV
#
# Reads `git diff --numstat REV`, which compares REV with the working
# tree (a new file counts once it is staged; a renamed one counts as
# removed and added), and prints one row per top-level directory, files
# at the root under `.`, then a total.  Each row gives lines added,
# removed and net, then the net of its `.ml` and of its `.mli` files
# apart: an interface's documentation is not the code it describes.
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

git diff --numstat --no-renames "$1" | awk -F '\t' '
  $3 == "ISSUE.md" || $3 == "CHANGES.md" || $3 ~ /^BENCH_[^\/]*\.json$/ { next }
  {
    dir = ($3 ~ /\//) ? substr($3, 1, index($3, "/") - 1) : "."
    if (!(dir in add)) {
      add[dir] = 0; del[dir] = 0; ml[dir] = 0; mli[dir] = 0; dirs[++n] = dir
    }
    if ($1 == "-") next
    add[dir] += $1; del[dir] += $2
    if ($3 ~ /\.ml$/) ml[dir] += $1 - $2
    if ($3 ~ /\.mli$/) mli[dir] += $1 - $2
  }
  END {
    printf "%-12s %8s %8s %8s %8s %8s\n", "dir", "added", "removed", "net",
      ".ml", ".mli"
    for (i = 1; i <= n; i++) {
      d = dirs[i]
      printf "%-12s %8d %8d %+8d %+8d %+8d\n", d, add[d], del[d],
        add[d] - del[d], ml[d], mli[d]
      ta += add[d]; td += del[d]; tml += ml[d]; tmli += mli[d]
    }
    printf "%-12s %8d %8d %+8d %+8d %+8d\n", "total", ta, td, ta - td, tml,
      tmli
  }'
