# The export-and-build code shared by tools/parity.sh and
# tools/hostgate.sh.  Source it from the repository root after setting
# $tool (the name errors are reported under) and $rev.  It sets
#
#   root   the repository root, which holds the working tree
#   sha    the commit $rev names
#   tree   a temporary directory holding an export of $sha, removed when
#          the sourcing script exits
#
# and defines build_tree DIR, which builds DIR with dune and exits 2 if
# that fails.  A usage error (not at the root, an unknown revision) also
# exits 2.  mktemp honours TMPDIR.

root=$(pwd)
if [ ! -f "$root/dune-project" ]; then
  echo "$tool: run from the repository root" >&2
  exit 2
fi
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "$tool: unknown revision $rev" >&2
  exit 2
}

# An exported tree, not a checkout: it leaves no worktree metadata in the
# repository and builds with its own _build.
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT INT TERM
git archive "$sha" | tar -x -C "$tree"

build_tree() {
  (cd "$1" && dune build 2>&1) >&2 || {
    echo "$tool: build failed in $1" >&2
    exit 2
  }
}
