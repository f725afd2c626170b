#!/bin/sh
# Host-speed gate: the repository benchmark (benchmark/, vbench) run on
# git revision REV and on the working tree, judged pairwise.
#
#   tools/hostgate.sh REV
#
# Builds REV in a separate tree (tools/tree.sh) and the working tree in
# place.  Then it makes $passes passes; each pass runs every workload
# once per side, $seconds seconds of measured reps at the default seed,
# REV first on odd passes and the working tree first on even ones, so a
# slow spell of a shared machine lands on both sides.  vbench compare
# judges the working tree's runs against REV's under the bounds of
# BENCHMARK.json (see benchmark/README.md).
#
# The runs land in _hostgate/ as base.json and head.json, and the
# comparison table as _hostgate/compare.txt, which is also printed.
# Exits with vbench compare's status: 0, or 1 when a row reads REGRESSED.
# A usage error, a failed build or a benchmark run that reports a wrong
# result exits 2.  Run from the repository root.
#
# The two constants were chosen by running a tree against itself and
# against a slowed copy; doc/BENCHMARKS.md records the calibration.
set -eu

passes=5
seconds=5

if [ $# -ne 1 ]; then
  echo "usage: tools/hostgate.sh REV" >&2
  exit 2
fi
tool=hostgate
rev=$1
. "$(dirname "$0")/tree.sh"

workloads="ipc_pingpong cluster_read_mostly session_write_back fault_sweep boot_storm"
out=$root/_hostgate
rm -rf "$out"
mkdir -p "$out"

build_tree "$tree"
build_tree "$root"

# run_vbench SRC SIDE WORKLOAD: one vbench run of the tree at SRC,
# appended to $out/SIDE.json.
run_vbench() {
  (cd "$1" && _build/default/benchmark/vbench.exe run --workload "$3" \
     --seconds "$seconds" --json-out "$out/$2.json" > /dev/null) || {
    echo "hostgate: vbench run --workload $3 failed in $1" >&2
    exit 2
  }
}

pass=1
while [ "$pass" -le "$passes" ]; do
  for w in $workloads; do
    if [ $((pass % 2)) -eq 1 ]; then
      run_vbench "$tree" base "$w"
      run_vbench "$root" head "$w"
    else
      run_vbench "$root" head "$w"
      run_vbench "$tree" base "$w"
    fi
  done
  echo "hostgate: pass $pass of $passes done" >&2
  pass=$((pass + 1))
done

status=0
"$root/_build/default/benchmark/vbench.exe" compare \
  --parent "$out/base.json" --change "$out/head.json" > "$out/compare.txt" \
  || status=$?
cat "$out/compare.txt"
echo "hostgate: $sha vs working tree, $passes passes of ${seconds} s: exit $status"
exit "$status"
