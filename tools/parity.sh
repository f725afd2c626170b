#!/bin/sh
# Behaviour-parity oracle for refactors.
#
#   tools/parity.sh REV [OUTDIR]
#
# Builds git revision REV in a separate tree (tools/tree.sh) and the
# working tree in place, runs the deterministic outputs of both, and
# compares them:
#
#   bench.txt              bench/main.exe all (stdout)
#   bench.json             the catalog of that run (--json-out): every
#                          cell's params, metrics and metrics digest
#   check-SCENARIO.json    vsim check --scenario SCENARIO --depth 2 --json,
#                          every depth-2 schedule (--limit 100000)
#   fault-MODE.txt/.jsonl  vsim fault --drop 0.2 --rto-mode MODE --trace-out
#   vbench-WORKLOAD.txt    the sim_* lines of vbench run --seconds 0
#   repro-NAME.txt/.jsonl  vsim check --repro test/repro/NAME.repro
#                          --trace-out, and failing-NAME for each
#                          test/repro/failing/NAME.repro
#   vsim-RUN.txt/.jsonl    the measurement rigs' commands with --trace-out:
#                          ipc, move, move --from, page and load, each
#                          remote and (RUN-local) with --local, plus seq,
#                          penalty, a 0-byte remote move each way and two
#                          boot storms (the default 32 clients, and 80
#                          clients loading 64 pages); see rig_runs below
#
# The sweeps print only summaries, so each scenario also replays one
# committed fault schedule, whose digest (ops, ledger, frames, kernel
# stats and tables, medium counters) and JSONL trace (every packet,
# MoveTo/MoveFrom page train and GetPid broadcast) show a change inside
# a single run.  The failing reproducers cover the error paths a clean
# run never takes.  Every boot client books each page it receives as a
# traced Cpu_grant, so the boot traces check a broadcast's receiver
# order event by event.  Both trees replay the working tree's repro files.
#
# Prints IDENTICAL, or the name and the head of a diff of every output that
# differs.  Outputs land in OUTDIR (default _parity/) as base/ and head/,
# and each differing one as a unified diff in OUTDIR/diff/NAME.diff.  Exit
# status is 0 when identical, 1 when something differs, 2 on a usage or
# build error.  Run from the repository root.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/parity.sh REV [OUTDIR]" >&2
  exit 2
fi
tool=parity
rev=$1
out=${2:-_parity}
. "$(dirname "$0")/tree.sh"

scenarios="net crash shared shared-crash inet inet-crash failover"
workloads="ipc_pingpong cluster_read_mostly session_write_back fault_sweep boot_storm"

# rig_runs: one line per vsim rig run, its output name then its arguments.
rig_runs() {
  cat <<'EOF'
ipc ipc
ipc-local ipc --local
move move
move-local move --local
move-from move --from
move-from-local move --from --local
move-zero move --bytes 0
move-from-zero move --bytes 0 --from
page page
page-local page --local
load load
load-local load --local
seq seq
penalty penalty
boot boot
boot-80 boot --topology 10mb:40,3mb:40 --pages 64
EOF
}

rm -rf "$out"
mkdir -p "$out/base" "$out/head" "$out/diff"
out=$(cd "$out" && pwd)

# collect SRC DEST: run every output of the tree at SRC into DEST.
collect() {
  src=$1
  dst=$2
  build_tree "$src"
  bin=$src/_build/default
  (cd "$src" && "$bin/bench/main.exe" all --json-out "$dst/bench.json" \
    2>/dev/null) > "$dst/bench.txt"
  for s in $scenarios; do
    "$bin/bin/vsim.exe" check --scenario "$s" --depth 2 --limit 100000 \
      --json > "$dst/check-$s.json" || true
  done
  for m in fixed adaptive; do
    "$bin/bin/vsim.exe" fault --drop 0.2 --rto-mode "$m" \
      --trace-out "$dst/fault-$m.jsonl" > "$dst/fault-$m.txt"
  done
  for r in "$root"/test/repro/*.repro "$root"/test/repro/failing/*.repro; do
    name=$(basename "$r" .repro)
    case $r in */failing/*) name=failing-$name ;; esac
    "$bin/bin/vsim.exe" check --repro "$r" \
      --trace-out "$dst/repro-$name.jsonl" > "$dst/repro-$name.txt" || true
  done
  rig_runs | while read -r name args; do
    # $args is a word list: leave it unquoted.
    "$bin/bin/vsim.exe" $args --trace-out "$dst/vsim-$name.jsonl" \
      > "$dst/vsim-$name.txt"
  done
  for w in $workloads; do
    "$bin/benchmark/vbench.exe" run --workload "$w" --seconds 0 \
      | grep '^sim_' > "$dst/vbench-$w.txt" || true
  done
}

collect "$tree" "$out/base"
collect "$root" "$out/head"

for f in "$out"/base/*; do
  name=$(basename "$f")
  diff -u "$f" "$out/head/$name" > "$out/diff/$name.diff" || true
  [ -s "$out/diff/$name.diff" ] || rm -f "$out/diff/$name.diff"
done

if [ -z "$(ls "$out/diff")" ]; then
  echo "IDENTICAL ($sha vs working tree)"
  exit 0
fi
echo "DIFFERENT ($sha vs working tree):"
for d in "$out"/diff/*.diff; do
  echo "--- $(basename "$d" .diff)"
  head -20 "$d"
done
exit 1
