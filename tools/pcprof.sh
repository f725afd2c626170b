#!/bin/sh
# Where a vbench workload's host time goes, by machine-code PC sampling:
#
#   tools/pcprof.sh WORKLOAD [SECONDS] [SEED] [SYMBOL]
#
# Builds tools/pcprof (a small executable that links vbench_lib; nothing
# under benchmark/ changes), runs WORKLOAD's measured reps for SECONDS
# (default 3) at SEED (default 1) with SIGPROF sampling the interrupted
# instruction pointer, and prints the top symbols and OCaml modules,
# after the minor, promoted and direct-major (too big for the minor
# heap) words each measured rep allocated.
# A sample inside caml_modify is booked to its caller, so a write
# barrier shows up where the store is.  Unlike an OCaml-level sampler,
# it sees C calls and leaf code that never polls.
#
# With SYMBOL, a symbol-name prefix as the table prints it (e.g.
# camlVworkload__Boot.client_rx), it also prints the 15 hottest
# instruction addresses inside the symbols that match, each with its
# objdump line.  A sample lands on the instruction after the one that
# held it up, so a stalled load shows as the line below it.
#
# x86-64 Linux only.  The kernel delivers SIGPROF at most once per
# tick, so the rate is capped at HZ: with HZ=250, 3 s gives about 750
# samples, and a share reads within 1-2 points.  Run from the
# repository root; exits 2 on a usage error or a failed build.
set -eu

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
  echo "usage: tools/pcprof.sh WORKLOAD [SECONDS] [SEED] [SYMBOL]" >&2
  exit 2
fi
if [ "$(uname -s)" != Linux ] || [ "$(uname -m)" != x86_64 ]; then
  echo "pcprof: x86-64 Linux only" >&2
  exit 2
fi
if [ ! -f dune-project ]; then
  echo "pcprof: run from the repository root" >&2
  exit 2
fi
dune build ./tools/pcprof/pcprof.exe >&2 || {
  echo "pcprof: build failed" >&2
  exit 2
}
exe=_build/default/tools/pcprof/pcprof.exe
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
nm -n "$exe" > "$work/syms"
objdump -d --no-show-raw-insn --disassemble=caml_modify "$exe" > "$work/modify"
if [ $# -lt 4 ]; then
  exec "$exe" "$1" "${2:-3}" "${3:-1}" "$work/syms" "$work/modify"
fi
# Disassemble each text symbol that starts with SYMBOL, from its address
# to the next symbol's.
awk -v p="$4" '
  NF == 3 && lo != "" && $1 != lo { print lo, $1; lo = "" }
  NF == 3 && lo == "" && $2 ~ /^[TtWw]$/ && index($3, p) == 1 { lo = $1 }
' "$work/syms" | while read -r lo hi; do
  objdump -d --no-show-raw-insn --start-address="0x$lo" \
    --stop-address="0x$hi" "$exe"
done > "$work/disasm"
if [ ! -s "$work/disasm" ]; then
  echo "pcprof: no text symbol starts with $4" >&2
  exit 2
fi
"$exe" "$1" "$2" "$3" "$work/syms" "$work/modify" "$4" "$work/disasm"
