#!/bin/sh
# Where a vbench workload's host time goes, by machine-code PC sampling:
#
#   tools/pcprof.sh WORKLOAD [SECONDS] [SEED]
#
# Builds tools/pcprof (a small executable that links vbench_lib; nothing
# under benchmark/ changes), runs WORKLOAD's measured reps for SECONDS
# (default 3) at SEED (default 1) with SIGPROF sampling the interrupted
# instruction pointer, and prints the top symbols and OCaml modules.
# A sample inside caml_modify is booked to its caller, so a write
# barrier shows up where the store is.  Unlike an OCaml-level sampler,
# it sees C calls and leaf code that never polls.
#
# x86-64 Linux only.  The kernel delivers SIGPROF at most once per
# tick, so the rate is capped at HZ: with HZ=250, 3 s gives about 750
# samples, and a share reads within 1-2 points.  Run from the
# repository root; exits 2 on a usage error or a failed build.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: tools/pcprof.sh WORKLOAD [SECONDS] [SEED]" >&2
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
"$exe" "$1" "${2:-3}" "${3:-1}" "$work/syms" "$work/modify"
