#!/bin/sh
# Monomorphic per-event path check.
#
#   tools/monocheck.sh
#
# Lists the relocations to polymorphic compare and hash (caml_equal,
# caml_notequal, caml_compare, caml_hash and the ordering primitives)
# and to the polymorphic Stdlib.max and Stdlib.min in the native objects
# of the modules every simulated event runs through: Eventq, Engine,
# Proc, Cpu, Nic, Medium, Rto and Kernel.  Each one is a C call (or a
# call into one) made where an int comparison would do: `=` on a variant
# with a non-constant constructor, `max` on ints, a polymorphic Hashtbl
# (use Vsim.Itbl for int keys).
#
# Prints one line per offending symbol and object with its site count.
# Exit status is 0 when there is none, 1 when there is any, 2 when an
# object is missing.  Run from the repository root after `dune build`.
set -eu

objs="lib/sim/.vsim.objs/native/vsim__Eventq.o
lib/sim/.vsim.objs/native/vsim__Engine.o
lib/sim/.vsim.objs/native/vsim__Proc.o
lib/hw/.vhw.objs/native/vhw__Cpu.o
lib/net/.vnet.objs/native/vnet__Nic.o
lib/net/.vnet.objs/native/vnet__Medium.o
lib/core/.vkernel.objs/native/vkernel__Rto.o
lib/core/.vkernel.objs/native/vkernel__Kernel.o"

poly='^(caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal|hash)|camlStdlib\.(max|min)_[0-9]+)$'

found=0
for o in $objs; do
  f=_build/default/$o
  if [ ! -f "$f" ]; then
    echo "monocheck: $f missing; run dune build first" >&2
    exit 2
  fi
  # The symbol column of `objdump -r`, without its addend.
  hits=$(objdump -r "$f" | awk 'NF >= 3 { sub(/[-+]0x[0-9a-f]+$/, "", $3); print $3 }' \
    | grep -E "$poly" | sort | uniq -c) || true
  if [ -n "$hits" ]; then
    found=1
    echo "$hits" | while read -r n sym; do
      echo "$(basename "$f" .o): $sym x$n"
    done
  fi
done

if [ "$found" -eq 0 ]; then
  echo "monocheck: no polymorphic compare, hash, max or min on the per-event path"
fi
exit "$found"
