#!/bin/sh
# Monomorphic per-event path check.
#
#   tools/monocheck.sh
#
# Lists the relocations to polymorphic compare and hash (caml_equal,
# caml_notequal, caml_compare, caml_hash and the ordering primitives),
# to the polymorphic Stdlib.max and Stdlib.min, and to the Stdlib.List
# lookups that compare keys polymorphically inside Stdlib (assoc,
# assoc_opt, mem, mem_assoc, remove_assoc) in the native objects of the
# modules every simulated event or frame runs through: Eventq, Engine,
# Proc, the Rng every backoff, jitter and think time draws from, Cpu,
# Nic, Frame, Medium, Fault, Gateway, Rto, Kernel, the Packet, Msg and
# Mem code every kernel packet passes through, the Fs and Disk code
# every file-server request and checker schedule runs, the file Server
# that answers those requests, the Client and its Cache every file
# read and write goes through, and the Boot rig's per-frame handlers.
# Each one is a C call (or a call into one) made where an int comparison
# would do: `=` on a variant with a non-constant constructor, `max` on
# ints, `List.assoc_opt` on an int key.
#
# Blind spot: a polymorphic Hashtbl is not caught.  Its find, replace
# and mem call caml_hash and compare keys inside Stdlib, so the caller's
# object holds only a relocation to the Stdlib function, whose symbol
# differs from a Hashtbl.Make table's only in its numeric suffix.  Fs.o
# kept five polymorphic Hashtbl.find_opt sites and passed this check.
# Key int tables with Vsim.Itbl and review new Hashtbl uses by eye.
#
# Prints one line per offending symbol and object with its site count.
# Exit status is 0 when there is none, 1 when there is any, 2 when an
# object is missing.  Run from the repository root after `dune build`.
set -eu

objs="lib/sim/.vsim.objs/native/vsim__Eventq.o
lib/sim/.vsim.objs/native/vsim__Engine.o
lib/sim/.vsim.objs/native/vsim__Proc.o
lib/sim/.vsim.objs/native/vsim__Rng.o
lib/hw/.vhw.objs/native/vhw__Cpu.o
lib/net/.vnet.objs/native/vnet__Nic.o
lib/net/.vnet.objs/native/vnet__Frame.o
lib/net/.vnet.objs/native/vnet__Medium.o
lib/net/.vnet.objs/native/vnet__Fault.o
lib/net/.vnet.objs/native/vnet__Gateway.o
lib/core/.vkernel.objs/native/vkernel__Rto.o
lib/core/.vkernel.objs/native/vkernel__Kernel.o
lib/core/.vkernel.objs/native/vkernel__Packet.o
lib/core/.vkernel.objs/native/vkernel__Msg.o
lib/core/.vkernel.objs/native/vkernel__Mem.o
lib/vfs/.vfs.objs/native/vfs__Fs.o
lib/vfs/.vfs.objs/native/vfs__Disk.o
lib/vfs/.vfs.objs/native/vfs__Cache.o
lib/vfs/.vfs.objs/native/vfs__Client.o
lib/vfs/.vfs.objs/native/vfs__Server.o
lib/workload/.vworkload.objs/native/vworkload__Boot.o"

poly='^(caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal|hash)|camlStdlib\.(max|min)_[0-9]+|camlStdlib__List\.(assoc|assoc_opt|mem|mem_assoc|remove_assoc)_[0-9]+)$'

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
  echo "monocheck: no polymorphic compare, hash, max, min or List lookup on the per-event path"
fi
exit "$found"
