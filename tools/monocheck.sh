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
# Nic, Frame, Medium, Fault, Gateway, every module of the kernel
# library (found by glob, so a new one cannot be missed: the kernel's
# parts, Rto, the Packet, Msg and Mem code every kernel packet passes
# through, the Pid every packet and process lookup takes apart), the Fs
# and Disk code
# every file-server request and checker schedule runs, the file Server
# that answers those requests, the Client and its Cache every file
# read and write goes through, and the Boot rig's per-frame handlers.
# Each one is a C call (or a call into one) made where an int comparison
# would do: `=` on a variant with a non-constant constructor, `max` on
# ints, `List.assoc_opt` on an int key.
#
# A Stdlib Hashtbl is caught too.  Its find, replace and mem hash and
# compare keys inside Stdlib (caml_hash and caml_compare for a
# polymorphic table, the functor's closures for a Hashtbl.Make one),
# so the caller's object holds only a relocation to a
# camlStdlib__Hashtbl symbol, and any such relocation fails the check.
# Key int tables with Vsim.Itbl.  Three tables are not int-keyed and
# stay, allowed up to their present site counts (a new site fails): the
# event-kind name table in Eventq, the Gateway's window of frames it
# has forwarded, and the file Client's cached_opens, keyed by name.
#
# Prints one line per offending symbol and object with its site count.
# Exit status is 0 when there is none, 1 when there is any, 2 when an
# object is missing.  Run from the repository root after `dune build`.
set -eu

objs="lib/sim/.vsim.objs/native/vsim__Itbl.o
lib/sim/.vsim.objs/native/vsim__Eventq.o
lib/sim/.vsim.objs/native/vsim__Engine.o
lib/sim/.vsim.objs/native/vsim__Proc.o
lib/sim/.vsim.objs/native/vsim__Rng.o
lib/hw/.vhw.objs/native/vhw__Cpu.o
lib/net/.vnet.objs/native/vnet__Nic.o
lib/net/.vnet.objs/native/vnet__Frame.o
lib/net/.vnet.objs/native/vnet__Medium.o
lib/net/.vnet.objs/native/vnet__Fault.o
lib/net/.vnet.objs/native/vnet__Gateway.o
lib/vfs/.vfs.objs/native/vfs__Fs.o
lib/vfs/.vfs.objs/native/vfs__Disk.o
lib/vfs/.vfs.objs/native/vfs__Cache.o
lib/vfs/.vfs.objs/native/vfs__Client.o
lib/vfs/.vfs.objs/native/vfs__Server.o
lib/workload/.vworkload.objs/native/vworkload__Boot.o
lib/check/.vcheck.objs/native/vcheck__Workload.o"

poly='^(caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal|hash)|camlStdlib\.(max|min)_[0-9]+|camlStdlib__List\.(assoc|assoc_opt|mem|mem_assoc|remove_assoc)_[0-9]+)$'

# Object, Hashtbl symbol without its numeric suffix, sites allowed.
hashtbl_allowed="vsim__Eventq camlStdlib__Hashtbl 1
vsim__Eventq camlStdlib__Hashtbl.create_inner 1
vsim__Eventq camlStdlib__Hashtbl.find_opt 1
vsim__Eventq camlStdlib__Hashtbl.replace 1
vnet__Gateway camlStdlib__Hashtbl.Make 1
vnet__Gateway camlStdlib__Hashtbl.create_inner 1
vnet__Gateway camlStdlib__Hashtbl.add 1
vnet__Gateway camlStdlib__Hashtbl.mem 2
vnet__Gateway camlStdlib__Hashtbl.remove 1
vfs__Client camlStdlib__Hashtbl 1
vfs__Client camlStdlib__Hashtbl.create_inner 1
vfs__Client camlStdlib__Hashtbl.find_opt 1
vfs__Client camlStdlib__Hashtbl.mem 1
vfs__Client camlStdlib__Hashtbl.remove 1
vfs__Client camlStdlib__Hashtbl.replace 1
vfs__Client camlStdlib__Hashtbl.reset 1"

kernel_objs=$(cd _build/default 2>/dev/null \
  && ls lib/core/.vkernel.objs/native/vkernel__*.o 2>/dev/null) || true
if [ -z "$kernel_objs" ]; then
  echo "monocheck: no kernel objects; run dune build first" >&2
  exit 2
fi

found=0
for o in $objs $kernel_objs; do
  f=_build/default/$o
  if [ ! -f "$f" ]; then
    echo "monocheck: $f missing; run dune build first" >&2
    exit 2
  fi
  # The symbol column of `objdump -r`, without its addend.
  syms=$(objdump -r "$f" | awk 'NF >= 3 { sub(/[-+]0x[0-9a-f]+$/, "", $3); print $3 }')
  obj=$(basename "$f" .o)
  hits=$(echo "$syms" | grep -E "$poly" | sort | uniq -c) || true
  if [ -n "$hits" ]; then
    found=1
    echo "$hits" | while read -r n sym; do
      echo "$obj: $sym x$n"
    done
  fi
  tables=$(echo "$syms" | grep '^camlStdlib__Hashtbl' | sed -E 's/_[0-9]+$//' \
    | sort | uniq -c) || true
  if [ -n "$tables" ]; then
    over=$(echo "$tables" | while read -r n sym; do
      allowed=$(echo "$hashtbl_allowed" \
        | awk -v o="$obj" -v s="$sym" '$1 == o && $2 == s { print $3 }')
      if [ "$n" -gt "${allowed:-0}" ]; then
        echo "$obj: $sym x$n (allowed ${allowed:-0})"
      fi
    done)
    if [ -n "$over" ]; then
      found=1
      echo "$over"
    fi
  fi
done

if [ "$found" -eq 0 ]; then
  echo "monocheck: no polymorphic compare, hash, max, min, List lookup or"
  echo "  Stdlib Hashtbl beyond the allowed tables on the per-event path"
fi
exit "$found"
