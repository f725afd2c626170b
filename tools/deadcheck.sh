#!/bin/sh
# Dead-export check.
#
#   tools/deadcheck.sh
#
# Lists every `val` declared in a lib/**/*.mli whose name never occurs
# as a whole word in any .ml under lib/, bin/, bench/, benchmark/,
# examples/ or test/ other than the module's own implementation (the .ml
# beside the .mli).  Such a value is exported but has no caller and no
# test; delete it from the interface, and from the implementation if the
# module does not use it either.
#
# The match is word-level, so a name shared with any other identifier
# anywhere counts as used: the check can miss a dead export, never
# invent one.  There is no allowlist.
#
# Prints one line per dead export as MODULE.NAME (file), and exits 0
# when there is none, 1 when there is any.  Run from the repository
# root; it reads sources only and needs no build.
set -eu

if [ ! -f dune-project ]; then
  echo "deadcheck: run from the repository root" >&2
  exit 2
fi

dirs="lib bin bench benchmark examples test"
mls=$(find $dirs -name '*.ml' -not -path '*/_build/*' | sort)

found=0
for mli in $(find lib -name '*.mli' -not -path '*/_build/*' | sort); do
  own=${mli%.mli}.ml
  others=$(printf '%s\n' $mls | grep -vxF "$own")
  mod=$(basename "$mli" .mli)
  names=$(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" \
    | sort -u)
  for n in $names; do
    # shellcheck disable=SC2086
    if ! grep -qw -- "$n" $others; then
      found=1
      echo "$mod.$n ($mli)" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'
    fi
  done
done

if [ "$found" -eq 0 ]; then
  echo "deadcheck: every exported value has a caller outside its own module"
fi
exit "$found"
