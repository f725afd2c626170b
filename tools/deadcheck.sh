#!/bin/sh
# Dead-export check.
#
#   tools/deadcheck.sh
#
# Lists every `val` declared in a lib/**/*.mli that no .ml under lib/,
# bin/, bench/, benchmark/, examples/ or test/ uses, other than the
# module's own implementation (the .ml beside the .mli).  Such a value
# is exported but has no caller and no test; delete it from the
# interface, and from the implementation if the module does not use it
# either.
#
# It also lists every optional label (`?label:`) that such an .mli
# declares and that no .ml outside the module passes, as `~label` or
# `?label`.  Such an option has one value in every call; make it a
# constant, and delete the branches that only another value reaches.
#
# Comments are stripped before matching.  A use is then either a
# qualified reference (`.name`, as in `Mod.name` or `Alias.name`) in
# any of those files, or the bare word in a file that opens the module
# (`open`, `let open` or `Mod.(...)` naming it anywhere in the path, as
# `let open Isa.Syscall in` does for the values of isa.mli).
#
# What it can miss: a dead value whose name is also a record field, or
# a value of any module reached by its path (`.size` is also
# `Mem.size`, and a dead `Pid.hash` read as used because `Itbl.hash`
# is called), counts as used, as does one a file that opens its module
# names in a string or as a local variable.  An option counts as passed
# when any other .ml has its label as a `~label` or `?label` word, so
# one whose label another function also takes, or that a file passes
# to a function of another module, is missed; an option its own module
# passes to itself is reported.  It never reports a value or an option
# that is used.  There is no allowlist.
#
# Prints one line per dead export as MODULE.NAME (file), and one per
# unpassed option as MODULE ?LABEL (file); exits 0 when there is none,
# 1 when there is any.  Run from the repository
# root; it reads sources only and needs no build.
set -eu

if [ ! -f dune-project ]; then
  echo "deadcheck: run from the repository root" >&2
  exit 2
fi

dirs="lib bin bench benchmark examples test"
mls=$(find $dirs -name '*.ml' -not -path '*/_build/*' | sort)

stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT

# Blank out OCaml comments, which nest, keeping newlines.  String and
# character literals are copied whole (in comments too, as the lexer
# reads them), so a "(*" inside one opens nothing.
cat >"$stripped/strip.pl" <<'PERL'
local $/;
my $s = <>;
my ($o, $d) = ("", 0);
while ((pos($s) // 0) < length $s) {
  if ($s =~ /\G("(?:[^"\\]|\\.)*"|\{([a-z_]*)\|.*?\|\2\}|'(?:[^\\']|\\[^']+)')/gcs
      || $s =~ /\G([A-Za-z0-9_][A-Za-z0-9_']*)/gc) {
    my $t = $1;
    $t =~ s/[^\n]//g if $d;
    $o .= $t;
  }
  elsif ($s =~ /\G\(\*/gc) { $d++ }
  elsif ($d && $s =~ /\G\*\)/gc) { $d--; $o .= " " unless $d }
  elsif ($s =~ /\G(.)/gcs) { $o .= $1 if !$d || $1 eq "\n" }
}
print $o;
PERL
for ml in $mls $(find lib -name '*.mli' -not -path '*/_build/*'); do
  mkdir -p "$stripped/$(dirname "$ml")"
  perl "$stripped/strip.pl" "$ml" >"$stripped/$ml"
done

found=0
for mli in $(find lib -name '*.mli' -not -path '*/_build/*' | sort); do
  own=${mli%.mli}.ml
  others=$(printf '%s\n' $mls | grep -vxF "$own" | sed "s|^|$stripped/|")
  mod=$(basename "$mli" .mli \
    | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  # shellcheck disable=SC2086
  openers=$(grep -lE "(^|[^A-Za-z0-9_'.])open!?[[:space:]]+([A-Z][A-Za-z0-9_']*\.)*$mod([^A-Za-z0-9_']|\$)|(^|[^A-Za-z0-9_'])$mod\.\(" $others || true)
  names=$(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" \
    | sort -u)
  for n in $names; do
    # shellcheck disable=SC2086
    if grep -qE -- "\.$n([^A-Za-z0-9_']|\$)" $others; then continue; fi
    # shellcheck disable=SC2086
    if [ -n "$openers" ] && grep -qw -- "$n" $openers; then continue; fi
    found=1
    echo "$mod.$n ($mli)"
  done
  labels=$(grep -oE "\?[a-z_][A-Za-z0-9_']*:" "$stripped/$mli" \
    | sed 's/^?//; s/:$//' | sort -u)
  for l in $labels; do
    # shellcheck disable=SC2086
    if grep -qE -- "[~?]$l([^A-Za-z0-9_']|\$)" $others; then continue; fi
    found=1
    echo "$mod ?$l ($mli)"
  done
done

if [ "$found" -eq 0 ]; then
  echo "deadcheck: every exported value and option has a caller outside its own module"
fi
exit "$found"
