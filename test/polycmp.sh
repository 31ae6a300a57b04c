#!/bin/sh
# polycmp.sh OBJECT... — fail when a native object file calls one of
# OCaml's polymorphic comparison primitives.
#
# On an operand whose type the compiler cannot see is [int], [<], [=],
# [compare] and friends compile to a call into the runtime's generic
# [compare_val].  The query path compares node ids and key numbers in
# its innermost loops, so its modules must pin those types; this check
# reads the undefined symbols of their objects ([nm -u]) and prints
# each offending module and symbol.  [Stdlib.min] and [Stdlib.max]
# ([camlStdlib.min_NN], [camlStdlib.max_NN]) count too: each is a
# polymorphic [<=] behind a call, which the runtime-symbol check alone
# cannot see; [Int.min]/[Int.max] are the typed versions.
status=0
for obj in "$@"; do
  syms=$(nm -u "$obj") || { echo "polycmp: cannot read $obj" >&2; exit 2; }
  module=$(basename "$obj" .o | sed 's/__/./; s/^x/X/')
  for sym in $(printf '%s\n' "$syms" | awk '{print $NF}' |
    grep -xE 'caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max)_[0-9]+'); do
    echo "$module: polymorphic comparison ($sym)" >&2
    status=1
  done
done
exit $status
