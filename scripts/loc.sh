#!/usr/bin/env bash
# Counts the code lines of each crate's sources:
#
#   scripts/loc.sh
#
# A code line is a line of a `crates/*/src/**/*.rs` file above that
# file's first `#[cfg(test)]` that is neither blank nor a `//` comment
# (doc comments included). Prints one line per crate, the total, the
# five largest files, the panic sites of each crate (`.unwrap()`,
# `.expect(`, `panic!`, `unreachable!` on those same lines), and the
# public-field count of each configuration struct, found by name.
set -euo pipefail
cd "$(dirname "$0")/.."

# "<count> <panic sites> <path>" for every source file.
counts=$(
  for f in $(find crates/*/src -name '*.rs' | sort); do
    n=$(awk '
      /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++; p += gsub(/\.unwrap\(\)|\.expect\(|panic!|unreachable!/, "") }
      END { print n + 0, p + 0 }
    ' "$f")
    echo "$n $f"
  done
)

echo "per crate:"
echo "$counts" | awk '
  { split($3, p, "/"); by[p[2]] += $1; total += $1 }
  END {
    for (c in by) printf "  %-10s %6d\n", c, by[c] | "sort"
    close("sort")
    printf "total        %6d\n", total
  }
'
echo "largest files:"
echo "$counts" | sort -rn | head -5 | awk '{ printf "  %6d %s\n", $1, $3 }'
echo "panic sites:"
echo "$counts" | awk '
  { split($3, p, "/"); by[p[2]] += $2; total += $2 }
  END {
    for (c in by) if (by[c]) printf "  %-10s %6d\n", c, by[c] | "sort"
    close("sort")
    printf "total        %6d\n", total
  }
'

# Public fields of each configuration struct (every `pub struct` named
# `*Config`, `*Spec`, `*Options` or `*Policy`): the knobs a caller can set.
echo "config fields:"
awk '
  FNR == 1 { inside = 0 }
  /^pub struct [A-Za-z0-9_]+(Config|Spec|Options|Policy) [{]/ {
    name = $3; n = 0; inside = 1; next
  }
  inside && /^}/ { printf "  %-20s %3d  %s\n", name, n, FILENAME; inside = 0 }
  inside && /^    pub [a-z_0-9]+:/ { n++ }
' $(find crates/*/src -name '*.rs' | sort)
