#!/usr/bin/env bash
# Counts the code lines of each crate's sources:
#
#   scripts/loc.sh
#
# A code line is a line of a `crates/*/src/**/*.rs` file above that
# file's first `#[cfg(test)]` that is neither blank nor a `//` comment
# (doc comments included). Prints one line per crate, the total, and the
# five largest files.
set -euo pipefail
cd "$(dirname "$0")/.."

# "<count> <path>" for every source file.
counts=$(
  for f in $(find crates/*/src -name '*.rs' | sort); do
    n=$(awk '
      /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++ }
      END { print n + 0 }
    ' "$f")
    echo "$n $f"
  done
)

echo "per crate:"
echo "$counts" | awk '
  { split($2, p, "/"); by[p[2]] += $1; total += $1 }
  END {
    for (c in by) printf "  %-10s %6d\n", c, by[c] | "sort"
    close("sort")
    printf "total        %6d\n", total
  }
'
echo "largest files:"
echo "$counts" | sort -rn | head -5 | awk '{ printf "  %6d %s\n", $1, $2 }'
