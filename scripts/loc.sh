#!/usr/bin/env bash
# Rust line counts by one rule, so two trees can be compared:
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh <dir>      # another checkout (e.g. a clone of the parent)
#
# Counts every .rs file except those under perfbench/ (the benchmark, a
# workspace of its own), target/ and hidden directories. Test lines are the
# files under any tests/ directory, plus each other file's tail from its
# first `#[cfg(test)]` line; everything else is non-test.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . \( -path ./perfbench -o -path ./target -o -path './.*' \) -prune -o \
  -name '*.rs' -type f -print | LC_ALL=C sort | xargs awk '
  FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\//) }
  !in_test && /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  { total++; if (in_test) test++ }
  END { printf "total %d\nnon_test %d\ntest %d\n", total, total - test, test }
'
