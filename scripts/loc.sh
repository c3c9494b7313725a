#!/usr/bin/env bash
# Code size, the way CHANGES.md reports it: non-blank, non-`//` Go lines,
# split into non-test and test, with the nested benchmark module (bench/)
# left out.
#
#   scripts/loc.sh                  repo totals
#   scripts/loc.sh -p               one row per package directory, then totals
#   scripts/loc.sh internal/core …  only the named directories (recursive)
set -euo pipefail
cd "$(dirname "$0")/.."

per_pkg=0
if [ "${1:-}" = "-p" ]; then
  per_pkg=1
  shift
fi

git ls-files -co --exclude-standard -- "${@:-.}" | grep '\.go$' | grep -v '^bench/' | sort | xargs awk -v per_pkg="$per_pkg" '
  FNR == 1 {
    dir = FILENAME
    if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
    test = FILENAME ~ /_test\.go$/
  }
  /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
  {
    if (test) { tests[dir]++; tt++ } else { code[dir]++; tc++ }
    if (!(dir in seen)) { seen[dir] = 1; dirs[++n] = dir }
  }
  END {
    if (per_pkg)
      for (i = 1; i <= n; i++)
        printf "%-28s non-test %6d  test %6d\n", dirs[i], code[dirs[i]], tests[dirs[i]]
    printf "%-28s non-test %6d  test %6d\n", "total", tc, tt
  }'
