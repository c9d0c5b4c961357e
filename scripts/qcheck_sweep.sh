#!/usr/bin/env bash
# Run every QCheck property of the test suite once per QCHECK_SEED in
# FIRST..LAST, and print each failing seed, executable and case.
#
#   scripts/qcheck_sweep.sh FIRST LAST      (or: make qcheck-sweep)
#
# `dune runtest` draws one random seed per run, so a property that fails
# on a few percent of seeds passes most runs. This sweep replays a fixed
# range of seeds instead. It runs, from dune's test directory, the test
# executables whose source registers a QCheck property, and in each only
# the property cases: a case is one when its name is the `~name:"..."`
# label of a QCheck.Test.make in that source (or of a helper that passes
# the label on). A property run through QCheck.Test.check_exn inside an
# Alcotest case draws from a fixed seed and is not swept. Exits non-zero
# when any seed fails.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 FIRST LAST" >&2
  exit 2
fi
first=$1
last=$2

cd "$(dirname "$0")/.."
root=$PWD
dune build @install test/ 2>&1
cd _build/default/test

# One plan line per (executable, group): "exe<TAB>group<TAB>i,j,k".
plan=$(mktemp)
trap 'rm -f "$plan"' EXIT
for src in "$root"/test/test_*.ml; do
  grep -q 'QCheck' "$src" || continue
  exe=$(basename "$src" .ml).exe
  names=$(grep -o '~name:"[^"]*"' "$src" | sed 's/^~name:"//; s/"$//' || true)
  [ -n "$names" ] || continue
  # `list` prints "group  index   name." and shortens a long name to
  # "prefix..."; match a shortened name by its prefix.
  "./$exe" list 2>/dev/null \
    | sed -nE 's/^(.*[^ ]) +([0-9]+)   (.*)$/\1\t\2\t\3/p' \
    | awk -F'\t' -v exe="$exe" -v names="$names" '
        BEGIN { n = split(names, nm, "\n") }
        {
          name = $3
          if (name ~ /\.\.\.$/) { pre = substr(name, 1, length(name) - 3); whole = 0 }
          else { sub(/\.$/, "", name); pre = name; whole = 1 }
          for (i = 1; i <= n; i++)
            if ((whole && nm[i] == pre) || (!whole && index(nm[i], pre) == 1)) {
              if ($1 in idx) idx[$1] = idx[$1] "," $2
              else idx[$1] = $2
              break
            }
        }
        END { for (g in idx) print exe "\t" g "\t" idx[g] }'
done > "$plan"

if [ ! -s "$plan" ]; then
  echo "qcheck-sweep: no QCheck property found" >&2
  exit 2
fi
echo "qcheck-sweep: seeds $first..$last over $(tr ',' '\n' < "$plan" | wc -l) properties"

failed_seeds=""
for seed in $(seq "$first" "$last"); do
  seed_failed=0
  while IFS=$'\t' read -r exe group idx; do
    regex="^$(printf '%s' "$group" | sed 's/[][\.*^$(){}+?|/]/\\&/g')\$"
    if ! out=$(QCHECK_SEED=$seed "./$exe" test "$regex" "$idx" --color=never 2>&1); then
      seed_failed=1
      cases=$(printf '%s\n' "$out" | grep -E '^[> ] \[FAIL\]' \
        | sed -E 's/^[> ] \[FAIL\] +//; s/ +/ /g' | sort -u || true)
      if [ -z "$cases" ]; then cases="(exited non-zero; no [FAIL] line)"; fi
      printf '%s\n' "$cases" | while IFS= read -r c; do
        echo "FAIL seed=$seed $exe: $c"
      done
    fi
  done < "$plan"
  if [ "$seed_failed" -eq 1 ]; then failed_seeds="$failed_seeds $seed"; fi
done

if [ -n "$failed_seeds" ]; then
  echo "qcheck-sweep: failing seeds:$failed_seeds"
  exit 1
fi
echo "qcheck-sweep: every seed in $first..$last passed"
