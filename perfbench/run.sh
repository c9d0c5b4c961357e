#!/usr/bin/env bash
# Build the benchmark and the oblxd daemon from source in this checkout,
# then run the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload synth --seed 1 --seconds 50 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/core ] || [ ! -f bin/oblxd.ml ]; then
  echo "perfbench: no ASTRX/OBLX source tree in $(pwd)" >&2
  exit 2
fi
# Keep every build artifact and temporary file inside the checkout.
export DUNE_CACHE=disabled
mkdir -p _perfbench/tmp
export TMPDIR="$PWD/_perfbench/tmp"
dune build --root . ./perfbench/perfbench.exe ./bin/oblxd.exe 1>&2
bench=./_build/default/perfbench/perfbench.exe
# Times are scaled by a yardstick timed beside the work (perfbench/yard.ml),
# which only tells the speed of the CPU it runs on; so the benchmark, and
# the daemon it spawns, run pinned to one CPU: the last one allowed.
cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/.*[,-]//') || cpu=
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$bench" "$@"
fi
echo "perfbench: taskset unavailable, running unpinned" >&2
exec "$bench" "$@"
