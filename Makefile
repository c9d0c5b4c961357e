# Convenience targets; dune is the real build system.

.PHONY: all build test qcheck-sweep bench bench-quick bench-perf-check bench-perf-incremental bench-serve bench-serve-concurrent bench-serve-fleet bench-sweep bench-warm-start bench-compare trace-replay serve-smoke fleet-smoke clean

# One UTC stamp per make invocation; every bench target passes it down so
# each artifact lands both at <name>-latest.json and as an immutable
# <name>-$(RUNSTAMP).json copy (diffed by scripts/bench_compare.sh).
RUNSTAMP ?= $(shell date -u +%Y%m%dT%H%M%SZ)

all: build

build:
	dune build @all

test:
	dune runtest

# Every QCheck property once per QCHECK_SEED in 1..300; prints each
# failing seed, executable and case (scripts/qcheck_sweep.sh takes any
# range).
qcheck-sweep:
	bash scripts/qcheck_sweep.sh 1 300

# Every paper table/figure (~15 min).
bench:
	dune exec bench/main.exe -- --runstamp $(RUNSTAMP)

# Small-budget multi-start scaling measurement; writes
# bench/results/perf-parallel-latest.json (used by CI as an artifact).
bench-quick:
	dune exec bench/main.exe -- perf-parallel --moves 2000 --runs 4 --runstamp $(RUNSTAMP)

# bench-quick plus the regression gate: exits non-zero when the jobs=4
# speedup drops below the floor, scaled for the host's core count
# (docs/PARALLEL.md, "reading perf-parallel JSON"). CI runs this against
# the committed bench/results/perf-parallel-latest.json.
PERF_FLOOR ?= 2.0
bench-perf-check:
	dune exec bench/main.exe -- perf-parallel --moves 2000 --runs 4 --floor $(PERF_FLOOR) --runstamp $(RUNSTAMP)

# Move-scoped incremental evaluation vs full recompute (docs/PERFORMANCE.md);
# writes bench/results/perf-incremental-latest.json with per-circuit
# speedups, cache counters and the bit-identity checks — including the
# batched probe-then-confirm tournaments. PERF_INCR_FLOOR gates the best
# probed-vs-full throughput gain; unlike PERF_FLOOR it needs no core-count
# scaling (the win is algorithmic, not parallelism).
PERF_INCR_FLOOR ?= 2.5
bench-perf-incremental:
	dune exec bench/main.exe -- perf-incremental --moves 4000 --floor $(PERF_INCR_FLOOR) --runstamp $(RUNSTAMP)

# Record simple-ota traces sequentially and domain-parallel, then replay
# both against the compiled cost function (docs/OBSERVABILITY.md) — the
# telemetry side of the --jobs determinism guarantee.
trace-replay:
	mkdir -p bench/results
	dune exec bin/astrx.exe -- bench simple-ota --no-verify --moves 2000 --runs 4 --jobs 1 \
		--trace bench/results/trace-jobs1.jsonl
	dune exec bin/astrx.exe -- replay simple-ota bench/results/trace-jobs1.jsonl
	dune exec bin/astrx.exe -- bench simple-ota --no-verify --moves 2000 --runs 4 --jobs 4 \
		--trace bench/results/trace-jobs4.jsonl
	dune exec bin/astrx.exe -- replay simple-ota bench/results/trace-jobs4.jsonl

# Small-budget run of the oblxd job-service bench (docs/SERVER.md); writes
# bench/results/serve-latest.json with throughput, queue-wait percentiles,
# cache hit rate, and the deadline/determinism checks.
bench-serve:
	dune exec bench/main.exe -- serve --moves 300 --runstamp $(RUNSTAMP)

# The daemon under simultaneous clients: stats latency with idle
# connections held, over-cap rejection, and parallel submit/wait
# throughput; writes bench/results/serve-concurrent-latest.json.
bench-serve-concurrent:
	dune exec bench/main.exe -- serve-concurrent --moves 300 --runstamp $(RUNSTAMP)

# Three in-process daemons over loopback TCP: scatter/steal/merge
# determinism vs one box, steal-recovery latency, hundreds of concurrent
# clients, and the replicated compile cache's remote hit rate; writes
# bench/results/serve-fleet-latest.json.
bench-serve-fleet:
	dune exec bench/main.exe -- serve-fleet --moves 300 --runstamp $(RUNSTAMP)

# One netlist swept over a corners x spec-overrides grid through the
# pool's sweep verb: gates exactly one compile per distinct
# (canon, corner) key via the cache counters, and byte-identical verdict
# tables on 1-worker vs 4-worker pools; writes
# bench/results/sweep-latest.json.
bench-sweep:
	dune exec bench/main.exe -- sweep --moves 200 --runstamp $(RUNSTAMP)

# The resynthesize scenario measured end to end: a cold run vs one seeded
# from the parent winner (values + learned Hustin distribution) on a
# spec-retargeted problem, scored by moves-to-target, plus the warm-off
# bit-identity guard; writes bench/results/warm-start-latest.json.
# WARM_FLOOR gates the best cold/warm ratio — like PERF_INCR_FLOOR it
# needs no core-count scaling (the win is sample efficiency).
WARM_FLOOR ?= 1.5
bench-warm-start:
	dune exec bench/main.exe -- warm-start --floor $(WARM_FLOOR) --runstamp $(RUNSTAMP)

# Diff the working tree's <name>-latest.json artifacts against the
# committed baselines (git show HEAD:...), printing per-metric deltas.
bench-compare:
	bash scripts/bench_compare.sh

# Boot the daemon, exercise submit/cache-hit/cancel/shutdown over the
# socket (scripts/serve_smoke.sh; the CI serve-smoke job).
serve-smoke:
	bash scripts/serve_smoke.sh

# Three real oblxd daemons on authenticated loopback TCP: coordinator
# scatter, peer kill -9 mid-job, bit-identity vs a standalone daemon
# (scripts/fleet_smoke.sh; runs in CI next to serve-smoke).
fleet-smoke:
	bash scripts/fleet_smoke.sh

clean:
	dune clean
	rm -f oblxd.sock
	rm -rf oblxd-state
