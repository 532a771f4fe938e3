PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-dynamic test-serving api-check \
	smoke-obs baselines native-kernel \
	compare-baselines bench bench-snapshot bench-perf-smoke compare-kernels \
	chaos bench-overhead bench-dynamic doctor obs-report ci

## Full test suite (tier 1).
test:
	$(PYTHON) -m pytest -x -q

## Everything except the slow fault matrix.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not faults"

## Dynamic-clustering subsystem: incremental updates, snapshots, serving.
test-dynamic:
	$(PYTHON) -m pytest -x -q -m dynamic

## Serving gateway: snapshot-isolated reads, write coalescing, admission
## control, the cross-engine x cross-family replay equivalence gate, and
## the `repro serve` CLI.
test-serving:
	$(PYTHON) -m pytest -x -q -m serving

## Fail when the live public surface (repro.api) drifted from the
## committed benchmarks/api_surface.json snapshot.  Intentional surface
## growth: `python -m repro.api --write` and commit the diff.
api-check:
	$(PYTHON) -m repro.api --check

## Observability smoke: one traced clustering, schema-validated trace,
## parse-back metrics (the `obs` marker), then the CLI gate on a fresh run
## and its Chrome trace export.
smoke-obs:
	$(PYTHON) -m pytest -q -m obs
	$(PYTHON) -m repro.cli cluster --karate --resolution 0.05 --seed 3 \
	    --trace /tmp/repro-smoke-trace.jsonl
	$(PYTHON) -m repro.cli obs validate-trace /tmp/repro-smoke-trace.jsonl
	$(PYTHON) -m repro.cli obs timeline /tmp/repro-smoke-trace.jsonl

## Regenerate the committed engines/overhead baselines in
## benchmarks/baselines (every BENCH_*.json there has one suite in
## repro.bench.suites.SUITES; `python -m repro.bench emit NAME... --out
## benchmarks/baselines` regenerates any of them).
baselines:
	$(PYTHON) -m repro.bench emit engines overhead --out benchmarks/baselines

## Re-measure into a scratch dir and compare against the committed
## baselines (>10% regressions exit nonzero).
compare-baselines:
	$(PYTHON) -m repro.bench emit engines overhead \
	    --out /tmp/repro-bench-current
	$(PYTHON) -m repro.bench compare \
	    benchmarks/baselines/BENCH_engines.json \
	    /tmp/repro-bench-current/BENCH_engines.json
	$(PYTHON) -m repro.bench compare \
	    benchmarks/baselines/BENCH_overhead.json \
	    /tmp/repro-bench-current/BENCH_overhead.json

## Per-figure benchmark scripts (pytest-benchmark).
bench:
	$(PYTHON) -m pytest benchmarks -q

## Refresh the committed BENCH_PR3.json / BENCH_PR4.json snapshots
## (telemetry coverage + kernel speedups); commit the result.
bench-snapshot:
	$(PYTHON) -m repro.bench emit PR3 PR4 --out benchmarks/baselines

## Wall-clock perf benchmark harness tests (benchmarks/perf, ~15 s): tiny
## inputs through every workload, output checks and the layer tracer.
bench-perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q

## Re-measure the kernel snapshot into a scratch dir and compare against
## the committed BENCH_PR4.json.  Wall-clock speedup ratios are noisier
## than the deterministic f/sim metrics, so this gate uses a wider 30%
## tolerance than the default 10%.
compare-kernels:
	$(PYTHON) -m repro.bench emit PR4 --out /tmp/repro-bench-current
	$(PYTHON) -m repro.bench compare \
	    benchmarks/baselines/BENCH_PR4.json \
	    /tmp/repro-bench-current/BENCH_PR4.json --tolerance 0.30

## Supervised chaos matrix: every fault site x every engine x every
## registered kernel (sorted(KERNELS): 40 cells) on the karate workload,
## asserting the recovery invariants (terminate, objective within
## tolerance or explicitly degraded, checkpoints replay bit-identically).
## Deterministic; exits nonzero on any unrecovered cell.
chaos:
	$(PYTHON) -m repro.cli chaos --karate --seed 1

## The <3% overhead bench: disabled instrumentation and no-fault
## supervision vs a bare run, with bit-identical results (the suite
## behind the committed BENCH_overhead.json).
bench-overhead:
	$(PYTHON) -m pytest -x -q benchmarks/bench_overhead.py

## Dynamic updates vs full recompute (>=5x fewer candidate evaluations at
## an equal objective); the same suite behind the committed BENCH_PR7.json
## (refresh with `python -m repro.bench emit PR7 --out benchmarks/baselines`).
bench-dynamic:
	$(PYTHON) -m pytest -x -q benchmarks/bench_dynamic.py

## Build the native library, failing when it cannot be built or any of
## its seven entry points does not resolve (so CI never passes on the
## reference kernel and NumPy paths by accident): the three per-window
## calls that take a binding (batch, sweep, commit), the two that take
## their arrays (frontier, compression) and the dynamic graph's arc
## search and splice, plus the pool's counters.  Compile the source
## once more with -Wall -Wextra -Werror and the library's flags
## (-pthread among them), so a warning in the pool's concurrency code
## fails CI.  Then run the kernel, binding, pool and native-round parity
## suites, the round-bookkeeping oracle and the splice and
## dynamic-clusterer suites with any RuntimeWarning an error.
native-kernel:
	$(PYTHON) -W error::RuntimeWarning -c "from repro.kernels import KERNELS; \
	    lib = KERNELS['native'].library.load(); \
	    assert lib is not None; \
	    assert lib.repro_best_moves and lib.repro_sweep and lib.repro_commit; \
	    assert lib.repro_neighbors and lib.repro_compress; \
	    assert lib.repro_splice and lib.repro_find_arcs; \
	    assert lib.repro_pool_stats"
	$(PYTHON) -c "import subprocess; from repro.kernels import native; \
	    subprocess.run([native.COMPILER, *native.CFLAGS, '-Wall', '-Wextra', \
	    '-Werror', '-o', '/dev/null', str(native.SOURCE)], check=True)"
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning \
	    tests/properties/test_kernel_equivalence.py \
	    tests/core/test_kernels.py tests/core/test_native_kernel.py \
	    tests/core/test_best_moves.py \
	    tests/dynamic/test_delta.py tests/dynamic/test_clusterer.py

## Run doctor over fresh instrumented runs: a batch clustering (health
## rules over stats/trace/metrics + registry trend history) and a dynamic
## update session (serving SLOs: commit/save latency, staleness).  Both
## legs exit nonzero on any crit finding, and the update session's trace
## (bootstrap run plus every batch on one set of worker lanes) must
## validate.
doctor:
	rm -rf /tmp/repro-doctor && mkdir -p /tmp/repro-doctor
	$(PYTHON) -m repro.cli cluster --karate --resolution 0.05 --seed 3 \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl \
	    --register /tmp/repro-doctor/runs.jsonl --run-id doctor-check \
	    --health-rules benchmarks/health_rules.json
	$(PYTHON) -m repro.cli doctor doctor-check \
	    --runs /tmp/repro-doctor/runs.jsonl \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl --iteration-cap 10 \
	    --rules benchmarks/health_rules.json
	$(PYTHON) -m repro.cli update --karate \
	    --updates benchmarks/updates_karate.jsonl --batch-size 4 --seed 3 \
	    --metrics /tmp/repro-doctor/update-metrics.jsonl \
	    --trace /tmp/repro-doctor/update-trace.jsonl \
	    --snapshot-dir /tmp/repro-doctor/snaps --doctor
	$(PYTHON) -m repro.cli obs validate-trace /tmp/repro-doctor/update-trace.jsonl

## Self-contained HTML observability report (inline CSS/SVG, no scripts)
## rendered from the doctor target's artifacts.
obs-report: doctor
	$(PYTHON) -m repro.cli obs report /tmp/repro-doctor/runs.jsonl \
	    --html /tmp/repro-doctor/report.html \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl --iteration-cap 10
	$(PYTHON) -m repro.cli obs report \
	    --html /tmp/repro-doctor/update-report.html \
	    --trace /tmp/repro-doctor/update-trace.jsonl \
	    --metrics /tmp/repro-doctor/update-metrics.jsonl

## The full gate a PR must pass: tier-1 tests (which include the serving
## suite), the native-kernel build and parity check, the API-surface drift
## check, the observability smoke, the committed-baseline regression
## compare (including the kernel snapshot), the supervised chaos matrix,
## the run doctor + HTML report, the dynamic-updates bench, the wall-clock
## perf harness smoke, and the <3% overhead bench (disabled
## instrumentation, no-fault supervision).  Serving equivalence is in
## tier-1 (tests/serving/test_equivalence.py); serving wall-clock
## performance is the `serve` workload of benchmarks/perf.
ci: test native-kernel api-check smoke-obs compare-baselines \
	compare-kernels chaos bench-dynamic bench-perf-smoke \
	obs-report bench-overhead
