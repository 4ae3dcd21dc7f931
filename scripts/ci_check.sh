#!/usr/bin/env bash
# CI-style smoke check: tier-1 tests in Python's dev mode, the smokes and the
# long crash-state enumeration, plus the quick benchmark gated against the
# committed BENCH_core.json, so correctness *and* per-update performance
# regressions fail fast — locally and in the GitHub Actions workflow.  Ends
# with traced runs of two repository-benchmark workloads (perfbench/), which
# fail only on their output checks, never on timings.
#
# Usage: scripts/ci_check.sh
#
# Environment knobs:
#   BENCH_ROUNDS     best-of-N rounds for the quick profile (default 3)
#   BENCH_TOLERANCE  fractional regression allowed vs the committed baseline
#                    (default 0.15, i.e. fail on >15% per-update slowdown)
#   BENCH_MODE       "fail" (default) or "warn" — set to warn on machines with
#                    known-noisy clocks (e.g. shared CI runners)
#   BENCH_OUTPUT     where to write the fresh results (default: a mktemp file);
#                    CI points this at a stable path and uploads it as an
#                    artifact so warn-mode runs still leave a perf record
#   BENCH_LABEL      trajectory label recorded in the fresh results
#   FORK_BENCH_ROUNDS  best-of-N rounds for the fork/what-if gate
#                    (default 3); BENCH_MODE warn downgrades its two speed
#                    ratios only, its correctness checks always fail the run
#   FORK_BENCH_OUTPUT  optional JSON file receiving the fork/what-if results;
#                    CI uploads it as an artifact
#   COVERAGE         set to 1 to run the tier-1 tests under pytest-cov with a
#                    hard floor (requires pytest-cov; CI enables this)
#   COVERAGE_MIN     coverage floor in percent (default 85)
#   COVERAGE_XML     where the XML report is written (default coverage.xml);
#                    CI uploads it as an artifact next to the benchmark JSON
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Tier-1 runs under python -X dev with two warnings made errors: a file or
# socket left for the garbage collector to close raises ResourceWarning, and
# one raised inside a finaliser reaches pytest as an unraisable exception.
# Plain pytest lets both pass.
PYTEST=(python -X dev -m pytest -x -q
    -W error::ResourceWarning
    -W error::pytest.PytestUnraisableExceptionWarning)

if [[ "${COVERAGE:-0}" == "1" ]]; then
    echo "== tier-1 tests, dev mode (with coverage floor ${COVERAGE_MIN:-85}%) =="
    "${PYTEST[@]}" \
        --cov=repro \
        --cov-report=term \
        --cov-report="xml:${COVERAGE_XML:-coverage.xml}" \
        --cov-fail-under="${COVERAGE_MIN:-85}"
else
    echo "== tier-1 tests, dev mode =="
    "${PYTEST[@]}"
fi


echo
echo "== resilience smoke: seed-pinned crash-simulation replay =="
python -m repro.resilience.smoke

echo
echo "== service smoke: SIGKILL a live gateway, restart, verify bit-identical =="
python -m repro.service.smoke

echo
echo "== crash-state enumeration: recovery from every power-loss state of"
echo "   the durable writers, long traces =="
python -m pytest -q tests/crash_states_full.py

echo
echo "== quick benchmark vs committed BENCH_core.json (per-update regression"
echo "   beyond the tolerance or any solution-size change fails the check) =="
scratch="${BENCH_OUTPUT:-$(mktemp -t bench_core_ci.XXXXXX.json)}"
python benchmarks/bench_core_operations.py \
    --rounds "${BENCH_ROUNDS:-3}" \
    --output "$scratch" \
    --label "${BENCH_LABEL:-ci-check}" \
    --compare BENCH_core.json \
    --tolerance "${BENCH_TOLERANCE:-0.15}" \
    --compare-mode "${BENCH_MODE:-fail}"

echo
echo "== fork / what-if gate (fork >= 5x cheaper than both full-copy"
echo "   baselines at >= 10k live slots; what-if leaves the base engine"
echo "   untouched; a checkpoint after a what-if is the reference encoding) =="
python benchmarks/bench_fork_whatif.py \
    --rounds "${FORK_BENCH_ROUNDS:-3}" \
    --gate-mode "${BENCH_MODE:-fail}" \
    ${FORK_BENCH_OUTPUT:+--output "$FORK_BENCH_OUTPUT"}

# service-ingest stays out: its 25 ms generator-lateness check would flake
# on shared runners.
echo
echo "== repository benchmark correctness checks (traced replay-churn and"
echo "   update-mixed runs; exit status only, no timing gate) =="
python3 perfbench/run.py --workload replay-churn --seconds 2 --trace 1
python3 perfbench/run.py --workload update-mixed --seconds 2 --trace 1

echo
echo "ci_check OK (benchmark results: $scratch)"
