#!/usr/bin/env bash
# CI-style smoke check: tier-1 tests in Python's dev mode (which pin the
# engine trajectories, solution sizes and allocation peaks without a clock),
# the smokes, the long crash-state enumeration and the fork/what-if gate, so
# correctness regressions fail fast — locally and in the GitHub Actions
# workflow.  Ends with traced runs of two repository-benchmark workloads
# (perfbench/), which fail only on their output checks, never on timings.
#
# Usage: scripts/ci_check.sh
#
# Environment knobs:
#   BENCH_MODE       "fail" (default) or "warn" — warn downgrades the
#                    fork/what-if gate's two speed ratios to a warning on
#                    machines with known-noisy clocks (e.g. shared CI
#                    runners); its correctness checks always fail the run
#   FORK_BENCH_ROUNDS  best-of-N rounds for the fork/what-if gate
#                    (default 3)
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
echo "ci_check OK"
