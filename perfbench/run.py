"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-churn --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that prints every per-layer metric (layers a
workload does not exercise read 0).  Every line but the last is for people:
provenance, each metric by name with its unit and sample count, and the
exact work counters with any drift against earlier runs of the same seed.
The last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A failed correctness check prints no numbers and exits 1.

Metric names and units, and the default run length, come from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

import catalog
from harness import counter_drift

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Scratch space inside the checkout; removed per run except the counter ledger.
WORK = ROOT / ".perfbench_work"
MANIFEST = ROOT / "BENCHMARK.json"


def parse_args(manifest: Dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in manifest["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> Dict:
    """Where the numbers came from: cores, interpreter, code and switches."""
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def check_drift(workload: str, seed: int, seconds: float, counters: Dict[str, float]) -> list:
    """Compare exact counters with the first run of this seed in this checkout."""
    ledger = WORK / "counters" / f"{workload}-seed{seed}-{seconds:g}s.json"
    known: Dict[str, float] = {}
    if ledger.exists():
        known = json.loads(ledger.read_text(encoding="utf-8"))
    shared = set(known) & set(counters)
    drift = counter_drift(
        {k: known[k] for k in shared}, {k: counters[k] for k in shared}
    )
    merged = dict(counters)
    merged.update(known)
    ledger.parent.mkdir(parents=True, exist_ok=True)
    ledger.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    return drift


def main(argv=None) -> int:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    args = parse_args(manifest, argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # Taken before the run: the workloads pin themselves to one CPU.
    origin = provenance()
    module = importlib.import_module(args.workload.replace("-", "_"))
    trace = bool(args.trace)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = module.run(args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(origin, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if result.errors:
        for message in result.errors:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result.attempted,
                          "failed": result.failed, "metrics": {}}))
        return 1

    metrics = {}
    for entry in manifest["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in result.metrics:
            value, note = result.metrics[name], result.notes.get(name, "")
        elif trace:
            value, note = 0.0, "layer not exercised by this workload"
        else:
            raise RuntimeError(f"workload did not measure {name}")
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        metrics[name] = {"value": value, "unit": unit}
    for name, value in sorted(result.counters.items()):
        print(f"counter {name} = {value:g}")
    drift = check_drift(args.workload, args.seed, args.seconds, result.counters)
    if drift:
        for name, before, after in drift:
            print(f"drift {name}: {before} -> {after}")
    else:
        print("drift none")
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
