"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

From the repository root.  Runs every workload named in BENCHMARK.json
once at its small size, untraced and traced, and checks that each run
passes its gates and prints every declared metric with its declared unit.
It also checks that the metric tables in run.py match BENCHMARK.json.
Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from numbers import Real
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402


def _declared(bench: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in bench[key]}


def check_run(name: str, trace: int, declared: dict) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{name} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"{where}: missing {missing}, extra {extra}")
    for metric, unit in declared.items():
        entry = metrics.get(metric, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"),
                                                       Real):
            problems.append(f"{where}: {metric} = {entry}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: _declared(bench, "end_to_end"),
                1: _declared(bench, "per_layer")}
    problems = []
    if declared[0] != END_TO_END:
        problems.append("end_to_end in BENCHMARK.json differs from run.py")
    if declared[1] != PER_LAYER:
        problems.append("per_layer in BENCHMARK.json differs from run.py")
    for workload in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(workload["name"], trace, declared[trace])
            print(f"{workload['name']:14s} trace={trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            problems.extend(found)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
