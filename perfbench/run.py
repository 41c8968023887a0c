"""garzfv benchmark: run one workload in a closed loop and report metrics.

    python3 perfbench/run.py --workload smoke-audited --seed 0 --seconds 30 --trace 0

From the repository root.  The package is imported from ``src/`` next to
this directory.  With ``--trace 0`` the end-to-end metrics are measured;
with ``--trace 1`` the layer functions are traced (see spans.py) and the
per-layer metrics are reported.  Human-readable lines come first, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any correctness gate fails and 2 when the package cannot be found.

End-to-end times are calibrated: each is scaled by the speed of the
machine measured right around it by a reference (see calibrate.py).  The raw wall times
are printed too.

Full results (run metadata, samples, every layer metric) go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import (REF_PROCESS_NOMINAL_S, reference_process_seconds,
                       reference_seconds, scale)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# verify's pool runs one worker: with two, its GIL-bound solves made the
# verify-custom operation slower and its calibrated median about half as
# steady again (quartile spread 0.16 over ten seeds, 0.10 over six)
MAX_THREADS = 1

END_TO_END = {"op_s_p50": "s", "op_s_tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Per-layer metrics printed on the last line.  Layers that run on only some
# workloads are given as a share of the operation's wall time; their
# seconds are in the full results with every other layer metric.
PER_LAYER = {
    "scalar.density_step_arrays.s": "s",
    "scalar.density_step_arrays.calls": "count",
    "scalar.godunov_flux.s": "s",
    "scalar.godunov_flux.calls": "count",
    "scalar.max_speed.s": "s",
    "scalar.max_speed.calls": "count",
    "transport.marker_step_arrays.s": "s",
    "transport.marker_step_arrays.calls": "count",
    "model.flux.s": "s",
    "model.flux.calls": "count",
    "scalar.entropy_residual_arrays.calls": "count",
    "scalar.entropy_residual_arrays.share": "%",
    "scalar.entropy_kept_ratio": "ratio",
    "iteration.picard_slab.s": "s",
    "iteration.picard_slab.calls": "count",
    "iteration.self_s": "s",
    "iteration.make_context.s": "s",
    "iteration.slabs": "count",
    "iteration.halvings": "count",
    "iteration.iterates": "count",
    "iteration.marches": "count",
    "iteration.steps": "count",
    "iteration.kept_march_ratio": "ratio",
    "verify.solve_global.s": "s",
    "verify.solve_global.calls": "count",
    "verify.audit_trajectory.share": "%",
    "verify.pool_speedup": "ratio",
    "runio.share": "%",
    "runio.bytes": "B",
    "runio.files": "count",
    "kernels.share": "%",
    "scalar.godunov_flux.solve_share": "%",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly on every traced operation
TRACED_COUNTS = [name for name, unit in PER_LAYER.items()
                 if unit in ("count", "B")]

# the mechanism each workload was chosen for, checked on the traced run
MECHANISMS = {
    "smoke-audited": [("scalar.entropy_residual_arrays.share", ">=", 70.0)],
    "vacuum-march": [("kernels.share", ">=", 70.0),
                     ("scalar.entropy_residual_arrays.calls", "==", 0)],
    "cli-io": [("runio.share", ">=", 50.0),
               ("scalar.entropy_residual_arrays.calls", "==", 0)],
    "verify-custom": [("scalar.godunov_flux.solve_share", ">=", 50.0),
                      ("scalar.entropy_residual_arrays.calls", "==", 0)],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="self-test sizes instead of the benchmark sizes")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- run metadata -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "garzfv").glob("*.py")))


def run_metadata(seed: int, threads: int) -> dict:
    import numpy
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "GARZFV_THREADS": threads,
        "git_commit": _git_commit(),
        "src_garzfv_lines": _src_lines(),
    }


# -- statistics ---------------------------------------------------------------


def tail(samples) -> float:
    """Interpolated 90th percentile of the operation times.

    A run holds 2 to 26 operations, too few for any percentile above the
    median to have ten samples beyond it, so the benchmark fixes p90 and
    reports the sample count next to it."""
    s = sorted(samples)
    if len(s) == 1:
        return s[0]
    return statistics.quantiles(s, n=10, method="inclusive")[-1]


def setup_seconds(args) -> tuple:
    """Wall times of fresh processes that import garzfv and build the
    workload's inputs, and the calibration factor measured around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--small"] if args.small else [])
    times, scales = [], []
    before = reference_process_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        after = reference_process_seconds()
        scales.append(scale(before, after, REF_PROCESS_NOMINAL_S))
        before = after
    return times, scales


# -- the closed loop ----------------------------------------------------------


class Loop:
    """Runs operations one at a time, applies the gates, and checks that
    every repetition reproduces the first one's counts exactly."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}
        self.values = []
        self.layers = []
        self.scales = []

    def once(self, tracer=None, calibrate=False) -> float:
        """Run one operation and return its wall time.  With calibrate, the
        reference kernel runs right before and right after it, and the
        calibration factor goes to self.scales."""
        self.attempted += 1
        problems = []
        result = None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        if calibrate:
            before = reference_seconds()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(self.inputs)
        except Exception as exc:  # an operation that raises has failed
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if calibrate:
            self.scales.append(scale(before, reference_seconds()))
        if not problems:
            problems = self._check(result, wall, tracer)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}"
                                 for p in problems)
        return wall

    def _check(self, result, wall, tracer) -> list:
        try:
            outcome = self.wl.check(self.inputs, result)
        except Exception as exc:  # unreadable output fails the operation
            return [f"output check raised {type(exc).__name__}: {exc}"]
        self.values.append(outcome.values)
        counts = dict(outcome.counts)
        if tracer is not None:
            layer = tracer.summarize(wall)
            layer["runio.bytes"] = outcome.values.get("runio.bytes", 0)
            layer["runio.files"] = outcome.values.get("runio.files", 0)
            self.layers.append(layer)
            counts.update((k, layer[k]) for k in TRACED_COUNTS)
        problems = list(outcome.problems)
        for k, v in counts.items():
            first = self.reference.setdefault(k, v)
            if first != v:
                problems.append(f"count drift: {k} = {v!r}, "
                                f"first op gave {first!r}")
        return problems


def measure_untraced(loop, seconds) -> list:
    """Calibrated operations while the median one still fits in the time;
    return their wall times."""
    deadline = time.perf_counter() + seconds
    walls, spent = [], []
    while (not spent
           or time.perf_counter() + statistics.median(spent) <= deadline):
        t0 = time.perf_counter()
        walls.append(loop.once(calibrate=True))
        spent.append(time.perf_counter() - t0)
    return walls


def measure_traced(loop, seconds, tracer):
    """Alternate untraced and traced operations; return both wall lists."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(loop.once())
        traced.append(loop.once(tracer))
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            return plain, traced


def _median_layers(layers) -> dict:
    return {k: statistics.median(op[k] for op in layers) for k in layers[0]}


def _mechanism_checks(name, layer) -> list:
    out = []
    for metric, op, bound in MECHANISMS.get(name, []):
        value = layer[metric]
        ok = value >= bound if op == ">=" else value == bound
        out.append({"metric": metric, "value": value, "op": op,
                    "bound": bound, "passed": ok})
    return out


def _unit(name: str) -> str:
    if name in PER_LAYER or name in END_TO_END:
        return PER_LAYER.get(name) or END_TO_END[name]
    if name.startswith("wall_") or name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return ""


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "garzfv" / "__init__.py").is_file():
        print(f"error: no garzfv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    os.environ["GARZFV_THREADS"] = str(threads)

    import garzfv
    if Path(garzfv.__file__).resolve().parent != SRC / "garzfv":
        print(f"error: garzfv imported from {garzfv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    n_cells = wl.n_cells_small if args.small else wl.n_cells
    workdir = OUT / f"work-{os.getpid()}"

    if args.setup_probe:
        try:
            wl.setup(args.seed, n_cells, str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    OUT.mkdir(exist_ok=True)
    setup, setup_scales = setup_seconds(args) if not args.trace else ([], [])
    try:
        # set-up also warms the process: it imports everything and runs
        # make_context, which exercises the closure on the same grid
        inputs = wl.setup(args.seed, n_cells, str(workdir))
        loop = Loop(wl, inputs)
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            plain, traced = measure_traced(loop, args.seconds, tracer)
        else:
            walls = measure_untraced(loop, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = run_metadata(args.seed, threads)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "n_cells": n_cells,
            "metadata": meta, "problems": loop.problems}
    mechanisms = []
    if args.trace and not loop.layers:  # every traced operation failed
        metrics, shown = {}, []
    elif args.trace:
        layer = _median_layers(loop.layers)
        layer["trace.overhead_s"] = (statistics.median(traced)
                                     - statistics.median(plain))
        mechanisms = _mechanism_checks(args.workload, layer)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.dump(str(spans_path))
        full.update(untraced_s=plain, traced_s=traced, layers=layer,
                    mechanisms=mechanisms, spans=str(spans_path.name))
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        shown = sorted(layer.items())
    else:
        l1 = [v["l1_err_exact"] for v in loop.values if "l1_err_exact" in v]
        op_s = [w * f for w, f in zip(walls, loop.scales)]
        setup_s = [w * f for w, f in zip(setup, setup_scales)]
        values = {
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": tail(op_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        full.update(op_s=op_s, setup_s=setup_s, wall_op_s=walls,
                    wall_setup_s=setup, op_scales=loop.scales,
                    setup_scales=setup_scales, tail_percentile=90,
                    failed_ops=loop.failed / loop.attempted,
                    l1_err_exact=l1[0] if l1 else None)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        shown = [(k, values[k]) for k in END_TO_END]
        shown += [("wall_op_s_p50", statistics.median(walls)),
                  ("wall_setup_s", statistics.median(setup)),
                  ("calibration_p50", statistics.median(loop.scales)),
                  ("failed_ops", loop.failed / loop.attempted)]
        if l1:
            shown.append(("l1_err_exact", l1[0]))
    full["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    correct = loop.failed == 0 and bool(metrics)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"n_cells={n_cells} ops={loop.attempted} "
          f"GARZFV_THREADS={threads} commit={meta['git_commit'][:12]} "
          f"src_lines={meta['src_garzfv_lines']}")
    if not args.trace:
        print(f"  op_s samples={len(walls)}, tail=p90, "
              f"setup samples={len(setup)}; op_s and setup_s calibrated "
              "(calibrate.py), wall_* raw")
    for k, v in shown:
        unit = _unit(k)
        print(f"  {k:40s} {_fmt(v):>14s} {unit}")
    for m in mechanisms:
        print(f"  mechanism {m['metric']} {m['op']} {m['bound']:g}: "
              f"{'pass' if m['passed'] else 'FAIL'}")
    for msg in loop.problems:
        print(f"  FAILED {msg}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
