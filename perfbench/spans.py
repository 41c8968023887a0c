"""Span tracing of the solver's layers from outside the package.

A Tracer rebinds the module-level names through which the solver reaches
each layer (and ``VelocityModel.flux`` on the class) to thin wrappers that
record one span per call: name, start, end, parent span and thread.  The
parent stack is kept per thread, because ``verify`` runs its solves on a
thread pool.  Nothing in the package is edited, and every binding is
restored by ``uninstall``.

Spans live in memory; ``summarize`` reduces one operation's spans to the
per-layer metrics and ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time

from garzfv.errors import PicardDivergenceError

# metric name -> the (module, attribute) bindings through which callers
# reach that function.  A function imported into several modules is bound
# at each site, so every call site is counted under one name.
SITES = {
    "scalar.density_step_arrays": [("iteration", "density_step_arrays")],
    "transport.marker_step_arrays": [("iteration", "marker_step_arrays")],
    "scalar.max_speed": [("iteration", "max_speed"), ("scalar", "max_speed")],
    "scalar.entropy_residual_arrays": [("iteration",
                                        "entropy_residual_arrays")],
    "scalar.godunov_flux": [("scalar", "godunov_flux")],
    "model.flux": [("model.VelocityModel", "flux")],
    "iteration.picard_slab": [("iteration", "picard_slab")],
    "iteration.make_context": [("iteration", "make_context")],
    "verify.solve_global": [("iteration", "solve_global"),
                            ("verify", "solve_global"),
                            ("cli", "solve_global")],
    "verify.audit_trajectory": [("verify", "audit_trajectory"),
                                ("cli", "audit_trajectory")],
    "verify.uniqueness_check": [("verify", "uniqueness_check")],
    "verify.measure_stability": [("verify", "measure_stability")],
    "runio.write_trajectory": [("runio", "write_trajectory")],
    "runio.write_report": [("runio", "write_report")],
    "runio.emit_plotdata": [("runio", "emit_plotdata")],
    "config.parse_config": [("cli", "parse_config")],
    "cli.main": [("cli", "main")],
}

RUNIO_WRITERS = ("runio.write_trajectory", "runio.write_report",
                 "runio.emit_plotdata")
KERNEL_LAYERS = ("scalar.", "transport.", "model.")

# span record fields
NAME, PARENT, THREAD, START, END = range(5)


def _resolve(path: str):
    """'iteration' -> garzfv.iteration; 'model.VelocityModel' -> the class."""
    mod_name, _, attr = path.partition(".")
    obj = importlib.import_module(f"garzfv.{mod_name}")
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.picard = dict(slabs=0, halvings=0, iterates=0, steps=0,
                           entropy_kept=0)

    # -- installation -----------------------------------------------------

    def install(self):
        for name, sites in SITES.items():
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                observe = self._observe_picard \
                    if name == "iteration.picard_slab" else None
                setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, observe):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, stack[-1] if stack else None,
                   threading.get_ident(), clock(), 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(None, exc)
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def _observe_picard(self, result, exc):
        """Slab-level counts from picard_slab's return value or error."""
        with self._lock:
            p = self.picard
            if exc is None:
                _, trace, recorder = result
                p["slabs"] += 1
                p["iterates"] += trace.iterations
                p["steps"] += recorder.n_steps
                p["entropy_kept"] += recorder.n_steps * len(recorder.k_levels)
            elif isinstance(exc, PicardDivergenceError) \
                    and exc.trace is not None:
                p["halvings"] += 1
                p["iterates"] += exc.trace.iterations

    def reset(self):
        """Drop the spans and counts of the previous operation."""
        self.spans.clear()
        for key in self.picard:
            self.picard[key] = 0

    # -- reduction ----------------------------------------------------------

    def summarize(self, op_wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        total = dict.fromkeys(SITES, 0.0)
        calls = dict.fromkeys(SITES, 0)
        child = {}
        for rec in spans:
            dur = rec[END] - rec[START]
            total[rec[NAME]] += dur
            calls[rec[NAME]] += 1
            parent = rec[PARENT]
            if parent is not None:
                child[id(parent)] = child.get(id(parent), 0.0) + dur
        self_time = dict.fromkeys(SITES, 0.0)
        for rec in spans:
            self_time[rec[NAME]] += (rec[END] - rec[START]
                                     - child.get(id(rec), 0.0))

        out = {}
        for name in SITES:
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_time[name]
        p = self.picard
        marches = p["iterates"] - p["slabs"] - p["halvings"]
        entropy_calls = calls["scalar.entropy_residual_arrays"]
        out.update({
            "iteration.self_s": self_time["iteration.picard_slab"],
            "iteration.slabs": p["slabs"],
            "iteration.halvings": p["halvings"],
            "iteration.iterates": p["iterates"],
            "iteration.marches": marches,
            "iteration.steps": p["steps"],
            "iteration.kept_march_ratio":
                p["slabs"] / marches if marches else 0.0,
            "scalar.entropy_kept_ratio":
                p["entropy_kept"] / entropy_calls if entropy_calls else 0.0,
            "verify.pool_speedup": self._concurrency("verify.solve_global"),
            "scalar.entropy_residual_arrays.share": _pct(
                total["scalar.entropy_residual_arrays"], op_wall),
            "verify.audit_trajectory.share": _pct(
                total["verify.audit_trajectory"], op_wall),
            "runio.share": _pct(sum(total[n] for n in RUNIO_WRITERS),
                                op_wall),
            "kernels.share": _pct(self._outermost(KERNEL_LAYERS), op_wall),
            "scalar.godunov_flux.solve_share": _pct(
                total["scalar.godunov_flux"], total["verify.solve_global"]),
        })
        return out

    def _outermost(self, prefixes) -> float:
        """Summed duration of spans in the named layers that no other span
        of those layers encloses, so nested kernel calls count once."""
        inside = {}
        busy = 0.0
        # spans are appended when they open, so a parent precedes its
        # children in the list
        for rec in self.spans:
            parent = rec[PARENT]
            covered = parent is not None and (
                inside[id(parent)] or parent[NAME].startswith(prefixes))
            inside[id(rec)] = covered
            if rec[NAME].startswith(prefixes) and not covered:
                busy += rec[END] - rec[START]
        return busy

    def _concurrency(self, name: str) -> float:
        """Summed span time of one layer over the wall time during which at
        least one such span was open (1.0 when the calls never overlap)."""
        intervals = sorted((r[START], r[END]) for r in self.spans
                           if r[NAME] == name)
        if not intervals:
            return 0.0
        summed = sum(b - a for a, b in intervals)
        covered = 0.0
        lo, hi = intervals[0]
        for a, b in intervals[1:]:
            if a > hi:
                covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += hi - lo
        return summed / covered if covered > 0.0 else 0.0

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the recorded spans as gzipped JSON, one row per span."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        threads = {}
        rows = []
        t0 = self.spans[0][START] if self.spans else 0.0
        for rec in self.spans:
            parent = rec[PARENT]
            rows.append([rec[NAME], rec[START] - t0, rec[END] - t0,
                         index[id(parent)] if parent is not None else -1,
                         threads.setdefault(rec[THREAD], len(threads))])
        payload = {"columns": ["name", "start_s", "end_s", "parent",
                               "thread"], "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0.0 else 0.0
