"""Span and counter tracing installed from outside the quadint package.

The tracer wraps public functions and methods of the quadint modules for
the duration of one traced operation and restores the originals
afterwards.  A wrapped name is patched everywhere it is looked up: the
modules import each other by name (``quadint.dynamics.build_context``,
``quadint.verifier.nullspace_exact``), so patching only the defining
module would miss those calls.

Two kinds of wrapper exist:

* span wrappers record one span per call (name, start, end, parent, self
  time); they sit on coarse entry points such as ``build_context`` or one
  scan IC;
* leaf wrappers sit on hot calls (the force, ``Polynomial`` operators,
  one DP54 step) and only add a call count and self time to the
  innermost open span, because ``orbit`` alone makes ~230k force calls.

Self time is a call's duration minus the time of the wrapped calls nested
inside it, so ``dynamics.dp54`` self time excludes the force.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _terms_out(acc, args, result):
    terms = getattr(result, "terms", None)   # None, or NotImplemented from dispatch
    if terms is not None:
        acc["algebra.mul.terms_out"] = acc.get("algebra.mul.terms_out", 0) + len(terms)


def _solve_rows(acc, args, result):
    acc["algebra.solve.rows"] = acc.get("algebra.solve.rows", 0) + len(args[0])


def _step_h(acc, args, result):
    h = args[2]
    if h < acc.get("dynamics.h_min", float("inf")):
        acc["dynamics.h_min"] = h
    if h > acc.get("dynamics.h_max", 0.0):
        acc["dynamics.h_max"] = h


def _accepted(acc, args, result):
    if result is not None:
        acc["dynamics.stepper.accepted"] = acc.get("dynamics.stepper.accepted", 0) + 1


def _run_drift(acc, args, result):
    if result is not None:
        acc.setdefault("dynamics.simulate.drift_H", []).append(result[1].drift_H)


# (kind, layer name, owner path, attribute, hook).  The owner path names a
# class ("module:Class") for methods or the defining module for functions.
# Every alias of the object in any quadint module or class is patched.
TARGETS = (
    ("leaf", "algebra.mul", "quadint.algebra:Polynomial", "__mul__", _terms_out),
    ("leaf", "algebra.add", "quadint.algebra:Polynomial", "__add__", None),
    ("leaf", "algebra.diff", "quadint.algebra:Polynomial", "diff", None),
    ("leaf", "algebra.specialize", "quadint.algebra:Polynomial", "specialize", None),
    ("leaf", "algebra.solve", "quadint.algebra", "solve_exact_sparse", _solve_rows),
    ("leaf", "algebra.solve", "quadint.algebra", "nullspace_exact", _solve_rows),
    ("leaf", "algebra.solve", "quadint.algebra", "matrix_rank_exact", _solve_rows),
    ("leaf", "radical.mul", "quadint.radical:RadicalElement", "__mul__", None),
    ("leaf", "radical.diff", "quadint.radical:RadicalElement", "diff", None),
    ("leaf", "verifier.bracket", "quadint.verifier", "poisson_bracket", None),
    ("span", "catalog.build_context", "quadint.catalog", "build_context", None),
    ("span", "dynamics.compile", "quadint.dynamics", "compile_poly_group", None),
    ("leaf", "dynamics.force", "quadint.dynamics:ForceField", "__call__", None),
    ("leaf", "dynamics.force_u", "quadint.dynamics:ForceField", "u", None),
    ("leaf", "dynamics.dp54", "quadint.dynamics", "dp54_step", _step_h),
    ("leaf", "dynamics.stepper", "quadint.dynamics:AdaptiveStepper", "step", _accepted),
    ("leaf", "dynamics.leapfrog", "quadint.dynamics", "step_leapfrog", None),
    ("leaf", "dynamics.integrals", "quadint.dynamics:IntegralEvaluator", "__call__", None),
    ("leaf", "dynamics.distance", "quadint.dynamics", "distance_to_singular_lines", None),
    ("span", "dynamics.simulate", "quadint.dynamics", "simulate", _run_drift),
    ("span", "dynamics.scan_one", "quadint.dynamics", "_scan_one", None),
    ("span", "dynamics.scan", "quadint.dynamics", "scan_singularity", None),
    ("span", "verifier.run_report", "quadint.verifier", "run_report", None),
) + tuple(
    ("span", f"verifier.{fn}", "quadint.verifier", fn, None)
    for fn in (
        "verify_involution", "verify_m_system", "verify_invariant_coordinate",
        "verify_ode_reduction", "verify_rank_R", "verify_functional_independence",
        "verify_killing_commutator", "first_order_integral_scan",
        "verify_factorization", "solve_scalar_ansatz",
    )
)

# Only these two: times each scan IC and keeps its drift, at ~20 spans
# per scan, so the replay it wraps stays comparable to an untraced run.
LIGHT = ("dynamics.scan_one", "dynamics.simulate")


def _resolve(path):
    modname, _, clsname = path.partition(":")
    mod = sys.modules[modname]
    return getattr(mod, clsname) if clsname else mod


class Tracer:
    """Collects spans and per-span leaf aggregates for one traced operation.

    Use ``with tracer.installed(): with tracer.span("op"): ...``.  Times
    are read from ``clock``.
    """

    def __init__(self, only=None, clock=time.perf_counter):
        self.only = only
        self.clock = clock
        self.spans: list[dict] = []
        self.extra: dict = {}
        self._frames: list[list[float]] = [[0.0]]
        self._open: list[dict] = []
        self._patches: list[tuple] = []
        self._t0 = clock()

    # -- spans --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "leaf": {},
        }
        self.spans.append(rec)
        frame = [0.0]
        self._frames.append(frame)
        self._open.append(rec)
        start = self.clock()
        try:
            yield rec
        finally:
            end = self.clock()
            self._open.pop()
            self._frames.pop()
            self._frames[-1][0] += end - start
            rec["start"] = start - self._t0
            rec["end"] = end - self._t0
            rec["self_s"] = (end - start) - frame[0]

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            result = None
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook(tracer.extra, args, result)

        return wrapper

    def _leaf_wrapper(self, name, fn, hook):
        frames = self._frames
        opened = self._open
        extra = self.extra
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                agg = opened[-1]["leaf"]
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt - frame[0]
                if hook is not None:
                    hook(extra, args, result)

        return wrapper

    # -- installation -------------------------------------------------

    def _patch_everywhere(self, orig, wrapper):
        owners = [m for n, m in list(sys.modules.items())
                  if n == "quadint" or n.startswith("quadint.")]
        owners += [v for m in owners for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("quadint")]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Install the wrappers; restore every original on exit."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for kind, name, path, attr, hook in TARGETS:
                if self.only is not None and name not in self.only:
                    continue
                orig = vars(_resolve(path))[attr]
                make = self._leaf_wrapper if kind == "leaf" else self._span_wrapper
                self._patch_everywhere(orig, make(name, orig, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # -- results ------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """{name: [calls, self_s]} summed over spans and leaf aggregates."""
        out: dict[str, list] = {}
        for rec in self.spans:
            e = out.setdefault(rec["name"], [0, 0.0])
            e[0] += 1
            e[1] += rec.get("self_s", 0.0)
            for name, (calls, self_s) in rec["leaf"].items():
                e = out.setdefault(name, [0, 0.0])
                e[0] += calls
                e[1] += self_s
        return out

    def work_counts(self) -> dict[str, int]:
        """Every call count; identical across traced runs of one input."""
        counts = {name: calls for name, (calls, _) in self.totals().items()}
        for key, val in self.extra.items():
            if isinstance(val, int):
                counts[key] = val
        return counts
