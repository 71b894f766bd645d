"""quadint benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify --seed 0 --seconds 20 --trace 0

The package is imported from the checkout's ``src/`` (nothing is
installed).  With ``--trace 0`` the workload's operation is repeated for
``--seconds`` seconds and every end-to-end metric of ``BENCHMARK.json`` is
reported; with ``--trace 1`` a few untraced operations are followed by two
traced ones, and every per-layer metric is reported.  Every operation's
output is checked; a failed check counts as a failed operation.  The last
line of standard output is the JSON result.  Raw times, spans and the
environment go to ``.bench_out/`` in the checkout.

All operation times (``wall_s``, ``wall_s_tail`` and the per-layer
times) are scaled to a reference host speed sampled during each
operation (see hostspeed.py); ``setup_s`` is scaled by an adjacent
reference start-up (see REF_CODE).

Workloads are closed-loop: one operation at a time in one process (the
scan also uses a pool of two worker processes), the next starting after
the previous one returns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed
from tracer import LIGHT, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# setup_s: a fresh interpreter running SETUP_CODE, each run paired with an
# adjacent run of REF_CODE, which imports numpy, quadint's only runtime
# dependency.  Process start-up and imports slow down with the host's
# phases more than interpreted code does, so HostSpeed cannot correct
# them; the adjacent reference run can.  setup_s is the median ratio
# times REF_SETUP_S, the reference run's time on the reference host
# (2-vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6) in its fast phase.
SETUP_REPS = 11
SETUP_CODE = "import quadint; quadint.build_context()"
REF_CODE = "import numpy"
REF_SETUP_S = 0.15
TRACE_UNTRACED_OPS = {"verify": 5}
TRACED_OPS = 2
CHECK_GROUPS = (
    "involution", "m_system", "invariant_coordinate", "ode_reduction", "rank_R",
    "functional_independence", "killing_commutator", "first_order_scan",
    "factorization", "scalar_ansatz",
)
# layers reported as "<layer>.calls" and "<layer>.self_s"
CALL_LAYERS = (
    "algebra.mul", "algebra.add", "algebra.diff", "algebra.solve", "algebra.specialize",
    "catalog.build_context", "dynamics.compile", "radical.mul", "radical.diff",
    "verifier.bracket", "dynamics.force", "dynamics.force_u", "dynamics.leapfrog",
    "dynamics.integrals", "dynamics.distance",
)


def _import_checkout():
    """Import quadint from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "quadint" / "__init__.py").is_file():
        sys.exit(f"bench: no quadint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadint

    if Path(quadint.__file__).resolve().parent != SRC / "quadint":
        sys.exit(f"bench: imported quadint from {quadint.__file__}, not {SRC}")


def tail(xs):
    """Highest whole percentile with at least ten samples above it
    (nearest rank).  With fewer than 11 samples no percentile has ten
    above it, and the median is returned: the seconds-long operations of
    orbit, scan and verlet give 4-10 samples per run, and their maximum
    would measure the host's slowest phase, not the program."""
    xs = sorted(xs)
    n = len(xs)
    if n < 11:
        return median(xs)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return xs[rank - 1]


def measure_setup() -> tuple[float, float]:
    """Normalised setup_s and the raw median seconds of SETUP_CODE."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    raw, ratios = [], []
    for _ in range(SETUP_REPS):
        raw.append(wall(SETUP_CODE))
        ratios.append(raw[-1] / wall(REF_CODE))
    return median(ratios) * REF_SETUP_S, median(raw)


def environment():
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "quadint").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "source_sha256": digest.hexdigest()[:16],
    }


class Run:
    """Counts operations and failed checks; runs and times one operation."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def op(self, inputs, trace=False, only=None, same=True, **run_kw):
        """One operation, timed under HostSpeed and, with ``trace``, traced
        by a Tracer(only).  The output is checked after the tracer is
        removed and, with ``same``, must equal the first such operation's
        output bit for bit.  Returns (output, seconds, scale, tracer)."""
        gc.collect()
        tracer = None
        with HostSpeed() as speed:
            if trace:
                tracer = Tracer(only, clock=speed.clock)
                with tracer.installed(), tracer.span(f"{self.wl.name}.op"):
                    t0 = speed.clock()
                    out = self.wl.run(inputs, **run_kw)
                    dt = speed.clock() - t0
            else:
                t0 = speed.clock()
                out = self.wl.run(inputs, **run_kw)
                dt = speed.clock() - t0
        errs = self.wl.check(inputs, out)
        if same:
            sig = self.wl.signature(out)
            if self.reference is None:
                self.reference = sig
            elif sig != self.reference:
                errs.append("output differs from the first operation's")
        self.attempted += 1
        self.fail(errs)
        return out, dt, speed.scale, tracer

    def fail(self, errs):
        """Count the last operation as failed if ``errs`` is not empty."""
        if errs and self.failed < self.attempted:
            self.failed += 1
        for e in errs:
            print(f"check failed [{self.wl.name}]: {e}", file=sys.stderr)


def end_to_end(run: Run, inputs, seconds: float) -> dict:
    """Repeat the operation for ``seconds``; times are host-speed normalised."""
    wl = run.wl
    raw, times = [], []
    start = time.perf_counter()
    while len(raw) < wl.min_ops or time.perf_counter() - start < seconds:
        _, dt, scale, _ = run.op(inputs)
        raw.append(dt)
        times.append(dt * scale)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "scan":
        # pool workers only: setup subprocesses have not run yet
        peak_kb += wl.jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{wl.name}: {len(times)} operations; wall_s median {median(times):.4f} s"
          f" (raw {median(raw):.4f} s), tail {tail(times):.4f} s (raw {tail(raw):.4f} s)")
    setup_s, setup_raw = measure_setup()
    return {
        "setup_s": setup_s,
        "wall_s": median(times),
        "wall_s_tail": tail(times),
        "peak_rss_mb": peak_kb / 1024.0,
        "_raw": {"wall_s_samples": raw, "scales": [t / r for t, r in zip(times, raw)],
                 "setup_s": setup_raw},
    }


def per_layer(run: Run, inputs, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics; every time is normalised by its operation's
    host-speed scale."""
    from workloads import scan_ics

    wl = run.wl
    serial = {"jobs": 1} if wl.name == "scan" else {}
    reports, base = [], []
    for _ in range(TRACE_UNTRACED_OPS.get(wl.name, 1)):
        out, dt, scale, _ = run.op(inputs)
        base.append(dt * scale)
        reports.append((out, scale))

    m: dict[str, float] = {}
    if wl.name == "scan":
        _, dt, scale, light = run.op(inputs, trace=True, only=LIGHT, jobs=1)
        ic_s = [(s["end"] - s["start"]) * scale
                for s in light.spans if s["name"] == "dynamics.scan_one"]
        m["dynamics.scan.ic_s_max"] = max(ic_s)
        m["dynamics.scan.ic_s_sum"] = sum(ic_s)
        m["dynamics.scan.parallel_efficiency"] = sum(ic_s) / (wl.jobs * median(base))
        m["dynamics.scan.drift_H_max"] = max(light.extra["dynamics.simulate.drift_H"])
        base = [dt * scale]     # the traced replays are serial too
    else:
        for key in ("ic_s_max", "ic_s_sum", "parallel_efficiency", "drift_H_max"):
            m[f"dynamics.scan.{key}"] = 0.0

    traced = [run.op(inputs, trace=True, **serial) for _ in range(TRACED_OPS)]
    counts = [t.work_counts() for _, _, _, t in traced]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        run.fail([f"work counts differ between traced runs: {diff}"])
    m["trace_overhead"] = median([dt * sc for _, dt, sc, _ in traced]) / median(base) - 1.0
    _, _, scale, tracer = traced[-1]

    totals = tracer.totals()
    for layer in CALL_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = calls, self_s * scale
    m["catalog.build_context.total_s"] = scale * sum(
        s["end"] - s["start"] for s in tracer.spans if s["name"] == "catalog.build_context")
    extra = tracer.extra
    m["algebra.mul.terms_out"] = extra.get("algebra.mul.terms_out", 0)
    m["algebra.solve.rows"] = extra.get("algebra.solve.rows", 0)
    attempts, dp_self = totals.get("dynamics.dp54", (0, 0.0))
    accepted = extra.get("dynamics.stepper.accepted", 0)
    m["dynamics.dp54.attempts"] = attempts
    m["dynamics.dp54.self_s"] = dp_self * scale
    m["dynamics.stepper.accepted"] = accepted
    m["dynamics.stepper.self_s"] = totals.get("dynamics.stepper", (0, 0.0))[1] * scale
    m["dynamics.stepper.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["dynamics.force_per_accepted"] = (
        (m["dynamics.force.calls"] + m["dynamics.force_u.calls"]) / accepted
        if accepted else 0.0)
    m["dynamics.h_min"] = extra.get("dynamics.h_min", 0.0)
    m["dynamics.h_max"] = extra.get("dynamics.h_max", 0.0)

    # elapsed_ms is the program's own clock, so it includes the ~2% of
    # time spent in host-speed samples
    for group in CHECK_GROUPS:
        m[f"verifier.check_s.{group}"] = median([
            sc * sum(r.elapsed_ms for r in rep.results if r.name.split(".")[0] == group) / 1e3
            for rep, sc in reports]) if wl.name == "verify" else 0.0

    if wl.name == "scan":
        # an independent draw, so a claim can be checked on inputs it was not tuned on
        _, dt, scale, _ = run.op((inputs[0], scan_ics(seed + 1)), same=False)
        m["dynamics.scan_alt.wall_s"] = dt * scale
    else:
        m["dynamics.scan_alt.wall_s"] = 0.0

    return m, {"spans": tracer.spans, "extra": extra, "work_counts": counts[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()
    from workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    run = Run(WORKLOADS[args.workload]())
    inputs = run.wl.make_inputs(args.seed)
    if args.trace:
        values, detail = per_layer(run, inputs, args.seed)
    else:
        values = end_to_end(run, inputs, args.seconds)
        detail = values.pop("_raw")

    names = {d["name"] for d in declared}
    if set(values) != names:
        sys.exit(f"bench: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {"args": vars(args), "environment": environment(), "result": result, **detail},
        indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
