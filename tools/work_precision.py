"""Work and precision of the integrators over a fixed set of runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/work_precision.py OUT.json
        [--integrators NAME ...] [--rel-tols TOL ...] [--n N] [--orbits I ...] [--t-end T]

For each integrator (the adaptive and regularized ones at each rel_tol,
leapfrog at its default fixed_step) it runs the first N scan initial conditions of seeds
0 and 1 (``quadint scan --seed SEED``'s draw, in its default config:
t = 50, u_floor 1e-10) and the documented orbits to t = 1000, or both
to T, and writes JSON to OUT.json:

- ``runs``: per integrator, setting and run, the ``RunOutcome`` fields
  class, t_final, steps, rejected, floor_accepted, force_evals, drift_H,
  drift_X1, drift_X2, min_u and min_dsing, and the raw wall time of the
  ``simulate`` call (``wall_s``);
- ``totals``: per integrator, setting and group (``scan``, ``orbits``),
  the number of runs, the count of each class, the sums of the work
  counts and of ``wall_s``, and the median and worst of each drift.

Every field but ``wall_s`` is a function of the code and the host's
arithmetic, so two runs of one checkout write equal work counts.  Each
kernel is compiled by an untimed warm-up run before the timed ones.  The
defaults are the set the step-controller changes are judged on: the 20
seed-0 and seed-1 scan ICs and orbits 0-2, at rel_tol 1e-10, 1e-11 and
1e-12.  Only the standard library, numpy's seeded draw and quadint are
used.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import statistics
import sys
import time

from quadint.cli import build_parser, build_sim_config
from quadint.dynamics import INTEGRATORS, PhaseState, SimConfig, scan_initial_conditions, simulate

# tests/test_acceptance.py
DOCUMENTED_ICS = (
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),
    ((0.0, 0.0, 2.0), (0.0, 0.0, 0.2)),
    ((1.0, 0.0, 0.0), (0.3, 0.0, 0.0)),
)
# the config of `quadint scan` with no options given
SCAN_CONFIG = build_sim_config(build_parser().parse_args(["scan", "--out", "scan.csv"]))
SEEDS = (0, 1)
ORBIT_T_END = 1000.0
WORK = ("steps", "rejected", "floor_accepted", "force_evals")
DRIFTS = ("drift_H", "drift_X1", "drift_X2")


def run_set(n, orbits, t_end=None):
    """[(group, name, config, (q, p))] at the integrators' defaults, to
    their own t_end or to ``t_end``."""
    scan = dataclasses.replace(SCAN_CONFIG, t_end=t_end or SCAN_CONFIG.t_end)
    out = [("scan", f"scan{seed}-ic{k}", scan, ic)
           for seed in SEEDS for k, ic in enumerate(scan_initial_conditions(seed, n))]
    out += [("orbits", f"orbit{i}", SimConfig(t_end=t_end or ORBIT_T_END), DOCUMENTED_ICS[i])
            for i in orbits]
    return out


def measure(config, ic) -> dict:
    """One run's outcome fields and the raw wall time of its simulate call."""
    start = time.perf_counter()
    _, outcome = simulate(config, PhaseState.make(0.0, *ic))
    wall = time.perf_counter() - start
    return {"class": outcome.classification, "t_final": outcome.t_final,
            **{f: getattr(outcome, f) for f in WORK},
            **{f: getattr(outcome, f) for f in DRIFTS},
            "min_u": outcome.min_u, "min_dsing": outcome.min_dsing, "wall_s": wall}


def summarise(records: list[dict]) -> dict:
    """Run and class counts, work and wall-time sums, median and worst drifts."""
    classes: dict[str, int] = {}
    for r in records:
        classes[r["class"]] = classes.get(r["class"], 0) + 1
    out = {"runs": len(records), "classes": dict(sorted(classes.items()))}
    out.update({f: sum(r[f] for r in records) for f in (*WORK, "wall_s")})
    for f in DRIFTS:
        values = [r[f] for r in records if not math.isnan(r[f])]
        out[f"{f}_median"] = statistics.median(values) if values else None
        out[f"{f}_worst"] = max(values, default=None)
    return out


def work_precision(integrators, rel_tols, table) -> dict:
    """{"runs": ..., "totals": ...} over ``table`` for each integrator: one
    whose step a SimConfig field bounds (leapfrog) at that field's default,
    the others at each of ``rel_tols``."""
    runs, totals = {}, {}
    for integ in integrators:
        bound = INTEGRATORS[integ][3]
        field, values = (bound, [getattr(SimConfig, bound)]) if bound else ("rel_tol", rel_tols)
        for value in values:
            key = f"{field}={value!r}"
            configs = [dataclasses.replace(config, integrator=integ, **{field: value})
                       for _, _, config, _ in table]
            # compile each kernel before the timed runs
            for config in {(c.a, c.b, c.w0, c.u_floor): c for c in configs}.values():
                simulate(dataclasses.replace(config, t_end=1e-3), PhaseState.make(
                    0.0, *DOCUMENTED_ICS[0]))
            records = {name: measure(config, ic)
                       for (_, name, _, ic), config in zip(table, configs)}
            runs.setdefault(integ, {})[key] = records
            groups: dict[str, list] = {}
            for group, name, _, _ in table:
                groups.setdefault(group, []).append(records[name])
            totals.setdefault(integ, {})[key] = {g: summarise(rs) for g, rs in groups.items()}
    return {"runs": runs, "totals": totals}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--integrators", nargs="+", choices=list(INTEGRATORS),
                        default=["adaptive"], metavar="NAME")
    parser.add_argument("--rel-tols", nargs="+", type=float, default=[1e-10, 1e-11, 1e-12],
                        metavar="TOL", help="rel_tol values of the adaptive and regularized runs")
    parser.add_argument("--n", type=int, default=10, help="scan ICs per seed")
    parser.add_argument("--orbits", nargs="*", type=int, default=[0, 1, 2],
                        choices=range(len(DOCUMENTED_ICS)), metavar="I",
                        help="documented orbits to run")
    parser.add_argument("--t-end", type=float, metavar="T",
                        help="run every IC to T (default: scans to 50, orbits to 1000)")
    args = parser.parse_args(argv)
    table = run_set(args.n, args.orbits, args.t_end)
    result = {
        "options": {k: v for k, v in vars(args).items() if k != "out"},
        "python": platform.python_version(),
        **work_precision(args.integrators, args.rel_tols, table),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
