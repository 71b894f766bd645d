"""Bit-level digests of simulation records and outcomes over a fixed set of runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/record_digest.py [--only NAME ...] [--omit FIELD ...]

For each run it prints ``<sha256>  <name>``: the digest of ``float.hex`` of
every record row (scan rows for the scan runs) and of every ``RunOutcome``
field, ``detail`` included.  The last line, ``<sha256>  total``, digests the
lines above it.  Two checkouts that print the same lines produced the same
bits.  ``--omit`` leaves outcome fields out, so that a checkout can be
compared with one that lacks a newer field; ``--only`` runs the named runs.

The set: the three documented orbits to t = 1000 with both integrators
(documented0-adaptive is also the benchmark's orbit run at seed 0); the
benchmark's Verlet run at seed 0; the seed-0 and seed-1 scans (10 ICs,
in the config ``quadint scan`` runs by default: t = 50, rel_tol 1e-10) at
1 and 2 jobs; the first 4 seed-0 scan ICs in that config at u_floor 1e-3
(singularity approaches) with both integrators; and the step-failure
(p = 1e154), overflow (p = 1e90) and escape ICs of the tests.
The adaptive runs step with the DOP853 pair (``dp54_step``, the 5(4)
oracle, runs in none of them).  Their step controller's exponents go
through the C library's ``pow``, which nothing else in a run calls, so
between hosts whose ``pow`` differs only the adaptive lines can differ.
Only the standard library and quadint are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

from quadint.cli import build_parser, build_sim_config
from quadint.dynamics import (
    INTEGRATORS,
    PhaseState,
    SimConfig,
    scan_initial_conditions,
    scan_singularity,
    simulate,
)

# tests/test_acceptance.py
DOCUMENTED_ICS = (
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),
    ((0.0, 0.0, 2.0), (0.0, 0.0, 0.2)),
    ((1.0, 0.0, 0.0), (0.3, 0.0, 0.0)),
)
# tests/test_dynamics.py
Q_TEST = (0.5, 0.2, -0.3)


# the config of `quadint scan` with no options given
SCAN_CONFIG = build_sim_config(build_parser().parse_args(["scan", "--out", "scan.csv"]))


def runs():
    """{name: (kind, config, inputs)}, kind "simulate" or "scan"."""
    out = {}
    for i, ic in enumerate(DOCUMENTED_ICS):
        for integ in INTEGRATORS:
            out[f"documented{i}-{integ}"] = ("simulate", SimConfig(t_end=1000.0, integrator=integ), ic)
    out["bench-verlet"] = ("simulate", SimConfig(t_end=100.0, integrator="leapfrog",
                                                 fixed_step=1e-3), DOCUMENTED_ICS[0])
    for seed in (0, 1):
        for jobs in (1, 2):
            out[f"scan{seed}-jobs{jobs}"] = ("scan", SCAN_CONFIG,
                                              (scan_initial_conditions(seed, 10), jobs))
    for k, ic in enumerate(scan_initial_conditions(0, 4)):
        for integ in INTEGRATORS:
            out[f"floor1e-3-ic{k}-{integ}"] = (
                "simulate", dataclasses.replace(SCAN_CONFIG, u_floor=1e-3, integrator=integ), ic)
    out["step-failure-1e154"] = ("simulate", SimConfig(t_end=5.0), (Q_TEST, (1e154, 0.0, 0.0)))
    for integ in INTEGRATORS:
        out[f"overflow-1e90-{integ}"] = (
            "simulate", SimConfig(t_end=5.0, integrator=integ), (Q_TEST, (1e90, 0.0, 1e90)))
        out[f"escape-{integ}"] = (
            "simulate", SimConfig(w0=1.0, t_end=500.0, r_max=5.0, integrator=integ),
            (Q_TEST, (1.0, 1.0, 1.0)))
    return out


def _enc(v) -> str:
    if isinstance(v, float):              # numpy float64 included
        return float(v).hex()
    return repr(v) if isinstance(v, str) else str(v)


def run_lines(kind, config, inputs, omit=()) -> list[str]:
    """The text a run's digest covers: one line per row, then one per field."""
    if kind == "scan":
        ics, jobs = inputs
        return [",".join(_enc(v) for v in row) for row in scan_singularity(config, ics, jobs=jobs)]
    q0, p0 = inputs
    record, outcome = simulate(config, PhaseState.make(0.0, q0, p0))
    lines = [",".join(_enc(v) for v in row) for row in record.rows]
    lines += [f"{f.name}={_enc(getattr(outcome, f.name))}"
              for f in dataclasses.fields(outcome) if f.name not in omit]
    return lines


def main(argv=None) -> int:
    table = runs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(table), metavar="NAME",
                        help="run only these runs")
    parser.add_argument("--omit", nargs="+", default=(), metavar="FIELD",
                        help="RunOutcome fields to leave out of the digests")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name, (kind, config, inputs) in table.items():
        if args.only and name not in args.only:
            continue
        text = "\n".join(run_lines(kind, config, inputs, set(args.omit)))
        line = f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"
        print(line, flush=True)
        total.update((line + "\n").encode())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
