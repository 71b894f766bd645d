"""Bit-level digests of simulation records and outcomes over a fixed set of runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/record_digest.py [--only NAME ...] [--omit FIELD ...]
    PYTHONPATH=src python tools/record_digest.py --sources

For each run it prints ``<sha256>  <name>``: the digest of ``float.hex`` of
every record row (scan rows for the scan runs) and of every ``RunOutcome``
field, ``detail`` included.  The last line, ``<sha256>  total``, digests the
lines above it.  Two checkouts that print the same lines produced the same
bits.  ``--omit`` leaves outcome fields out, so that a checkout can be
compared with one that lacks a newer field; ``--only`` runs the named runs.
``--sources`` prints the same lines for the generated sources instead: the
digest of each source ``quadint.dynamics`` compiles at the documented
parameters (SimConfig's defaults).  Every literal in them is the repr of a
value computed by IEEE operations or from Fractions, so these digests do
not depend on the host.

The set: the three documented orbits to t = 1000 with the adaptive and
leapfrog integrators (documented0-adaptive is also the benchmark's orbit
run at seed 0); the benchmark's Verlet run at seed 0; the seed-0 and
seed-1 scans (10 ICs, in the config ``quadint scan`` runs by default:
t = 50, rel_tol 1e-10, which the scan runs with the regularized
integrator, sampling t = 0 and t_end only) at 1 and 2 jobs; the first 4
seed-0 scan ICs in that config at u_floor 1e-3 (singularity approaches)
through ``simulate`` with the adaptive and leapfrog integrators; and the
step-failure (p = 1e154), overflow (p = 1e90) and escape ICs of the tests.
The adaptive runs step with the DOP853 pair (``dp54_step``, the 5(4)
oracle, runs in none of them).  Their step controller's exponents go
through the C library's ``pow``, as does the regularized controller's,
and nothing else in a run calls it, so between hosts whose ``pow``
differs only the adaptive and scan lines can differ.
Only the standard library and quadint are used.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

from quadint import dynamics
from quadint.cli import build_parser, build_sim_config
from quadint.dynamics import (
    DOP853,
    DP54,
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


# the integrators of the simulate runs; the scans run the regularized one
SIMULATE_INTEGRATORS = ("adaptive", "leapfrog")


def runs():
    """{name: (kind, config, inputs)}, kind "simulate" or "scan"."""
    out = {}
    for i, ic in enumerate(DOCUMENTED_ICS):
        for integ in SIMULATE_INTEGRATORS:
            out[f"documented{i}-{integ}"] = ("simulate", SimConfig(t_end=1000.0, integrator=integ), ic)
    out["bench-verlet"] = ("simulate", SimConfig(t_end=100.0, integrator="leapfrog",
                                                 fixed_step=1e-3), DOCUMENTED_ICS[0])
    for seed in (0, 1):
        for jobs in (1, 2):
            out[f"scan{seed}-jobs{jobs}"] = ("scan", SCAN_CONFIG,
                                              (scan_initial_conditions(seed, 10), jobs))
    for k, ic in enumerate(scan_initial_conditions(0, 4)):
        for integ in SIMULATE_INTEGRATORS:
            out[f"floor1e-3-ic{k}-{integ}"] = (
                "simulate", dataclasses.replace(SCAN_CONFIG, u_floor=1e-3, integrator=integ), ic)
    out["step-failure-1e154"] = ("simulate", SimConfig(t_end=5.0), (Q_TEST, (1e154, 0.0, 0.0)))
    for integ in SIMULATE_INTEGRATORS:
        out[f"overflow-1e90-{integ}"] = (
            "simulate", SimConfig(t_end=5.0, integrator=integ), (Q_TEST, (1e90, 0.0, 1e90)))
        out[f"escape-{integ}"] = (
            "simulate", SimConfig(w0=1.0, t_end=500.0, r_max=5.0, integrator=integ),
            (Q_TEST, (1.0, 1.0, 1.0)))
    return out


def _enc(v) -> str:
    if isinstance(v, float):
        return v.hex()
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


def run_texts(table, only, omit):
    """(name, digested text) of each run of ``table``, or of those in ``only``."""
    for name, (kind, config, inputs) in table.items():
        if not only or name in only:
            yield name, "\n".join(run_lines(kind, config, inputs, omit))


def sources() -> dict[str, str]:
    """{name: source} of every source dynamics compiles at the documented
    parameters, each generated afresh: the factored block, ForceField._at,
    IntegralEvaluator's _eval and _u, the run kernels, the DP54 and DOP853
    attempts, AdaptiveStepper.step and step_leapfrog."""
    config = SimConfig()
    # cached first, so that IntegralEvaluator does not compile the block again
    dynamics._factored_block(config.a, config.b)
    generated = []
    compile_ = dynamics._compile

    def capture(lines, name):
        generated.append("\n".join(lines))
        return compile_(lines, name)

    dynamics._compile = capture
    try:
        consts, block = dynamics._factored_block.__wrapped__(config.a, config.b)
        force = dynamics.ForceField(config.w0, config.u_floor, consts, block)
        dynamics.IntegralEvaluator(config.a, config.b, config.w0)
        for integ in INTEGRATORS:
            dynamics._compile_kernel.__wrapped__(force, integ)
        for tableau in (DP54, DOP853):
            dynamics._attempt_kernel.__wrapped__(tableau)
        dynamics._adaptive_step.__wrapped__()
        dynamics._leapfrog_step.__wrapped__()
    finally:
        dynamics._compile = compile_
    names = ["factored-block", "force-at", "integrals-eval", "integrals-u",
             *(f"run-{integ}" for integ in INTEGRATORS), "attempt-DP54", "attempt-DOP853",
             "stepper-step", "step-leapfrog"]
    assert len(generated) == len(names), "a source was compiled more or less than once"
    return dict(zip(names, generated))


def main(argv=None) -> int:
    table = runs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(table), metavar="NAME",
                        help="run only these runs")
    parser.add_argument("--omit", nargs="+", default=(), metavar="FIELD",
                        help="RunOutcome fields to leave out of the digests")
    parser.add_argument("--sources", action="store_true",
                        help="digest the generated sources instead of the runs")
    args = parser.parse_args(argv)
    if args.sources:
        texts = sources().items()
    else:
        texts = run_texts(table, args.only, set(args.omit))
    total = hashlib.sha256()
    for name, text in texts:
        line = f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"
        print(line, flush=True)
        total.update((line + "\n").encode())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
