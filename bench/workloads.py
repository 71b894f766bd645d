"""The four benchmark workloads: inputs, one operation each, and its checks.

Parameters are a = 1/4, b = 1, w0 = -1 throughout.  Each workload is a
class with ``make_inputs(seed)``, ``run(inputs)`` (one timed operation,
through the library's public entry points) and ``check(inputs, out)``,
which returns a list of failure messages (empty when the output is right).

Seeds.  The exact battery has no inputs.  The dynamics workloads start
from documented initial conditions; seed 0 uses them exactly and any
other seed multiplies every coordinate by (1 + d), |d| <= 1e-9, drawn
from the seed.  Fresh ``quadint scan`` draws cannot serve here: their
near-line approaches make the 10-IC scan cost 7.7 s to 14.3 s serial
(seeds 0-7, 2-vCPU Xeon), so run-to-run figures would measure the draw,
not the code.  The jittered seed-0 set keeps its closest approach
(min u ~4.6e-9) and its cost within ~2%.  The traced scan run also runs
the fresh draw of seed + 1 (``dynamics.scan_alt.wall_s``, no bound), so
a claim can be checked on inputs it was not tuned on.
"""

from __future__ import annotations

import numpy as np

import quadint
from quadint.algebra import A, B, PX, PY, PZ, W0, X, Y, Z
from quadint.dynamics import PhaseState, SimConfig

A_VAL, B_VAL, W0_VAL = 0.25, 1.0, -1.0
JITTER = 1e-9

# tests/test_acceptance.py criterion 8 bounds
DRIFT_H_MAX = 1e-8
DRIFT_X_MAX = 1e-6

VERIFY_CHECKS = 21
VERIFY_FINGERPRINT = "70ab71ae33ae0607"

IC0 = ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4))   # documented orbit 0 (z-axis)

SCAN_N = 10
SCAN_JOBS = 2
SCAN_CLASSES = {"completed", "singularity-approach", "escape", "step-failure"}


def _jitter(vec, rng):
    if rng is None:
        return tuple(float(v) for v in vec)
    return tuple(float(v) * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for v in vec)


def _seed_rng(seed: int):
    return None if seed == 0 else np.random.default_rng(seed)


def scan_ics(seed: int, n: int = SCAN_N, q_range=0.5, p_range=0.4):
    """The initial conditions ``quadint scan --seed <seed>`` draws."""
    rng = np.random.default_rng(seed)
    ics = []
    for _ in range(n):
        q = tuple(float(v) for v in rng.uniform(-q_range, q_range, 3))
        p = tuple(float(v) for v in rng.uniform(-p_range, p_range, 3))
        ics.append((q, p))
    return ics


class Verify:
    name = "verify"
    min_ops = 11

    def make_inputs(self, seed):
        return None

    def run(self, inputs):
        return quadint.run_report(quadint.build_context())

    def check(self, inputs, report):
        bad = [r.name for r in report.results if not r.passed]
        errs = []
        if len(report.results) != VERIFY_CHECKS:
            errs.append(f"{len(report.results)} checks, expected {VERIFY_CHECKS}")
        if bad:
            errs.append("failed checks: " + ", ".join(bad))
        if report.fingerprint != VERIFY_FINGERPRINT:
            errs.append(f"fingerprint {report.fingerprint} != {VERIFY_FINGERPRINT}")
        return errs

    def signature(self, report):
        return (report.fingerprint, tuple((r.name, r.passed) for r in report.results))


class _Orbit:
    """One documented orbit through ``simulate``; subclasses pick the integrator."""

    min_ops = 3
    config: dict

    def make_inputs(self, seed):
        rng = _seed_rng(seed)
        q0, p0 = IC0
        return SimConfig(a=A_VAL, b=B_VAL, w0=W0_VAL, **self.config), (
            _jitter(q0, rng), _jitter(p0, rng))

    def run(self, inputs):
        config, (q0, p0) = inputs
        return quadint.simulate(config, PhaseState.make(0.0, q0, p0))

    def check(self, inputs, out):
        config = inputs[0]
        record, outcome = out
        errs = []
        if outcome.classification != "completed":
            errs.append(f"classification {outcome.classification}: {outcome.detail}")
        if abs(outcome.t_final - config.t_end) > 1e-9 * config.t_end:
            errs.append(f"t_final {outcome.t_final!r} != {config.t_end}")
        if len(record.rows) != round(config.t_end / config.sample_interval) + 1:
            errs.append(f"{len(record.rows)} samples")
        if not outcome.drift_H < DRIFT_H_MAX:
            errs.append(f"drift H {outcome.drift_H:.3e} >= {DRIFT_H_MAX:g}")
        if not (outcome.drift_X1 < DRIFT_X_MAX and outcome.drift_X2 < DRIFT_X_MAX):
            errs.append(f"drift X1 {outcome.drift_X1:.3e} X2 {outcome.drift_X2:.3e}"
                        f" >= {DRIFT_X_MAX:g}")
        return errs

    def signature(self, out):
        record, outcome = out
        return (outcome, record.rows[-1])


class Orbit(_Orbit):
    name = "orbit"
    config = dict(integrator="adaptive", rel_tol=1e-12, t_end=1000.0)


class Verlet(_Orbit):
    name = "verlet"
    config = dict(integrator="leapfrog", fixed_step=1e-3, t_end=100.0)


class Scan:
    name = "scan"
    min_ops = 3
    jobs = SCAN_JOBS

    def __init__(self):
        self._exact = quadint.build_context()

    def config(self):
        return SimConfig(a=A_VAL, b=B_VAL, w0=W0_VAL, t_end=50.0,
                         rel_tol=1e-10, u_floor=1e-10)

    def make_inputs(self, seed):
        rng = _seed_rng(seed)
        return self.config(), [(_jitter(q, rng), _jitter(p, rng)) for q, p in scan_ics(0)]

    def run(self, inputs, jobs=None):
        config, ics = inputs
        return quadint.scan_singularity(config, ics, jobs=self.jobs if jobs is None else jobs)

    def _exact_point(self, q, p):
        return {X: q[0], Y: q[1], Z: q[2], PX: p[0], PY: p[1], PZ: p[2],
                A: A_VAL, B: B_VAL, W0: W0_VAL}

    def check(self, inputs, rows):
        """Rows in input order, documented classes, and E and min u checked
        against the exact catalog's own float evaluation, which shares no
        code with the compiled evaluators."""
        _, ics = inputs
        if len(rows) != len(ics):
            return [f"{len(rows)} rows for {len(ics)} ICs"]
        errs = []
        for i, (row, (q, p)) in enumerate(zip(rows, ics)):
            if row[0] != i or tuple(row[1:7]) != (*q, *p):
                errs.append(f"row {i} out of order or IC altered")
                continue
            if row[10] not in SCAN_CLASSES:
                errs.append(f"row {i}: class {row[10]!r}")
            pt = self._exact_point(q, p)
            energy = self._exact.H.eval_float(pt)
            if abs(row[7] - energy) > 1e-12 * abs(energy):
                errs.append(f"row {i}: E {row[7]!r} vs exact-path {energy!r}")
            u_ic = self._exact.u.eval_float(pt)
            if not 0.0 < row[8] <= u_ic * (1.0 + 1e-12):
                errs.append(f"row {i}: min_u {row[8]!r} outside (0, u(IC) = {u_ic!r}]")
        return errs

    def signature(self, rows):
        return tuple(rows)


WORKLOADS = {w.name: w for w in (Verify, Orbit, Scan, Verlet)}
