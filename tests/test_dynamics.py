"""Integrator validation against closed-form systems, force-field checks,
and the simulation/scan harness."""

import ast
import contextlib
import dataclasses
import hashlib
import math
import os
import re
import signal
import struct
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quadint import dynamics
from quadint.algebra import A, B, X, Y, Z
from quadint.algebra import W0 as W0_VAR
from quadint.catalog import ParamDomain, build_context
from quadint.dynamics import (
    AdaptiveStepper,
    EvaluationOverflow,
    IntegralEvaluator,
    PhaseState,
    RunOutcome,
    SimConfig,
    StepFailure,
    TrajectoryRecord,
    compile_force,
    compile_poly_group,
    compile_system,
    distance_to_singular_lines,
    dp54_step,
    scan_initial_conditions,
    scan_singularity,
    simulate,
    step_leapfrog,
)
from quadint.radical import SingularPoint

A0, B0, W0 = 0.25, 1.0, -1.0


@pytest.fixture(scope="module")
def force():
    return compile_force(A0, B0, W0)


# -- force field --------------------------------------------------------


def test_potential_at_origin(force):
    # u(0) = 729/256, so V(0) = w0 * 16/27
    assert force.potential((0.0, 0.0, 0.0)) == pytest.approx(-16 / 27, rel=1e-14)


def test_force_zero_at_origin(force):
    # the potential is stationary at the origin (its gradient has no
    # constant term)
    f = force((0.0, 0.0, 0.0))
    assert all(abs(c) == 0.0 for c in f)


def test_force_matches_finite_difference(force):
    rng = np.random.default_rng(7)
    h = 1e-5
    checked = 0
    for _ in range(200):
        q = rng.uniform(-0.8, 0.8, size=3)
        if force.u(q) < 0.3:
            continue
        f = force(q)
        for i in range(3):
            hi, lo = q.copy(), q.copy()
            hi[i] += h
            lo[i] -= h
            fd = -(force.potential(hi) - force.potential(lo)) / (2 * h)
            scale = max(abs(fd), 1e-6)
            assert abs(f[i] - fd) / scale < 1e-6
        checked += 1
    assert checked >= 100


def test_force_raises_on_singular_line(force):
    q = (-1.0 / 3**0.5, 3 * 3**0.5 / 4, 1.0)
    with pytest.raises(SingularPoint):
        force(q)


def test_param_domain_rejected():
    for a_val, b_val in ((1.0, 1.0), (1.3, 1.0), (1.5, 1.0), (0.25, math.inf), (math.nan, 1.0)):
        with pytest.raises(ParamDomain):
            compile_force(a_val, b_val, -1.0)


# -- integrator oracles -------------------------------------------------


def _free(q):
    return (0.0, 0.0, 0.0)


def _oscillator(q):
    return (-q[0], -q[1], -q[2])


def test_dp54_free_particle_exact():
    y0 = (0.0, 1.0, -2.0, 0.5, -0.25, 1.0)
    y5, err = dp54_step(_free, y0, 0.7)
    for i in range(3):
        assert y5[i] == pytest.approx(y0[i] + 0.7 * y0[i + 3], abs=1e-15)
        assert y5[i + 3] == y0[i + 3]
    assert max(abs(e) for e in err) < 1e-15


def test_dp54_error_estimate_order_five():
    # halving h should shrink the embedded error estimate by about 2^5
    y0 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    _, e1 = dp54_step(_oscillator, y0, 0.2)
    _, e2 = dp54_step(_oscillator, y0, 0.1)
    n1 = math.sqrt(sum(v * v for v in e1))
    n2 = math.sqrt(sum(v * v for v in e2))
    ratio = n1 / n2
    assert 20 < ratio < 45  # ~32 for a 5th-order estimate


def test_adaptive_oscillator_energy_drift():
    # 100 periods of the isotropic oscillator at rel_tol 1e-12
    stepper = AdaptiveStepper(_oscillator, rel_tol=1e-12, abs_tol=1e-14)
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    def energy(st):
        return 0.5 * (st.p @ st.p) + 0.5 * (st.q @ st.q)

    e0 = energy(state)
    t_end = 100 * 2 * math.pi
    while state.t < t_end:
        state, _, _ = stepper.step(state, h_cap=t_end - state.t)
    assert abs(energy(state) - e0) / e0 < 1e-9
    # and the phase is right: q should be back near (1, 0, 0)
    assert state.q[0] == pytest.approx(1.0, abs=1e-7)


def test_adaptive_oscillator_trajectory_accuracy():
    stepper = AdaptiveStepper(_oscillator, rel_tol=1e-12, abs_tol=1e-14)
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    t_end = 10.0
    while state.t < t_end:
        state, _, _ = stepper.step(state, h_cap=t_end - state.t)
    assert state.q[0] == pytest.approx(math.cos(10.0), abs=1e-10)
    assert state.p[0] == pytest.approx(-math.sin(10.0), abs=1e-10)


def test_leapfrog_time_reversible():
    state = PhaseState.make(0.0, (0.3, -0.2, 0.5), (0.1, 0.4, -0.3))
    h = 1e-2
    fwd = state
    for _ in range(50):
        fwd = step_leapfrog(fwd, h, _oscillator)
    # reverse momenta and integrate back
    back = PhaseState(fwd.t, fwd.q, dynamics.Vec3(-v for v in fwd.p))
    for _ in range(50):
        back = step_leapfrog(back, h, _oscillator)
    assert np.allclose(back.q, state.q, atol=1e-12)
    assert np.allclose([-v for v in back.p], state.p, atol=1e-12)


def test_leapfrog_bounded_energy_oscillator():
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    h = 1e-2
    e0 = 1.0
    worst = 0.0
    for _ in range(20000):
        state = step_leapfrog(state, h, _oscillator)
        e = 0.5 * (state.p @ state.p) + 0.5 * (state.q @ state.q)
        worst = max(worst, abs(e - e0))
    # symplectic: energy error stays O(h^2) without secular growth
    assert worst < 1e-4


# -- generated attempts, FSAL and Verlet force reuse ---------------------
#
# _attempt_loop is the term-by-term Nystrom form of an embedded
# Runge-Kutta attempt over a tableau record, which the generated attempt
# unrolls; it is the reference it must match bit for bit.
# _classical_attempt_loop is the same attempt in the first-order form, with
# every stage momentum formed; it must agree to a few ulps.


def _weighted(weights, values):
    """sum_s w_s values[s] over the nonzero weights, from the first one on;
    None if every weight is zero."""
    acc = None
    for w, v in zip(weights, values):
        if w:
            acc = w * v if acc is None else acc + w * v
    return acc


def _displacement(hh, total, weights_a, hp, fs, j):
    """h sum_s w_s P_s[j] in Nystrom form, for weights w with sum ``total``
    and w A = ``weights_a``, from hh = h*h, hp = h*p and the stage forces
    fs, as total*hp + hh * (w A . F)."""
    inner = _weighted(weights_a, [f[j] for f in fs])
    acc = total * hp[j] if total else None
    if inner is not None:
        acc = hh * inner if acc is None else acc + hh * inner
    return acc


def _attempt_loop(tableau, force, y0, h):
    """(solution, error estimate, low-order estimate or None, stage forces)
    of one attempt of ``tableau`` in Nystrom form, summed in a loop; the
    solution's position is the last stage's, and the low-order momentum
    estimate is the solution's increment minus h (BHH . F)."""
    y0 = tuple(y0)
    q, p = y0[:3], y0[3:]
    hh, hp = h * h, [h * v for v in p]
    fs = [tuple(force(q))]
    for s in range(1, tableau.last + 1):
        stage = tuple(q[j] + _displacement(hh, tableau.nodes[s], tableau.rows2[s], hp, fs, j)
                      for j in range(3))
        fs.append(tuple(force(stage)))
    b = tableau.rows[-1]
    dp = [h * _weighted(b, [f[j] for f in fs]) for j in range(3)]
    z = stage + tuple(p[j] + dp[j] for j in range(3))

    def dq(i):
        return [_displacement(hh, tableau.error_sums[i], tableau.error_rows[i], hp, fs, j)
                for j in range(3)]

    est = dq(0) + [h * _weighted(tableau.error[0], [f[j] for f in fs]) for j in range(3)]
    if len(tableau.error) == 1:
        return z, tuple(est), None, fs
    low = dq(1) + [dp[j] - h * _weighted(tableau.bhh, [f[j] for f in fs]) for j in range(3)]
    return z, tuple(est), tuple(low), fs


def _classical_attempt_loop(tableau, force, y0, h):
    """(solution, error estimate, low-order estimate or None) of one attempt
    of ``tableau`` as a first-order system y' = (p, F(q)), every stage state
    (q and p) formed and summed in a loop."""
    y0 = tuple(y0)

    def rhs(y):
        return (*y[3:], *force(y[:3]))

    ks = [rhs(y0)]
    for row in tableau.rows[1:]:
        stage = tuple(y0[j] + h * _weighted(row, [k[j] for k in ks]) for j in range(6))
        ks.append(rhs(stage))
    z = stage

    def error(i):
        return [h * _weighted(tableau.error[i], [k[j] for k in ks]) for j in range(6)]

    if len(tableau.error) == 1:
        return z, tuple(error(0)), None
    return z, tuple(error(0)), tuple(error(1))


def _blended_norm_loop(y0, z, e, low, abs_tol, rel_tol):
    """Hairer's DOP853 error norm of an attempt of _attempt_loop over DOP853,
    each sum of squares in the mirror-paired order of the kernel."""
    scale = [abs_tol + rel_tol * max(abs(y0[j]), abs(z[j])) for j in range(6)]

    def paired(v):
        # x with z and px with pz, in the kernel's order
        qx, qy, qz, px, py, pz = (v[j] / scale[j] for j in range(6))
        return (qx * qx + qz * qz) + qy * qy + ((px * px + pz * pz) + py * py)

    err5, err3 = paired(e), paired(low)
    deno = err5 + 0.01 * err3
    return err5 / (math.sqrt(6.0) * math.sqrt(deno)) if deno else 0.0


def _bits(values):
    return struct.pack(f"{len(values)}d", *values)


def _kernel_states(rng, n=40):
    """Seeded states on and off the invariant axes, with exact zeros and -0.0."""
    states = [
        (0.0, 0.0, 0.5, 0.0, 0.0, 0.4),
        (-0.0, 0.0, 0.5, 0.0, -0.0, 0.4),
        (-0.0, -0.0, 0.5, -0.0, -0.0, 0.4),
        (1.0, -0.0, 0.0, 0.3, 0.0, -0.0),
        (0.0, -0.0, -0.0, -0.0, 0.0, 0.0),
    ]
    while len(states) < n:
        y = list(rng.uniform(-0.5, 0.5, 6))
        for j in rng.choice(6, size=rng.integers(0, 4), replace=False):
            y[j] = rng.choice((0.0, -0.0))
        states.append(tuple(float(v) for v in y))
    return states


def _check_attempt_against_loop(tableau, fn, attempt):
    """``attempt(force, y0, h) -> (solution, error estimate)`` equals
    _attempt_loop over ``tableau`` bit for bit, stage positions included,
    and the generated attempt's last-stage force (the force at the
    solution: FSAL) equals the loop's."""
    def logged(log):
        def f(q):
            log.append(_bits([float(v) for v in q]))
            return fn(q)
        return f

    rng = np.random.default_rng(20261017)
    for y0 in _kernel_states(rng):
        for h in (1e-3, 0.0371, 0.2, -0.05):
            stages, ref_stages = [], []
            z, err = attempt(logged(stages), y0, h)
            # the loop is fed numpy scalars: their sums are plain
            # left-to-right on every Python
            ref_z, ref_err, _, fs = _attempt_loop(tableau, logged(ref_stages),
                                                  tuple(np.float64(v) for v in y0), h)
            # every stage position, signed zeros included, and both outputs
            assert stages == ref_stages, (y0, h)
            assert _bits(z) == _bits(ref_z), (y0, h)
            assert _bits(err) == _bits(ref_err), (y0, h)
            last = dynamics._attempt_kernel(tableau)(fn, y0, fn(y0[:3]), h)[2]
            assert _bits(last) == _bits(fs[-1]) == _bits(fn(z[:3])), (y0, h)


@pytest.mark.parametrize("name", ["oscillator", "free", "force_field"])
def test_dp54_kernel_matches_loop_oracle_bitwise(name, force):
    fn = {"oscillator": _oscillator, "free": _free, "force_field": force}[name]
    _check_attempt_against_loop(dynamics.DP54, fn, dp54_step)


@pytest.mark.parametrize("name", ["oscillator", "free", "force_field"])
def test_dop853_attempt_matches_loop_oracle_bitwise(name, force):
    fn = {"oscillator": _oscillator, "free": _free, "force_field": force}[name]
    kernel = dynamics._attempt_kernel(dynamics.DOP853)

    def attempt(f, y0, h):
        z, e, _ = kernel(f, y0, f(y0[:3]), h)
        return z, e

    _check_attempt_against_loop(dynamics.DOP853, fn, attempt)


@pytest.mark.parametrize("tableau", ["DP54", "DOP853"])
@pytest.mark.parametrize("name", ["oscillator", "free", "force_field"])
def test_nystrom_attempt_agrees_with_classical_form(tableau, name, force):
    """The Nystrom attempt is the first-order one with the stage momenta
    substituted: per attempt, the solution and both error estimates agree
    with the classical loop within 4 ulps of the attempt's largest
    magnitude among y0, z and h times a stage force (2 ulps seen)."""
    tab = getattr(dynamics, tableau)
    fn = {"oscillator": _oscillator, "free": _free, "force_field": force}[name]
    rng = np.random.default_rng(20261018)
    for y0 in _kernel_states(rng):
        for h in (1e-3, 0.0371, 0.2, -0.05):
            z, e, low, fs = _attempt_loop(tab, fn, y0, h)
            ref_z, ref_e, ref_low = _classical_attempt_loop(tab, fn, y0, h)
            scale = max(*map(abs, y0 + z), *(abs(h * v) for f in fs for v in f), 1e-300)
            bound = 4 * 2.0**-52 * scale
            pairs = [*zip(z, ref_z), *zip(e, ref_e), *zip(low or (), ref_low or ())]
            assert max(abs(a - b) for a, b in pairs) <= bound, (y0, h)


def test_nystrom_tables_are_exact_values_rounded_once():
    """c = A 1, the rows of A A, sum E, E A of each tableau and BHH = B - E3
    of DOP853 are the exact products of its stored doubles, each rounded
    once, and are derived once per tableau.  An entry of at most 2^-50 of
    its terms' magnitudes is 0.0: that zero rule sets exactly seven entries,
    which are 0 for the exact weights, and no others."""
    zeroed = set()
    for name in ("DP54", "DOP853"):
        tab = getattr(dynamics, name)
        n = len(tab.rows)
        a = [[Fraction(row[k]) if k < len(row) else Fraction(0) for k in range(n)]
             for row in tab.rows]

        def rounded(label, terms):
            exact = sum(terms)
            if exact and abs(exact) <= Fraction(1, 2**50) * sum(map(abs, terms)):
                zeroed.add((name, *label))
                return 0.0
            return float(exact)

        def times_a(label, w, width):
            # nonzero only where the table has an entry
            assert all(sum(w[j] * a[j][k] for j in range(n)) == 0 for k in range(width, n))
            return tuple(rounded((*label, k), [w[j] * a[j][k] for j in range(n)])
                         for k in range(width))

        for s, row in enumerate(a):
            assert tab.nodes[s] == rounded(("nodes", s), row)
            assert len(tab.rows2[s]) == max(s - 1, 0)
            assert tab.rows2[s] == times_a(("rows2", s), row, len(tab.rows2[s]))
        for i, weights in enumerate(tab.error):
            w = [Fraction(c) for c in weights] + [Fraction(0)] * (n - len(weights))
            assert tab.error_sums[i] == rounded(("error_sums", i), w)
            assert tab.error_rows[i] == times_a(("error_rows", i), w, len(tab.error_rows[i]))
        assert tab.bhh == tuple(rounded(("bhh", k), [Fraction(b), -Fraction(e)])
                                for k, (b, e) in enumerate(zip(tab.rows[-1], tab.error[-1])))
        assert tab.nodes[-1] == 1.0                  # the solution's weights sum to 1
        assert tab.rows2 is tab.rows2 and tab.error_rows is tab.error_rows
    assert zeroed == {
        ("DOP853", "rows2", 12, 3), ("DOP853", "rows2", 12, 4),
        ("DOP853", "error_sums", 0), ("DOP853", "error_sums", 1),
        ("DP54", "rows2", 6, 1), ("DP54", "error_rows", 0, 1), ("DP54", "error_sums", 0),
    }
    # Hairer's BHH: nonzero on stages 0, 8 and 11 only
    assert [k for k, c in enumerate(dynamics.DOP853.bhh) if c] == [0, 8, 11]


def test_dop853_attempt_arithmetic_stays_lean():
    """The attempt forms h*h and h*p once and leaves out the tables' zero
    entries: the call-site attempt of DOP853 has 664 binary operations
    (753 before that grouping), and that of DP54, whose error row holds
    difference weights, 232 (247 when its estimate subtracted the embedded
    solution), so none quietly comes back."""
    for tableau, count in ((dynamics.DOP853, 664), (dynamics.DP54, 232)):
        source = "\n".join(dynamics._attempt_lines(tableau, dynamics._call_site))
        assert sum(isinstance(n, ast.BinOp) for n in ast.walk(ast.parse(source))) == count


# dp54_step at a few states, recorded as hex floats when the shared
# attempt generator began to form h*h and h*p once per attempt (of the
# Nystrom form before it, only the oscillator's y and its error differ);
# the error estimates re-recorded when DP54's error row became the
# difference weights B - B', the solutions unchanged
def _anharmonic(q):
    x, y, z = q
    return (-x - x * y * z, -y + 0.5 * x * x, -z * (1.0 + z * z))


_DP54_RECORDED = [
    (_oscillator, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0), 0.2,
     ("0x1.f5cb48be34d98p-1", "0x1.96dff28b140c7p-3", "0x0.0p+0", "-0x1.96dff28b140c8p-3",
      "0x1.f5cb48be34d98p-1", "0x0.0p+0"),
     ("-0x1.65575e1015c2ap-26", "-0x1.152b267f3f42ap-22", "0x0.0p+0", "0x1.152b267f43333p-22",
      "-0x1.65575e0f5999ap-26", "0x0.0p+0")),
    (_free, (0.0, 1.0, -2.0, 0.5, -0.25, 1.0), 0.7,
     ("0x1.6666666666666p-2", "0x1.a666666666666p-1", "-0x1.4cccccccccccdp+0",
      "0x1.0000000000000p-1", "-0x1.0000000000000p-2", "0x1.0000000000000p+0"),
     ("0x0.0p+0",) * 6),
    (_anharmonic, (0.5416740406778552, 0.16171926281771937, -0.2856766602871327,
                   0.012557794994664626, 0.011920233993246529, 0.04119174256386531), 0.0371,
     ("0x1.1564c040a4648p-1", "0x1.4c15e1186955ep-3", "-0x1.22c0301e7c300p-2",
      "-0x1.b18c01e379ed8p-8", "0x1.7429238fdc8d4p-7", "0x1.af0964b953b7cp-5"),
     ("-0x1.7b6da1f210950p-40", "0x1.511f768335bb2p-41", "-0x1.078c1d395167ap-38",
      "0x1.c349ea79db22dp-36", "-0x1.f86765adfd220p-36", "-0x1.dbe6ceb604189p-36")),
    (_anharmonic, (-0.3, 0.7, 0.1, 0.2, -0.0, 0.4), -0.05,
     ("-0x1.3d06c742d7313p-2", "0x1.65fb44db8e912p-1", "0x1.4732b30ff0f86p-4",
      "0x1.786af2d5e54f8p-3", "0x1.0b9271cd37f62p-5", "0x1.9e3e62e2ddb1fp-2"),
     ("-0x1.76a24a4cccccep-41", "0x1.ffbaa833851edp-36", "0x1.a0dd7f085eb87p-34",
      "0x1.9297135333334p-34", "-0x1.d52d786666667p-34", "-0x1.9e4a4dccccccdp-35")),
]


@pytest.mark.parametrize("fn, y0, h, y5_hex, err_hex", _DP54_RECORDED,
                         ids=["oscillator", "free", "anharmonic", "anharmonic-back"])
def test_dp54_step_equals_recorded_bits(fn, y0, h, y5_hex, err_hex):
    y5, err = dp54_step(fn, y0, h)
    assert [v.hex() for v in y5] == [float.fromhex(v).hex() for v in y5_hex]
    assert [v.hex() for v in err] == [float.fromhex(v).hex() for v in err_hex]


# Dormand and Prince's published DP5(4) weights, exact: the stage rows,
# whose last is the solution's B, and the embedded 4th-order solution's B'
_DP54_PUBLISHED_ROWS = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176),
     Fraction(-5103, 18656)],
    [Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784),
     Fraction(11, 84)],
]
_DP54_PUBLISHED_EMBEDDED = [Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640),
                            Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40)]


@pytest.mark.parametrize("fn, y0, h", [case[:3] for case in _DP54_RECORDED],
                         ids=["oscillator", "free", "anharmonic", "anharmonic-back"])
def test_dp54_error_estimate_is_its_exact_value(fn, y0, h):
    """Each component of dp54_step's error estimate is within 1e-6 relative
    of h sum_s (B - B')_s K_s, computed exactly from the published weights
    and the stage forces that dp54_step's force saw, and exactly 0 where
    that is 0 (an estimate formed as the difference of the two solutions
    kept as few as 14 significant bits: 6.0e-5 relative)."""
    forces = []

    def recording(q):
        f = fn(q)
        forces.append([Fraction(v) for v in f])
        return f

    _, err = dp54_step(recording, y0, h)
    assert len(forces) == 7
    weights = [*_DP54_PUBLISHED_ROWS[-1], 0]
    diff = [b - e for b, e in zip(weights, _DP54_PUBLISHED_EMBEDDED)]
    hx, p = Fraction(h), [Fraction(v) for v in y0[3:]]
    for j in range(3):
        # the stage momenta P_s = p + h sum_k a_sk F_k, then the position
        # and momentum errors h sum_s E_s P_s and h sum_s E_s F_s
        momenta = [p[j] + hx * sum(a * f[j] for a, f in zip(row, forces))
                   for row in _DP54_PUBLISHED_ROWS]
        exact = (hx * sum(e * m for e, m in zip(diff, momenta)),
                 hx * sum(e * f[j] for e, f in zip(diff, forces)))
        for got, want in zip((err[j], err[j + 3]), exact):
            if want == 0:
                assert got == 0, (j, got)
            else:
                assert abs(Fraction(got) - want) <= Fraction(1, 10**6) * abs(want), (j, got, want)


def test_dop853_global_error_is_order_eight():
    # halving h at fixed step should shrink the global error on the
    # oscillator by about 2^8 = 256 (258 observed over t = 10)
    kernel = dynamics._attempt_kernel(dynamics.DOP853)

    def error(h, n):
        y = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        f = _oscillator(y[:3])
        for _ in range(n):
            y, _, f = kernel(_oscillator, y, f, h)
        t = h * n
        exact = (math.cos(t), math.sin(t), 0.0, -math.sin(t), math.cos(t), 0.0)
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(y, exact)))

    assert 200 < error(0.5, 20) / error(0.25, 40) < 320


def test_dop853_literals_equal_scipy():
    """The DOP853 literals are the doubles of scipy's copy of Hairer's
    coefficients, where scipy is installed (it is not a dependency)."""
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    tab = dynamics.DOP853
    assert len(tab.rows) == coeffs.N_STAGES + 1
    for s, row in enumerate(tab.rows):
        assert row == tuple(coeffs.A[s, :s].tolist()), s
    assert tab.rows[-1] == tuple(coeffs.B.tolist())
    assert tab.error == (tuple(coeffs.E5[:-1].tolist()), tuple(coeffs.E3[:-1].tolist()))
    assert coeffs.E5[-1] == coeffs.E3[-1] == 0.0


def test_capped_step_leaves_the_controller_state(force):
    stepper = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14)
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(5):
        state, _, _ = stepper.step(state)
    h_ctl, err_prev, h_prev, pc = stepper.h, stepper._err_prev, stepper._h_prev, stepper._pc
    # a step shortened by the cap is accepted at the cap and changes neither
    # h_ctl nor the controller's previous error, previous step or mode
    state, h, _ = stepper.step(state, h_cap=0.5 * h_ctl)
    assert h == 0.5 * h_ctl and stepper.rejected == 0
    assert (stepper.h, stepper._err_prev, stepper._h_prev, stepper._pc) == (
        h_ctl, err_prev, h_prev, pc)
    # an uncapped step moves all but the mode, which only a rejection sets
    stepper.step(state)
    assert stepper.h != h_ctl and stepper._err_prev != err_prev
    assert stepper._h_prev == h_ctl and stepper._pc is pc is False


def test_rejection_turns_on_predictive_control_until_it_predicts_growth(force):
    """After a rejection the controller predicts the step from the last
    two accepted ones, SAFETY (h/h_prev) (err_prev/e^2)^(1/8), until that
    factor is at least 1; otherwise, and before any step is accepted, it
    is the PI controller.  Every factor is checked bit for bit."""
    stepper = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14)
    # h = 1 makes the first step reject; with no accepted step to predict
    # from, the mode stays off
    stepper.h = 1.0
    state, _, _ = stepper.step(PhaseState.make(0.0, *_OFF_AXIS))
    assert stepper.rejected > 0 and stepper._pc is False
    for _ in range(5):
        state, _, _ = stepper.step(state)
    # 4 h_ctl is far above what the error allows: the next attempt rejects
    stepper.h *= 4.0
    modes = []
    for _ in range(40):
        h_prev, err_prev, pc, rejected = (stepper._h_prev, stepper._err_prev, stepper._pc,
                                          stepper.rejected)
        state, h, err = stepper.step(state)
        e = max(err, 1e-10)
        if pc or stepper.rejected > rejected:
            factor = dynamics.SAFETY * (h / h_prev) * math.sqrt(math.sqrt(math.sqrt(
                err_prev / (e * e))))
            assert stepper._pc is (factor < 1.0)
        else:
            factor = dynamics.SAFETY * e**-0.0875 * err_prev**0.05
            assert stepper._pc is False
        assert stepper.h == h * min(max(factor, 0.2), 5.0)
        assert (stepper._h_prev, stepper._err_prev) == (h, e)
        modes.append((stepper.rejected > rejected, pc, stepper._pc))
    # the first step rejects and its retry predicts; a later predicted step
    # finds growth and hands back to the PI controller
    assert modes[0][0] and not modes[0][1]
    assert (False, True, False) in modes and modes[-1] == (False, False, False)


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_stepper_force_calls_per_attempt():
    counting = _Counting(_oscillator)
    # h = 1 is far above what rel_tol 1e-12 allows: the first step is
    # rejected several times before one attempt is accepted; a step makes
    # one attempt more than it rejects
    stepper = AdaptiveStepper(counting, rel_tol=1e-12, abs_tol=1e-14)
    stepper.h = 1.0
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    state, _, _ = stepper.step(state)
    attempts = 1 + stepper.rejected
    assert attempts >= 2
    assert counting.calls == 1 + 12 * attempts   # k1 once, reused on rejection
    for _ in range(50):
        counting.calls, rejected = 0, stepper.rejected
        state, _, _ = stepper.step(state)
        attempts = 1 + stepper.rejected - rejected
        assert counting.calls == 12 * attempts    # k1 from the previous step


def test_fsal_stepping_bitwise_equals_recomputed(force):
    ic = PhaseState.make(
        0.0,
        (0.5416740406778552, 0.16171926281771937, -0.2856766602871327),
        (0.012557794994664626, 0.011920233993246529, 0.04119174256386531),
    )
    fsal = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14)
    fresh = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14)
    a = b = ic
    for _ in range(200):
        a, ha, _ = fsal.step(a, h_cap=0.3)
        b, hb, _ = fresh.step(PhaseState(b.t, b.q, b.p), h_cap=0.3)
        assert a.f is not None
        assert ha == hb and a.t == b.t
        assert _bits([*a.q, *a.p]) == _bits([*b.q, *b.p])


def test_leapfrog_reuses_end_of_step_force(force):
    counting = _Counting(force)
    a = b = PhaseState.make(0.0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4))
    for _ in range(100):
        a = step_leapfrog(a, 1e-3, counting)
        b = step_leapfrog(PhaseState(b.t, b.q, b.p), 1e-3, force)
        assert _bits([*a.q, *a.p]) == _bits([*b.q, *b.p])
    assert counting.calls == 1 + 100


def test_stepper_returns_accepted_attempt_error(force):
    """The err of AdaptiveStepper.step is Hairer's norm of the accepted
    attempt at the h it used, bit for bit that of the loop oracle, and the
    new state is that attempt's solution."""
    rng = np.random.default_rng(20261018)
    for fn in (_oscillator, _free, force):
        rejected = 0
        for y0 in _kernel_states(rng, n=10):
            # h = 1 makes the first steps reject
            stepper = AdaptiveStepper(fn, rel_tol=1e-12, abs_tol=1e-14)
            stepper.h = 1.0
            state = PhaseState.make(0.0, y0[:3], y0[3:])
            for _ in range(3):
                y = (*state.q, *state.p)
                state, h, err = stepper.step(state)
                z, e, low, _ = _attempt_loop(dynamics.DOP853, fn, y, h)
                assert _bits([err]) == _bits([_blended_norm_loop(y, z, e, low, 1e-14, 1e-12)])
                assert _bits([*state.q, *state.p]) == _bits(z)
                assert err <= 1.0
            rejected += stepper.rejected
        assert fn is _free or rejected > 0


# -- input validation ----------------------------------------------------


def test_config_rejects_unknown_integrator():
    with pytest.raises(ValueError, match="integrator"):
        SimConfig(integrator="rk4typo")


_BAD_FIELDS = [
    (name, value)
    for name in ("rel_tol", "abs_tol", "fixed_step", "t_end", "sample_interval", "r_max")
    for value in (0.0, -1e-3, math.nan, math.inf)
] + [("u_floor", value) for value in (-1e-3, math.nan, math.inf)] + [
    # checked ahead of the exact domain check, whose Fraction() cannot take
    # nan or inf
    (name, value) for name in ("a", "b", "w0") for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("name, value", _BAD_FIELDS,
                         ids=[f"{value}-{name}" for name, value in _BAD_FIELDS])
def test_config_rejects_bad_positive_field(name, value):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: value})


@pytest.mark.parametrize("q0, p0", [
    ((math.nan, 0.0, 0.5), (0.0, 0.0, 0.4)),
    ((0.0, 0.0, 0.5), (0.0, math.inf, 0.4)),
])
def test_simulate_rejects_non_finite_initial_state(q0, p0):
    with pytest.raises(ValueError, match="non-finite"):
        simulate(SimConfig(t_end=1.0), PhaseState.make(0.0, q0, p0))


@pytest.mark.parametrize("q0, p0", [
    ((0.0, 0.5), (0.0, 0.0, 0.4)),
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4, 0.0)),
    (0.5, (0.0, 0.0, 0.4)),
    ((0.0, None, 0.5), (0.0, 0.0, 0.4)),
], ids=["q-2", "p-4", "q-scalar", "q-not-a-number"])
def test_simulate_rejects_wrong_length_state(q0, p0):
    with pytest.raises(ValueError, match="3 components"):
        simulate(SimConfig(t_end=1.0), PhaseState.make(0.0, q0, p0))


def _is_float_vec3(v):
    return type(v) is dynamics.Vec3 and len(v) == 3 and all(type(c) is float for c in v)


def test_make_gives_vec3s_of_python_floats():
    """numpy and int inputs give Vec3s of Python floats, whose @ is the dot
    product."""
    state = PhaseState.make(np.int64(2), np.array([1, 2, 3]), (4, np.float64(5.0), -6))
    assert type(state.t) is float and state.t == 2.0
    assert _is_float_vec3(state.q) and _is_float_vec3(state.p)
    assert state.q == (1.0, 2.0, 3.0) and state.p == (4.0, 5.0, -6.0)
    assert state.q @ state.p == -4.0 and state.q @ state.q == 14.0
    assert type(state.q @ state.p) is float
    rng = np.random.default_rng(20261020)
    for _ in range(20):
        q, p = rng.uniform(-1.0, 1.0, (2, 3))
        state = PhaseState.make(0.0, q, p)
        assert state.q @ state.p == pytest.approx(np.dot(q, p), rel=0.0, abs=1e-15)


def test_per_step_functions_return_python_floats(force):
    """AdaptiveStepper.step and step_leapfrog return states of Vec3s of
    Python floats, from a state of numpy inputs too."""
    start = PhaseState.make(0.0, np.array(_OFF_AXIS[0]), np.array(_OFF_AXIS[1]))
    adaptive, h, err = AdaptiveStepper(force).step(start, h_cap=0.3)
    leapfrog = step_leapfrog(start, 1e-2, force)
    for state in (adaptive, leapfrog):
        assert type(state.t) is float
        assert _is_float_vec3(state.q) and _is_float_vec3(state.p)
        assert all(type(c) is float for c in state.f)
    assert type(h) is float and type(err) is float


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_simulate_rejects_non_finite_initial_time(t0):
    # nan and +inf used to return "completed" with t_final = nan, and -inf
    # met only the sample cap
    with pytest.raises(ValueError, match="non-finite"):
        simulate(SimConfig(t_end=1.0), PhaseState.make(t0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))


def test_non_finite_attempt_is_step_failure():
    # every attempt from this state has a NaN error (the stage forces at
    # |q| ~ 1e142 are NaN); accepting one at the step-size floor used to
    # turn h into NaN and hang the stepper
    def timeout(signum, frame):
        raise TimeoutError("simulate did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        _, outcome = simulate(SimConfig(t_end=5.0),
                              PhaseState.make(0.0, (0.5, 0.2, -0.3), (1e154, 0.0, 0.0)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome.classification == "step-failure"
    assert outcome.t_final == 0.0


# -- one compiled system per parameter set -------------------------------


def test_compile_system_is_cached():
    assert compile_system(A0, B0, W0, 1e-10) is compile_system(A0, B0, W0, 1e-10)
    assert compile_system(A0, B0, W0, 1e-10) is not compile_system(A0, B0, 1.0, 1e-10)


def test_serial_scan_compiles_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_poly_group(*args, **kwargs)

    monkeypatch.setattr(dynamics, "compile_poly_group", counting)
    compile_system.cache_clear()
    ics = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
           ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
           ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1))]
    scan_singularity(SimConfig(t_end=1.0), ics)
    assert len(calls) <= 2


def test_grouped_integrals_match_single_polynomials_bitwise(force):
    """The one generated group gives every value that compiling each
    polynomial on its own gives, and the integrals' u is the force field's
    factored u."""
    ctx = build_context()
    subs = {A: Fraction(A0), B: Fraction(B0), W0_VAR: Fraction(W0)}
    single = [compile_poly_group([f.specialize(subs)]) for f in (
        ctx.H.A, ctx.x1_leading, ctx.m1_numerator, ctx.x2_leading, ctx.m2_numerator)]
    ev = dynamics.IntegralEvaluator(A0, B0, W0)
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        q = rng.uniform(-1.5, 1.5, size=3)
        p = rng.uniform(-0.8, 0.8, size=3)
        for j in rng.choice(6, size=rng.integers(0, 3), replace=False):
            (q if j < 3 else p)[j % 3] = 0.0
        kinetic, x1_lead, m1_num, x2_lead, m2_num = (fn(*q, *p)[0] for fn in single)
        uval = force.u(q.tolist())
        if uval <= 0.0:
            continue
        rs = 1.0 / math.sqrt(uval)
        ref = (kinetic + W0 * rs, x1_lead + m1_num * rs, x2_lead + m2_num * rs)
        assert _bits(ev(q, p)) == _bits(ref), (q, p)


# sha256 of the evaluator source that compile_poly_group generated for the
# integrals when coefficients were Fraction dicts; the source holds each
# coefficient as repr(float(c)), in sorted term order
_INTEGRALS_SOURCE_SHA256 = {
    (0.25, 1.0, -1.0): "509254d8470b29fce28c1516fff57b422fa699354491d84d58c82231b7a1ef6d",
    (0.3, 0.7, -1.3): "3ecf625c2725fccd6052cecfffddcd553eaefce6b0e2bc10b5188856e3705905",
}


@pytest.mark.parametrize("params", sorted(_INTEGRALS_SOURCE_SHA256))
def test_integral_evaluator_source_is_byte_identical(params, monkeypatch):
    """Exact specialization at binary64 parameters (0.3 has denominator
    2**54) and the float bridge give the generated source byte for byte."""
    sources = []
    compile_ = dynamics._compile

    def capture(lines, name):
        sources.append("\n".join(lines))
        return compile_(lines, name)

    def group(polys):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_compile", capture)
            return compile_poly_group(polys)

    monkeypatch.setattr(dynamics, "compile_poly_group", group)
    IntegralEvaluator(*params)
    assert len(sources) == 1
    assert hashlib.sha256(sources[0].encode()).hexdigest() == _INTEGRALS_SOURCE_SHA256[params]


# -- conserved quantities ----------------------------------------------


def test_integral_evaluator_energy_identity(force):
    ev = IntegralEvaluator(A0, B0, W0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.uniform(-0.5, 0.5, size=3)
        p = rng.uniform(-0.5, 0.5, size=3)
        if force.u(q) < 0.3:
            continue
        h, _, _ = ev(q, p)
        expected = 0.5 * float(p @ p) + force.potential(q)
        assert h == pytest.approx(expected, rel=1e-13)


def test_singular_distance_origin():
    d = distance_to_singular_lines((0.0, 0.0, 0.0), A0, B0)
    assert d == pytest.approx(3 * 3**0.5 / 4, rel=1e-12)


def test_singular_distance_on_line_is_zero():
    q = (-2.0 / 3**0.5, 3 * 3**0.5 / 4, 2.0)
    assert distance_to_singular_lines(q, A0, B0) < 1e-14


def test_singular_distance_parity():
    # the configuration symmetry q -> -q, b -> -b maps the lines to themselves
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = rng.uniform(-2, 2, size=3)
        d1 = distance_to_singular_lines(q, A0, B0)
        d2 = distance_to_singular_lines(-q, A0, -B0)
        assert d1 == pytest.approx(d2, rel=1e-12)


def _signed_bits(values, sign):
    """The bits of sign * v for each v; a zero is read as +0.0, since the
    kernel may turn -0.0 into +0.0 (-0.0 + 0.0) where it keeps +0.0."""
    return _bits([sign * v + 0.0 for v in values])


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
@pytest.mark.parametrize("ic", [
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),      # documented orbit 0, far from the lines
    *(scan_initial_conditions(0, 7)[k] for k in (1, 6)),  # pass within u ~ 1e-7, 5e-9
], ids=["orbit0", "scan0-ic1", "scan0-ic6"])
def test_parity_maps_runs_onto_runs_bit_for_bit(integrator, ic):
    """(q, p, b) -> (-q, -p, -b) is a symmetry of H, X1 and X2, and every
    operation of each kernel is odd or even under it: the mirrored run
    has the same t, H, X1, X2, u and d_sing, the negated q and p, in every
    row, and an equal outcome in every field, bit for bit."""
    (q0, p0), t_end = ic, 20.0
    config = SimConfig(a=A0, b=B0, w0=W0, t_end=t_end, integrator=integrator)
    record, outcome = simulate(config, PhaseState.make(0.0, q0, p0))
    mirror, mirror_outcome = simulate(
        dataclasses.replace(config, b=-B0),
        PhaseState.make(0.0, tuple(-v for v in q0), tuple(-v for v in p0)))
    assert len(record.rows) == len(mirror.rows)
    for row, image in zip(record.rows, mirror.rows):
        assert _bits(row[:1] + row[7:]) == _bits(image[:1] + image[7:])
        assert _signed_bits(row[1:7], -1.0) == _signed_bits(image[1:7], 1.0)
    for field in dataclasses.fields(RunOutcome):
        value, image = getattr(outcome, field.name), getattr(mirror_outcome, field.name)
        if isinstance(value, float):
            assert _bits([value]) == _bits([image]), field.name
        else:
            assert value == image, field.name


def _swap_xz(v):
    return (v[2], v[1], v[0])


_MIRROR_ICS = pytest.mark.parametrize("ic", [
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),      # documented orbit 0
    *scan_initial_conditions(0, 10),
], ids=["orbit0", *(f"scan0-ic{k}" for k in range(10))])


@_MIRROR_ICS
def test_mirror_maps_leapfrog_runs_onto_runs_bit_for_bit(ic):
    _check_mirror("leapfrog", ic)


@_MIRROR_ICS
def test_mirror_maps_adaptive_runs_onto_runs_bit_for_bit(ic):
    _check_mirror("adaptive", ic)


@_MIRROR_ICS
def test_mirror_maps_regularized_runs_onto_runs_bit_for_bit(ic):
    _check_mirror("regularized", ic)


def _check_mirror(integrator, ic):
    """u(a; x, y, z) = u(1 - a; z, y, x), so (a, x, z) -> (1 - a, z, x),
    with the momenta to match, is a symmetry of H; at a = 1/4 and 3/4,
    1 - a is exact.  Every operation of each kernel commutes with the
    swap, the error norms and the regularized step's T too, since they sum
    x with z and px with pz: the mirrored run has the same t, H, u and d_sing and the swapped q
    and p in every row, and an equal outcome in every field but drift_X1
    and drift_X2, bit for bit.  X1 and X2 are not mirror-invariant."""
    (q0, p0), t_end = ic, 20.0
    config = SimConfig(a=0.25, b=B0, w0=W0, t_end=t_end, integrator=integrator)
    record, outcome = simulate(config, PhaseState.make(0.0, q0, p0))
    mirror, mirror_outcome = simulate(dataclasses.replace(config, a=0.75),
                                      PhaseState.make(0.0, _swap_xz(q0), _swap_xz(p0)))
    assert len(record.rows) == len(mirror.rows)
    for row, image in zip(record.rows, mirror.rows):
        assert _bits(row[:1] + row[7:8] + row[10:]) == _bits(image[:1] + image[7:8] + image[10:])
        assert _signed_bits(_swap_xz(row[1:4]) + _swap_xz(row[4:7]), 1.0) == \
            _signed_bits(image[1:7], 1.0)
    for field in dataclasses.fields(RunOutcome):
        if field.name in ("drift_X1", "drift_X2"):
            continue
        value, image = getattr(outcome, field.name), getattr(mirror_outcome, field.name)
        if isinstance(value, float):
            assert _bits([value]) == _bits([image]), field.name
        else:
            assert value == image, field.name


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
@pytest.mark.parametrize("ic", [
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),      # documented orbit 0
    scan_initial_conditions(0, 7)[6],         # passes within u ~ 5e-9
    ((0.0, 0.0, 0.5), (0.0, 0.0, 1.069045)),  # H0 ~ 3.5e-8, below the 1e-3 floor
], ids=["orbit0", "scan0-ic6", "h0-below-floor"])
def test_rows_and_drifts_are_the_integrals_of_each_state(integrator, ic):
    """Every row's H, X1 and X2 are IntegralEvaluator's at its (q, p), and
    each drift is max |v - v0| / max(|v0|, 1e-3) over the rows, bit for
    bit."""
    q0, p0 = ic
    config = SimConfig(a=A0, b=B0, w0=W0, t_end=20.0, integrator=integrator)
    record, outcome = simulate(config, PhaseState.make(0.0, q0, p0))
    integrals = IntegralEvaluator(A0, B0, W0)
    assert len(record.rows) > 1
    for row in record.rows:
        assert _bits(row[7:10]) == _bits(integrals(row[1:4], row[4:7])), row[0]
    ref = record.rows[0][7:10]
    drifts = [max(abs(row[7 + i] - ref[i]) / max(abs(ref[i]), 1e-3) for row in record.rows)
              for i in range(3)]
    assert outcome.drift_H > 0.0
    assert _bits(drifts) == _bits([outcome.drift_H, outcome.drift_X1, outcome.drift_X2])


def test_drift_passes_over_a_nan_row():
    rows = [(0.0, 2.0), (1.0, math.nan), (2.0, 2.5), (3.0, 1.9)]
    assert dynamics._drift(rows, 1) == 0.25
    # a column that is nan from row 0 on has no finite drift to report
    assert dynamics._drift([(0.0, math.nan), (1.0, 1.0)], 1) == 0.0


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
def test_kernel_binds_d2_once_per_step_and_calls_no_abs_min_or_max(integrator, monkeypatch):
    """d2 is read only after a step, so each run kernel binds it once, in
    the adaptive and regularized kernels after their attempt loop
    (``while True:``), not at every force site; |v|, min and max are
    conditional expressions."""
    sources = []
    compile_ = dynamics._compile

    def capture(lines, name):
        if name == "_run":
            sources.append("\n".join(lines))
        return compile_(lines, name)

    monkeypatch.setattr(dynamics, "_compile", capture)
    dynamics._compile_kernel.__wrapped__(compile_force(A0, B0, W0), integrator)
    (tree,) = map(ast.parse, sources)

    def d2_bindings(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "d2" and isinstance(n.ctx, ast.Store)]

    attempt_loops = [n for n in ast.walk(tree) if isinstance(n, ast.While)
                     and isinstance(n.test, ast.Constant) and n.test.value is True]
    assert len(attempt_loops) == (integrator != "leapfrog")
    assert len(d2_bindings(tree)) == 1
    assert all(d2_bindings(loop) == [] for loop in attempt_loops)
    called = {n.func.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert called.isdisjoint({"abs", "min", "max"})


def test_generated_code_takes_constants_as_literals(monkeypatch):
    """The force sites, the run kernels and the stepper's step read w0, the
    u floor and cut and the controller's floor, ceiling and safety factor
    as literals, and a run kernel takes its settings from the SimConfig."""
    sources = {}
    compile_ = dynamics._compile

    def capture(lines, name):
        sources.setdefault(name, []).append("\n".join(lines))
        return compile_(lines, name)

    monkeypatch.setattr(dynamics, "_compile", capture)
    force = compile_force(A0, B0, W0)
    IntegralEvaluator(A0, B0, W0)
    dynamics._adaptive_step.__wrapped__()
    for integrator in dynamics.INTEGRATORS:
        dynamics._compile_kernel.__wrapped__(force, integrator)
    assert [len(sources[name]) for name in ("_at", "_u", "step", "_run")] == \
        [1, 1, 1, len(dynamics.INTEGRATORS)]
    for name in ("_at", "_u", "step", "_run"):
        for tree in map(ast.parse, sources[name]):
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            assert read.isdisjoint({"_W0", "_U_FLOOR", "_U_CUT", "h_min", "h_max", "safety"})
    for tree in map(ast.parse, sources["_run"]):
        args = tree.body[0].args
        # the parameters before the builtins bound as defaults
        unbound = [arg.arg for arg in args.args[:len(args.args) - len(args.defaults)]]
        assert unbound == ["sample", "t", "q", "p", "f", "u", "d2", "config"]


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
def test_numpy_scalar_settings_give_the_same_records(integrator):
    """w0 and u_floor reach the generated code as literals of their float
    values: numpy scalars, whose repr is not a literal, give the bits of
    Python floats."""
    def run(w0, u_floor):
        compile_system.cache_clear()      # equal keys would share a system
        return simulate(SimConfig(w0=w0, u_floor=u_floor, t_end=5.0, integrator=integrator),
                        PhaseState.make(0.0, *_OFF_AXIS))

    try:
        scalar_record, scalar_outcome = run(np.float64(-1.0), np.float64(1e-10))
        record, outcome = run(-1.0, 1e-10)
    finally:
        compile_system.cache_clear()
    assert outcome.classification == "completed"
    assert _bits([v for row in scalar_record.rows for v in row]) == \
        _bits([v for row in record.rows for v in row])
    assert dataclasses.astuple(scalar_outcome) == dataclasses.astuple(outcome)


# -- factored u: accuracy near the lines, axis invariance -----------------


def _near_line_points(d, n=6):
    """Points at distance d from each singular line at a = 1/4, b = 1, in
    several directions across the line and at several places along it."""
    c, s, k = math.sqrt(0.75), 0.5, 3 * math.sqrt(0.1875)
    points = []
    for eps in (1, -1):
        # line eps: y = eps k, c x + eps s z = 0; unit normals (0, 1, 0)
        # and (c, 0, eps s)
        for i in range(n):
            t, theta = -1.5 + 0.6 * i, 2 * math.pi * i / n + 0.3
            cos, sin = d * math.cos(theta), d * math.sin(theta)
            points.append((-eps * s * t + sin * c, eps * k + cos, c * t + sin * eps * s))
    return points


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-7])
def test_factored_u_accurate_near_the_lines(d, force):
    """u agrees with exact evaluation of the catalog quartic to a relative
    1e-15/d: the rounding of the line constants shifts each line by about
    1e-16.  Summing the expanded monomials loses about eps/d^2 instead."""
    u_exact = build_context().u.specialize({A: Fraction(1, 4), B: Fraction(1)})
    for q in _near_line_points(d):
        exact = u_exact.eval_exact(dict(zip((X, Y, Z), map(Fraction, q))))
        assert abs(Fraction(force.u(q)) - exact) / exact < 1e-15 / d, q
        assert distance_to_singular_lines(q, A0, B0) == pytest.approx(d, rel=1e-6)


_DOCUMENTED_ICS = (
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),
    ((0.0, 0.0, 2.0), (0.0, 0.0, 0.2)),
    ((1.0, 0.0, 0.0), (0.3, 0.0, 0.0)),
)


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
@pytest.mark.parametrize("idx", range(len(_DOCUMENTED_ICS)))
def test_documented_axis_orbits_stay_on_their_axis(idx, integrator):
    """On the z- and x-axes F+ == F- bit for bit, so the transverse force is
    exactly 0 and the orbit keeps its transverse q and p at 0.0."""
    q0, p0 = _DOCUMENTED_ICS[idx]
    axis = 0 if q0[0] else 2
    record, outcome = simulate(SimConfig(t_end=100.0, integrator=integrator),
                               PhaseState.make(0.0, q0, p0))
    assert outcome.classification == "completed" and len(record.rows) == 101
    for row in record.rows:
        q, p = row[1:4], row[4:7]
        assert [v for j in range(3) if j != axis for v in (q[j], p[j])] == [0.0] * 4
        assert q[axis] != 0.0 or p[axis] != 0.0


# -- simulation harness -------------------------------------------------


def test_simulate_conserves_integrals():
    cfg = SimConfig(t_end=20.0)
    ic = PhaseState.make(
        0.0,
        (0.5416740406778552, 0.16171926281771937, -0.2856766602871327),
        (0.012557794994664626, 0.011920233993246529, 0.04119174256386531),
    )
    record, outcome = simulate(cfg, ic)
    assert outcome.classification == "completed"
    assert outcome.drift_H < 1e-9
    assert outcome.drift_X1 < 1e-8
    assert outcome.drift_X2 < 1e-8
    assert len(record.rows) >= 20


def test_simulate_positive_w0_repulsive_bound():
    # for w0 > 0, energy conservation bounds u from below:
    # w0/sqrt(u) <= H, so u >= (w0/H)^2
    cfg = SimConfig(w0=1.0, t_end=20.0, r_max=1e6)
    ev = IntegralEvaluator(cfg.a, cfg.b, cfg.w0)
    rng = np.random.default_rng(20260823)
    tested = 0
    while tested < 5:
        q = rng.uniform(-0.6, 0.6, size=3)
        p = rng.uniform(-0.4, 0.4, size=3)
        try:
            energy = ev(q, p)[0]
        except SingularPoint:
            continue
        record, outcome = simulate(cfg, PhaseState.make(0.0, q, p))
        if outcome.classification not in ("completed", "escape"):
            continue
        bound = (cfg.w0 / energy) ** 2
        assert outcome.min_u >= bound * (1 - 1e-6)
        tested += 1


def test_simulate_rejects_singular_start():
    cfg = SimConfig(t_end=1.0)
    ic = PhaseState.make(0.0, (-1.0 / 3**0.5, 3 * 3**0.5 / 4, 1.0), (0, 0, 0))
    with pytest.raises(SingularPoint):
        simulate(cfg, ic)


def test_simulate_classifies_escape():
    cfg = SimConfig(w0=1.0, t_end=500.0, r_max=5.0)
    ic = PhaseState.make(0.0, (0.5, 0.2, -0.3), (1.0, 1.0, 1.0))
    record, outcome = simulate(cfg, ic)
    assert outcome.classification == "escape"
    assert outcome.t_final < 500.0


def test_simulate_leapfrog_agrees_with_adaptive():
    ic = PhaseState.make(0.0, (0.5, 0.2, -0.3), (0.1, 0.1, 0.1))
    cfg_a = SimConfig(t_end=2.0)
    cfg_l = SimConfig(t_end=2.0, integrator="leapfrog", fixed_step=1e-4)
    rec_a, out_a = simulate(cfg_a, ic)
    rec_l, out_l = simulate(cfg_l, ic)
    assert out_a.classification == out_l.classification == "completed"
    qa = np.array(rec_a.rows[-1][1:4])
    ql = np.array(rec_l.rows[-1][1:4])
    assert np.allclose(qa, ql, atol=1e-5)


def test_trajectory_csv_roundtrip(tmp_path):
    cfg = SimConfig(t_end=3.0)
    ic = PhaseState.make(0.0, (0.5, 0.2, -0.3), (0.1, 0.1, 0.1))
    record, _ = simulate(cfg, ic)
    path = tmp_path / "traj.csv"
    record.write_csv(path)
    back = TrajectoryRecord.read_csv(path)
    assert len(back.rows) == len(record.rows)
    assert back.rows[0] == record.rows[0]
    assert back.rows[-1] == pytest.approx(record.rows[-1], rel=1e-15)


def test_trajectory_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,stuff\n1,2\n")
    with pytest.raises(ValueError):
        TrajectoryRecord.read_csv(path)


@pytest.mark.parametrize("name, reason", [
    ("missing.csv", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_trajectory_csv_of_an_unreadable_path_is_a_value_error(tmp_path, name, reason):
    path = tmp_path / name
    with pytest.raises(ValueError, match=f"^cannot read trajectory file {re.escape(str(path))}: "
                                         f"{reason}$"):
        TrajectoryRecord.read_csv(path)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(rel_tol=0.0)
    # a relative accuracy below binary64's unit roundoff is rejected
    with pytest.raises(ValueError, match=r"rel_tol must be at least 2\*\*-53 .* got 1e-30"):
        SimConfig(rel_tol=1e-30)
    with pytest.raises(ValueError, match="rel_tol must be at least"):
        SimConfig(rel_tol=math.nextafter(2**-53, 0))
    assert SimConfig(rel_tol=2**-53).rel_tol == 2**-53
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)
    with pytest.raises(ParamDomain):
        SimConfig(a=2.0)


# -- singularity scan ---------------------------------------------------


def test_scan_requires_attractive_potential():
    cfg = SimConfig(w0=1.0, t_end=1.0)
    with pytest.raises(ParamDomain):
        scan_singularity(cfg, [((0.5, 0.2, -0.3), (0, 0, 0))])


def test_scan_table_shape_and_order():
    cfg = SimConfig(t_end=2.0)
    ics = [
        ((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
        ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
    ]
    table = scan_singularity(cfg, ics)
    assert [row[0] for row in table] == [0, 1]
    for row in table:
        assert len(row) == 11
        assert row[10] in ("completed", "singularity-approach", "escape",
                           "step-failure")
        assert row[8] > 0  # min u along the run


def test_scan_min_dsing_covers_every_step():
    # this IC passes within 1.2e-4 of a line between t = 1 and t = 2; the
    # scan's run has rows at t = 0 and t = 2 only, more than 0.5 away
    cfg = SimConfig(t_end=2.0)
    ic = scan_initial_conditions(0, 2)[1]
    (row,) = scan_singularity(cfg, [ic])
    record, outcome = simulate(dynamics.scan_sim_config(cfg), PhaseState.make(0.0, *ic))
    assert len(record.rows) == 2
    assert row[8:10] == (outcome.min_u, outcome.min_dsing)
    assert outcome.min_dsing < 1e-3 * min(r[11] for r in record.rows)


def _give_cpus(monkeypatch, affinity, count=None):
    """Let this process run on ``affinity`` CPUs of a host of ``count``
    (default: ``affinity``).  ``affinity`` None: the OS has no affinity
    call, so the scan falls back to os.cpu_count()."""
    count = affinity if count is None else count
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)


def _counting_forks(monkeypatch, cpus, host_cpus=None):
    """Record in the returned list the pid of each child the real os.fork
    starts, and let this process run on ``cpus`` CPUs (see _give_cpus)."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    _give_cpus(monkeypatch, cpus, host_cpus)
    return forks


def _assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_pool_rows_equal_serial_rows(monkeypatch):
    """Rows from 2 and from 3 workers (13 ICs, in shares of 7 and 6, and
    of 5, 4 and 4) equal the serial rows bit for bit, and each is the row of
    its IC's own simulate run at the scan's config, on ICs far from the
    lines and on the seed-0 ICs that pass near them."""
    cfg = SimConfig(t_end=2.0)
    ics = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
           ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
           ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1)),
           *scan_initial_conditions(0, 10)]

    def bits(rows):
        return [(r[0], _bits([float(v) for v in r[1:10]]), r[10]) for r in rows]

    forks = _counting_forks(monkeypatch, cpus=3)
    serial = scan_singularity(cfg, ics, jobs=1)
    assert forks == []
    for jobs in (2, 3):
        assert bits(scan_singularity(cfg, ics, jobs=jobs)) == bits(serial)
        _assert_no_child_left()
    assert len(forks) == 1 + 2
    for ic, row in zip(ics, serial):
        _, outcome = simulate(dynamics.scan_sim_config(cfg), PhaseState.make(0.0, *ic))
        assert bits([row]) == bits([(row[0], *row[1:8], outcome.min_u, outcome.min_dsing,
                                     outcome.classification)])


_POOL_ICS = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
             ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
             ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1))]


@pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (5000, 3)])
def test_scan_pool_has_at_most_one_worker_per_ic(jobs, workers, monkeypatch):
    """A worker beyond the ICs would have no share, so there is no more
    than one per IC (on a host of more CPUs than that): this process and
    workers - 1 forked children."""
    serial = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=1)
    forks = _counting_forks(monkeypatch, cpus=64)
    rows = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=jobs)
    assert len(forks) == workers - 1
    assert rows == serial and [r[0] for r in rows] == [0, 1, 2]
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, []), (None, [])])
def test_scan_pool_has_at_most_one_worker_per_cpu(cpus, pools, monkeypatch):
    """--jobs 5000 gets no more workers than the CPUs this process may run
    on, and forks nothing where that is 1 or unknown (None: no affinity
    call and no os.cpu_count()): the scan runs serially.  ``pools`` lists
    the worker counts of the scan's fan-outs, each worker but the calling
    process a fork."""
    serial = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=1)
    forks = _counting_forks(monkeypatch, cpus)
    rows = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=5000)
    assert len(forks) == sum(workers - 1 for workers in pools)
    assert rows == serial and [r[0] for r in rows] == [0, 1, 2]
    _assert_no_child_left()


@pytest.mark.parametrize("affinity, host_cpus, forked", [(1, 2, 0), (2, 64, 1), (None, 2, 1)])
def test_scan_pool_follows_the_cpu_affinity(affinity, host_cpus, forked, monkeypatch):
    """The worker cap counts the CPUs in this process's affinity set, not
    the host's: pinned to 1 CPU of 2, --jobs 2 forks nothing.  Where the
    OS has no affinity call (None) it falls back to os.cpu_count()."""
    serial = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=1)
    forks = _counting_forks(monkeypatch, affinity, host_cpus)
    rows = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=2)
    assert len(forks) == forked
    assert rows == serial
    _assert_no_child_left()


def test_scan_without_fork_runs_serially(monkeypatch):
    """Where os.fork does not exist, --jobs 2 runs the serial scan."""
    serial = scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=1)
    _give_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=2) == serial
    _assert_no_child_left()


def _on_line(t):
    """An IC at rest at t along the singular line y = k, c x + s z = 0 of
    a = 1/4, b = 1 (see _near_line_points)."""
    return ((-0.5 * t, 3 * math.sqrt(0.1875), math.sqrt(0.75) * t), (0.0, 0.0, 0.0))


_OVERFLOWING = ((1e90, 0.0, 1e90), (0.0, 0.0, 0.0))   # u = inf at q0


@pytest.mark.parametrize("failing", [
    {1: _on_line(0.0)},
    {1: _on_line(0.0), 2: _on_line(0.6)},
    {2: _on_line(0.6)},
    {1: _OVERFLOWING},
    {0: _on_line(0.0), 1: _OVERFLOWING},
], ids=["child", "child-before-parent", "parent-after-0", "child-overflow", "parent-at-0"])
def test_scan_failure_is_the_serial_one(failing, monkeypatch):
    """With ICs that raise at the given indices of 4 (2 workers: this
    process runs 0 and 2, the child 1 and 3), the scan raises what the
    serial scan raises, type and message: the failure at the lowest
    index, sent back from the child where it is the child's, an
    EvaluationOverflow included."""
    ics = [failing.get(idx, ic) for idx, ic in enumerate([*_POOL_ICS, _POOL_ICS[0]])]
    with _alarm(5):
        with pytest.raises(Exception) as serial:
            scan_singularity(SimConfig(t_end=0.5), ics, jobs=1)
        forks = _counting_forks(monkeypatch, cpus=2)
        with pytest.raises(Exception) as forked:
            scan_singularity(SimConfig(t_end=0.5), ics, jobs=2)
    assert len(forks) == 1
    assert serial.type in (SingularPoint, dynamics.EvaluationOverflow)
    assert (forked.type, str(forked.value)) == (serial.type, str(serial.value))
    _assert_no_child_left()


def test_scan_child_exit_without_rows_is_child_process_error(monkeypatch):
    """A child that exits without sending its rows (here by os._exit(3)
    on IC 1) raises ChildProcessError naming the worker and its wait
    status, not EOFError, and does not hang."""
    scan_one = dynamics._scan_one

    def exiting(config, idx, ic):
        if idx == 1:
            os._exit(3)
        return scan_one(config, idx, ic)

    monkeypatch.setattr(dynamics, "_scan_one", exiting)
    _give_cpus(monkeypatch, 2)
    with _alarm(5), pytest.raises(ChildProcessError, match=r"worker 1 .*wait status 768"):
        scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=2)
    _assert_no_child_left()


@pytest.mark.parametrize("raised, waiting", [
    (RuntimeError, False), (KeyboardInterrupt, False), (TimeoutError, False), (TimeoutError, True),
], ids=["RuntimeError", "KeyboardInterrupt", "TimeoutError", "TimeoutError-waiting"])
def test_scan_parent_share_raising_kills_the_children(raised, waiting, monkeypatch):
    """When this process's own share raises at its first IC, or a signal
    handler raises in it (the alarm's TimeoutError) or, ``waiting``, in
    the wait for the child after the share has returned, the child, which
    would run for a minute, is killed and reaped at once."""
    parent, scan_one = os.getpid(), dynamics._scan_one

    def share(config, idx, ic):
        if os.getpid() != parent:
            time.sleep(60)
        elif raised is not TimeoutError:
            raise raised("parent share")
        elif not waiting:
            signal.setitimer(signal.ITIMER_REAL, 0.05)   # _alarm's handler raises
            time.sleep(60)
        elif idx == 2:   # the last IC of this process's share
            row = scan_one(config, idx, ic)
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            return row
        return scan_one(config, idx, ic)

    monkeypatch.setattr(dynamics, "_scan_one", share)
    forks = _counting_forks(monkeypatch, cpus=2)
    start = time.monotonic()
    with _alarm(5), pytest.raises(raised):
        scan_singularity(SimConfig(t_end=0.5), _POOL_ICS, jobs=2)
    assert len(forks) == 1
    assert time.monotonic() - start < 3
    _assert_no_child_left()


# -- u from the step's own force call, float Verlet, step counts ----------


def _leapfrog_numpy(state, h, force):
    """The array kick-drift-kick that the float step_leapfrog must match."""
    f0 = state.f if state.f is not None else force(state.q)
    p_half = state.p + 0.5 * h * np.asarray(f0)
    q_new = state.q + h * p_half
    f1 = force(q_new)
    p_new = p_half + 0.5 * h * np.asarray(f1)
    return PhaseState(state.t + h, q_new, p_new, f1)


_OFF_AXIS = (
    (0.5416740406778552, 0.16171926281771937, -0.2856766602871327),
    (0.012557794994664626, 0.011920233993246529, 0.04119174256386531),
)


@pytest.mark.parametrize("name", ["force_field", "oscillator"])
def test_float_leapfrog_matches_numpy_kick_drift_kick_bitwise(name, force):
    fn = {"force_field": force, "oscillator": _oscillator}[name]
    start = {
        "force_field": PhaseState.make(0.0, *_OFF_AXIS),
        "oscillator": PhaseState.make(0.0, (-0.0, 0.3, 0.0), (0.0, -0.0, -0.4)),
    }[name]
    for h in (1e-2, -0.0371):
        a = b = start
        for _ in range(500):
            a = step_leapfrog(a, h, fn)
            b = _leapfrog_numpy(b, h, fn)
            assert a.t == b.t
            assert _bits([*a.q, *a.p]) == _bits([*b.q, *b.p])
            assert _bits(a.f) == _bits([float(v) for v in b.f])


def test_state_force_is_the_force_at_its_q(force):
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state = step_leapfrog(state, 1e-2, force)
        assert _bits(state.f) == _bits(force(state.q))
    # h = 1 makes the first steps reject; the force a step carries is
    # still the one at the accepted state
    stepper = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14)
    stepper.h = 1.0
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state, _, _ = stepper.step(state, h_cap=0.3)
        assert _bits(state.f) == _bits(force(state.q))
    assert stepper.rejected > 0


def test_near_line_scan_rejects_few_attempts():
    """On the seed-0 scan ICs, whose orbits pass near the singular lines,
    at most 5% of the DOP853 attempts are rejected: the predictive mode
    follows the geometric decline of the step size there, where the PI
    controller alone rejected 10-15% of them."""
    config = SimConfig(t_end=50.0, rel_tol=1e-10)
    for k, ic in enumerate(scan_initial_conditions(0, 10)):
        _, outcome = simulate(config, PhaseState.make(0.0, *ic))
        assert outcome.classification == "completed", k
        assert outcome.rejected <= 0.05 * (outcome.steps + outcome.rejected), k


def _replay(config, initial):
    """simulate's run, step by step through the per-step API (AdaptiveStepper.step,
    step_leapfrog) with a force field wrapped to count its calls.

    Returns (rows, outcome, calls).  min u is force.u, min d_sing is
    distance_to_singular_lines and max |q| is math.hypot at every accepted
    state; force_evals counts the evaluations up to the last accepted step
    plus those of the attempts rejected since, which is every evaluation
    when the run completes.
    """
    plain = compile_force(config.a, config.b, config.w0, config.u_floor)
    force = _Counting(plain)
    integrals = IntegralEvaluator(config.a, config.b, config.w0)

    def row(st):
        q, p = st.q, st.p
        return (st.t, *q, *p, *integrals(q, p), plain.u(q),
                distance_to_singular_lines(st.q, config.a, config.b))

    # the force at q0 is also the initial state's check
    state = PhaseState(initial.t, initial.q, initial.p, force(initial.q))
    rows = [row(initial)]
    min_u, max_q = plain.u(initial.q), math.hypot(*initial.q)
    min_dsing = distance_to_singular_lines(initial.q, config.a, config.b)
    drift = [0.0, 0.0, 0.0]
    stepper = AdaptiveStepper(force, config.rel_tol, config.abs_tol)
    steps, evals, rejected = 0, force.calls, 0
    k = 1
    classification, detail = "completed", ""
    try:
        while state.t < config.t_end - 1e-12:
            # sample times t0 + k sample_interval, and t_end
            t_stop = min(initial.t + k * config.sample_interval, config.t_end)
            cap = t_stop - state.t
            if config.integrator == "leapfrog":
                # a fixed step stretches to a cap below 1.0001 fixed_step
                h = cap if cap < config.fixed_step * 1.0001 else config.fixed_step
                state = step_leapfrog(state, h, force)
            else:
                state = stepper.step(state, h_cap=cap)[0]
            steps, evals, rejected = steps + 1, force.calls, stepper.rejected
            min_u = min(min_u, plain.u(state.q))
            min_dsing = min(min_dsing, distance_to_singular_lines(state.q, config.a, config.b))
            max_q = max(max_q, math.hypot(*state.q))
            if max_q > config.r_max:
                classification = "escape"
                detail = f"|q| = {max_q:.3g} exceeded r_max at t = {state.t:.6g}"
                break
            if state.t >= t_stop - 1e-12:
                rows.append(row(state))
                for i in range(3):
                    drift[i] = max(drift[i], abs(rows[-1][7 + i] - rows[0][7 + i])
                                   / max(abs(rows[0][7 + i]), 1e-3))
                k += 1
    except SingularPoint as exc:
        classification, detail = "singularity-approach", str(exc)
    except (StepFailure, EvaluationOverflow) as exc:
        classification, detail = "step-failure", str(exc)
    outcome = RunOutcome(
        classification, *drift, min_u, min_dsing, max_q, state.t, detail, steps,
        stepper.rejected, stepper.floor_accepted,
        evals + 12 * (stepper.rejected - rejected))
    return rows, outcome, force.calls


def _outcome_bits(outcome):
    return [_bits([v]) if isinstance(v, float) else v
            for v in dataclasses.astuple(outcome)]


@pytest.mark.parametrize("config", [
    SimConfig(t_end=20.0),
    SimConfig(t_end=5.0, integrator="leapfrog", fixed_step=1e-2),
], ids=["adaptive", "leapfrog"])
def test_run_extrema_equal_replay_bitwise(config):
    """min u, min d_sing and max |q| of a run equal force.u,
    distance_to_singular_lines and math.hypot at every state it stepped
    through, and its rows and force evaluation count equal those of a
    replay through the per-step API."""
    initial = PhaseState.make(0.0, *_OFF_AXIS)
    record, outcome = simulate(config, initial)
    rows, replayed, calls = _replay(config, initial)
    assert outcome.classification == "completed"
    assert outcome.steps == replayed.steps > 100
    assert (_bits([outcome.min_u, outcome.min_dsing, outcome.max_q])
            == _bits([replayed.min_u, replayed.min_dsing, replayed.max_q]))
    assert [_bits(r) for r in record.rows] == [_bits(r) for r in rows]
    assert outcome.force_evals == calls
    assert _outcome_bits(outcome) == _outcome_bits(replayed)


def test_leapfrog_run_evaluates_force_once_per_step():
    config = SimConfig(t_end=3.0, integrator="leapfrog", fixed_step=1e-2)
    _, outcome = simulate(config, PhaseState.make(0.0, *_OFF_AXIS))
    _, _, calls = _replay(config, PhaseState.make(0.0, *_OFF_AXIS))
    assert outcome.steps == 300
    # the force at q0, which also checks u there and starts the first step
    assert outcome.force_evals == calls == outcome.steps + 1


def test_adaptive_run_evaluates_force_twelve_times_per_attempt():
    config = SimConfig(t_end=3.0)
    _, outcome = simulate(config, PhaseState.make(0.0, *_OFF_AXIS))
    _, _, calls = _replay(config, PhaseState.make(0.0, *_OFF_AXIS))
    attempts = outcome.steps + outcome.rejected
    assert outcome.force_evals == calls == 12 * attempts + 1


def test_step_counts_are_deterministic():
    ic = PhaseState.make(0.0, *_OFF_AXIS)

    def counts(config):
        _, outcome = simulate(config, ic)
        return outcome.steps, outcome.rejected, outcome.floor_accepted

    adaptive = SimConfig(t_end=5.0, rel_tol=1e-10)
    assert counts(adaptive) == counts(adaptive)
    assert counts(adaptive)[0] > 0 and counts(adaptive)[2] == 0
    leapfrog = SimConfig(t_end=1.0, integrator="leapfrog", fixed_step=1e-2)
    assert counts(leapfrog) == counts(leapfrog) == (100, 0, 0)


def test_floor_accepted_steps_are_counted(monkeypatch):
    # a step-size floor of 1/4 is far above what rel_tol 1e-12 allows, so
    # every step is accepted at the floor over tolerance; 1/4 is exact in
    # binary, so the sample caps never fall below the floor.  The kernel
    # takes both as literals, so it is compiled afresh with them, and
    # dropped after
    monkeypatch.setattr(dynamics, "H_INIT", 1 / 4)
    monkeypatch.setattr(dynamics, "H_MIN", 1 / 4)
    dynamics._compile_kernel.cache_clear()
    try:
        _, outcome = simulate(SimConfig(t_end=2.0), PhaseState.make(0.0, *_OFF_AXIS))
    finally:
        dynamics._compile_kernel.cache_clear()
    assert outcome.classification == "completed"
    assert outcome.steps == 8
    assert outcome.floor_accepted == outcome.steps
    assert outcome.rejected == 0


@contextlib.contextmanager
def _alarm(seconds):
    def timeout(signum, frame):
        raise TimeoutError("simulate did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("config, p0, text", [
    (SimConfig(t_end=5.0), (1e90, 0.0, 1e90), "u = inf"),
    (SimConfig(t_end=5.0, integrator="leapfrog"), (1e90, 0.0, 1e90), "u = inf"),
    # u overflows in the force before the first sample row
    (SimConfig(t_end=5.0, r_max=1e300), (1e100, 1e100, 0.0), "u = inf"),
    # the force survives here; the integrals of a sample row overflow
    (SimConfig(t_end=5.0, r_max=1e300, sample_interval=1e-3), (1e79, 1e79, 0.0),
     "-inf + inf in fsum"),
], ids=["adaptive", "leapfrog", "integrals", "integrals-fsum"])
def test_evaluator_overflow_is_step_failure(config, p0, text):
    with _alarm(30), warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy overflow warnings either
        _, outcome = simulate(config, PhaseState.make(0.0, (0.5, 0.2, -0.3), p0))
    assert outcome.classification == "step-failure"
    assert outcome.detail.startswith("evaluation overflowed at q = (")
    assert outcome.detail.endswith(text)


@pytest.mark.parametrize("q0", [
    (1e90, 0.0, 1e90),      # F+ and F- are finite, u = F+ F- is inf
    (1e200, 0.0, 0.0),      # F+ and F- are inf
])
def test_initial_state_evaluation_overflow_rejected(q0):
    with pytest.raises(ValueError, match="overflowed"), warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(SimConfig(t_end=1.0), PhaseState.make(0.0, q0, (0.0, 0.0, 0.0)))


def test_u_pow_min_keeps_the_force_finite():
    assert math.isfinite(dynamics.U_POW_MIN ** -1.5)
    # the integrals take sqrt(u), which does not overflow: no limit there
    q = (1e-61, 0.0, 1e-61)
    assert compile_force(A0, 1e-60, W0, 0.0).u(q) < dynamics.U_POW_MIN
    assert all(math.isfinite(v) for v in IntegralEvaluator(A0, 1e-60, W0)(q, (0.0, 0.0, 0.0)))


def _raised(fn, *args):
    try:
        fn(*args)
    except (SingularPoint, EvaluationOverflow) as exc:
        return type(exc), str(exc)
    pytest.fail(f"{fn} did not raise")


def _kernel_step_at(force, integrator, q):
    """What one step of a compiled kernel raises when its first force site
    is at q: from q with p = 0 and force 0, both the Verlet drift and the
    first stage of an adaptive attempt land on q exactly."""
    def sample(*row):
        pytest.fail("the kernel sampled before its first step raised")

    # r_max: SimConfig takes no inf
    config = SimConfig(integrator=integrator, t_end=1.0, sample_interval=1.0, r_max=1e308)
    zero = (0.0, 0.0, 0.0)
    exc = dynamics._compile_kernel(force, integrator)(
        sample, 0.0, q, zero, zero, 1.0, 1.0, config)[0]
    return type(exc), str(exc)


def test_u_site_writes_the_overflow_test_only_above_the_floor(force):
    """Where the cut on u equals the floor, as for every floor from
    U_POW_MIN up, no u in (floor, cut] exists to raise EvaluationOverflow."""
    def site(u_floor, u_cut):
        return "\n".join(dynamics._u_site(("x", "y", "z"), force.line_constants, u_floor, u_cut))

    assert "u**-1.5 overflows" not in site(1e-10, 1e-10)
    assert "u**-1.5 overflows" not in site(0.0, 0.0)
    assert "u**-1.5 overflows" in site(0.0, dynamics.U_POW_MIN)


@pytest.mark.parametrize("config, q, cls, text", [
    (SimConfig(t_end=1.0), (-1.0 / 3**0.5, 3 * 3**0.5 / 4, 1.0), SingularPoint,
     "u = 0.0 at q = ("),
    (SimConfig(t_end=1.0), (1e90, 0.0, 1e90), EvaluationOverflow, "u = inf"),
    # 0 < u < 3.14e-206, where u**-1.5 raises OverflowError
    (SimConfig(b=1e-60, u_floor=0.0, t_end=1.0), (1e-61, 0.0, 1e-61), EvaluationOverflow,
     ": u**-1.5 overflows"),
], ids=["on-a-line", "u-inf", "below-U_POW_MIN"])
def test_u_guards_raise_the_same_at_every_force_site(config, q, cls, text):
    force, _ = compile_system(config.a, config.b, config.w0, config.u_floor)
    expected = _raised(force, q)
    assert expected[0] is cls and text in expected[1]
    assert _raised(force.potential, q) == expected
    assert _raised(simulate, config, PhaseState.make(0.0, q, (0.0, 0.0, 0.0))) == expected
    for integrator in dynamics.INTEGRATORS:
        # the regularized kick takes grad u / u, not u^(-3/2): it has no cut
        if integrator == "regularized" and text == ": u**-1.5 overflows":
            continue
        assert _kernel_step_at(force, integrator, q) == expected


@pytest.mark.parametrize("t0, config", [
    (0.0, SimConfig(t_end=1.0, sample_interval=1e-300, integrator="leapfrog")),
    # 1e17 sample intervals; t + 1e-17 rounds to t, so every step would be
    # capped at 0
    (1.0, SimConfig(t_end=2.0, sample_interval=1e-17, integrator="leapfrog")),
], ids=["1e300-samples", "tiny-interval"])
def test_too_many_sample_intervals_rejected(t0, config, monkeypatch):
    def no_compile(*args):
        raise AssertionError("simulate compiled before rejecting the sample count")

    monkeypatch.setattr(dynamics, "compile_system", no_compile)
    with _alarm(5), pytest.raises(ValueError, match="MAX_SAMPLES"):
        simulate(config, PhaseState.make(t0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))


@pytest.mark.parametrize("integrator, fixed_step, raised, match", [
    ("leapfrog", 1e-300, ValueError, "MAX_STEPS = 100000000"),
    ("leapfrog", 0.9999e-8, ValueError, "MAX_STEPS = 100000000"),
    # 1.0 / 1e-8 rounds to exactly MAX_STEPS, which the budget allows
    ("leapfrog", 1e-8, AssertionError, "compiled"),
    # fixed_step is a leapfrog setting: the adaptive run passes the check
    ("adaptive", 1e-300, AssertionError, "compiled"),
], ids=["1e300-steps", "just-over", "at-budget", "adaptive"])
def test_leapfrog_step_budget(monkeypatch, integrator, fixed_step, raised, match):
    def no_compile(*args):
        raise AssertionError("simulate compiled")

    monkeypatch.setattr(dynamics, "compile_system", no_compile)
    config = SimConfig(t_end=1.0, fixed_step=fixed_step, integrator=integrator)
    with _alarm(5), pytest.raises(raised, match=match):
        simulate(config, PhaseState.make(0.0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))


@pytest.mark.parametrize("t_end, raised, match", [
    (1e300, ValueError, r"\(t_end - t0\) / H_MAX = 1e\+300 adaptive steps exceeds "
                        r"MAX_STEPS = 100000000"),
    # no adaptive step is longer than H_MAX = 1, so 10**8 steps is the budget
    (1e8, AssertionError, "compiled"),
], ids=["1e300", "at-budget"])
def test_adaptive_step_budget(monkeypatch, t_end, raised, match):
    def no_compile(*args):
        raise AssertionError("simulate compiled")

    monkeypatch.setattr(dynamics, "compile_system", no_compile)
    config = SimConfig(t_end=t_end, sample_interval=t_end / 10)
    with _alarm(5), pytest.raises(raised, match=match):
        simulate(config, PhaseState.make(0.0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))


# -- the run kernel against the per-step API ------------------------------


_SCAN_CONFIG = dict(t_end=50.0, rel_tol=1e-10, u_floor=1e-3)
_Q = (0.5, 0.2, -0.3)
# (id, config, ic, classification); the singularity approaches and the
# overflows raise partway through a sample interval
_KERNEL_CASES = [
    *((f"floor-{k}-{integ}", SimConfig(integrator=integ, **_SCAN_CONFIG), ic,
       "singularity-approach")
      for k, ic in enumerate(scan_initial_conditions(0, 4)) for integ in ("adaptive", "leapfrog")),
    ("step-failure-1e154", SimConfig(t_end=5.0), (_Q, (1e154, 0.0, 0.0)), "step-failure"),
    *((f"overflow-{integ}", SimConfig(t_end=5.0, integrator=integ), (_Q, (1e90, 0.0, 1e90)),
       "step-failure") for integ in ("adaptive", "leapfrog")),
    *((f"escape-{integ}", SimConfig(w0=1.0, t_end=500.0, r_max=5.0, integrator=integ),
       (_Q, (1.0, 1.0, 1.0)), "escape") for integ in ("adaptive", "leapfrog")),
    # an initial |q| beyond r_max escapes after the first step
    *((f"beyond-r_max-{integ}", SimConfig(t_end=5.0, r_max=0.1, integrator=integ), _OFF_AXIS,
       "escape") for integ in ("adaptive", "leapfrog")),
    # ... and one that takes no step does not
    *((f"no-step-beyond-r_max-{integ}", SimConfig(t_end=1e-13, r_max=0.1, integrator=integ),
       _OFF_AXIS, "completed") for integ in ("adaptive", "leapfrog")),
    *((f"partial-interval-{integ}",
       SimConfig(t_end=2.5, sample_interval=0.7, integrator=integ, fixed_step=1e-2),
       _OFF_AXIS, "completed") for integ in ("adaptive", "leapfrog")),
    # max |q| where the squares of q underflow (|q| ~ 1e-160: free motion
    # with w0 = 0 grows |q| at each step by less than a subnormal square
    # resolves) and where they are far from it (|q| ~ 1e70)
    *((f"tiny-q-{integ}", SimConfig(w0=0.0, t_end=3.0, integrator=integ),
       ((1e-160, 2e-160, -2e-160), (1e-166, 2e-166, -2e-166)), "completed")
      for integ in ("adaptive", "leapfrog")),
    *((f"huge-q-{integ}", SimConfig(t_end=3.0, r_max=1e300, integrator=integ),
       ((1e70, -2e70, 2e70), (1e64, -2e64, 2e64)), "completed")
      for integ in ("adaptive", "leapfrog")),
    # the force survives; the integrals of a sample raise, not a step
    *((f"integrals-fsum-{integ}",
       SimConfig(t_end=5.0, r_max=1e300, sample_interval=1e-3, integrator=integ),
       (_Q, (1e79, 1e79, 0.0)), "step-failure") for integ in ("adaptive", "leapfrog")),
]


@pytest.mark.parametrize("config, ic, classification", [case[1:] for case in _KERNEL_CASES],
                         ids=[case[0] for case in _KERNEL_CASES])
def test_kernel_outcome_equals_per_step_replay(config, ic, classification):
    """Every outcome field, detail text included, and every record row of
    the inlined kernel equal a replay through the per-step API, also when
    a step raises partway through a sample interval."""
    initial = PhaseState.make(0.0, *ic)
    with _alarm(120), warnings.catch_warnings():
        warnings.simplefilter("error")
        record, outcome = simulate(config, initial)
        rows, replayed, calls = _replay(config, initial)
    assert outcome.classification == classification
    assert _outcome_bits(outcome) == _outcome_bits(replayed)
    assert [_bits(r) for r in record.rows] == [_bits(r) for r in rows]
    # the attempt cut short by an exception, and only that one, is left
    # out of force_evals
    assert outcome.force_evals <= calls <= outcome.force_evals + 12


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
@pytest.mark.parametrize("t_end, interval, rows", [
    # sample times summed from 0.01 ran 1.9e-12 ahead of the grid by
    # t = 30, so the step to t_end fell short of the last one and its row
    # was lost
    (30.0, 0.01, 3001),
    (5.5, 1.0, 7),          # t_end between two sample times
    (5.0, 1e300, 2),        # no sample time before t_end
], ids=["fine-grid", "partial-interval", "no-interval"])
def test_rows_lie_on_the_sample_grid_and_at_t_end(integrator, t_end, interval, rows):
    """Rows are at t0 + k sample_interval and at t_end, so that every run
    ends with a row at t_end and its drifts cover its last steps."""
    config = SimConfig(t_end=t_end, sample_interval=interval, integrator=integrator)
    record, outcome = simulate(config, PhaseState.make(0.0, (0.3, 0.1, 0.2), (0.1, 0.0, 0.2)))
    times = [row[0] for row in record.rows]
    assert outcome.classification == "completed"
    assert len(times) == rows
    assert all(abs(t - k * interval) <= 1e-12 for k, t in enumerate(times[:-1]))
    assert times[-1] == outcome.t_final and abs(times[-1] - t_end) <= 1e-12
    assert outcome.drift_H > 0.0


@pytest.mark.parametrize("t_end, interval, ic, steps", [
    # t summed from 1e-3 steps fell over 1e-12 short of four sample times,
    # and each was reached by a sliver step of that gap: 30004 steps
    (30.0, 0.01, ((0.3, 0.1, 0.2), (0.1, 0.0, 0.2)), 30000),
    # the benchmark's Verlet run: 100036 steps with slivers
    (100.0, 1.0, ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)), 100000),
], ids=["fine-grid", "bench-verlet"])
def test_fixed_steps_reach_sample_times_without_sliver_steps(t_end, interval, ic, steps):
    """A fixed step stretches by up to 1e-4 to reach a sample time the
    summed steps fall just short of, so a run takes (t_end - t0) /
    fixed_step steps and each row lies on its sample time."""
    config = SimConfig(t_end=t_end, sample_interval=interval, integrator="leapfrog",
                       fixed_step=1e-3)
    record, outcome = simulate(config, PhaseState.make(0.0, *ic))
    times = [row[0] for row in record.rows]
    assert outcome.classification == "completed"
    assert outcome.steps == steps
    assert len(times) == round(t_end / interval) + 1
    assert times[:-1] == [k * interval for k in range(len(times) - 1)]
    assert times[-1] == t_end


@pytest.mark.parametrize("t0, config", [
    # t + 1.0 rounds to t: the sample time does not move, and the step
    # capped at it is 0
    (1e17, SimConfig(t_end=1e17 + 64, integrator="leapfrog")),
    (1e17, SimConfig(t_end=1e17 + 64)),
    # sample times move, but every adaptive step size up to h_max is
    # below half an ulp of t
    (1e17, SimConfig(t_end=1e17 + 4096, sample_interval=1024.0)),
], ids=["leapfrog", "adaptive", "adaptive-h-below-ulp"])
def test_step_that_does_not_advance_t_is_step_failure(t0, config):
    with _alarm(30):
        record, outcome = simulate(config, PhaseState.make(t0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4)))
    assert outcome.classification == "step-failure"
    assert outcome.t_final == t0 and outcome.steps == 0
    assert len(record.rows) == 1


def test_kernels_are_generated_on_first_run(monkeypatch):
    """compile_system compiles no run kernel; each integrator's kernel is
    compiled on its first run and reused by the next."""
    generated = []
    compile_source = dynamics._compile

    def counting(lines, name):
        if name == "_run":
            generated.append("\n".join(lines[1:]))
        return compile_source(lines, name)

    monkeypatch.setattr(dynamics, "_compile", counting)
    compile_system.cache_clear()
    compile_system(A0, B0, W0, 1e-10)
    assert generated == []
    for n, integrator in enumerate(dynamics.INTEGRATORS, start=1):
        for _ in range(2):
            simulate(SimConfig(t_end=1.0, integrator=integrator), PhaseState.make(0.0, *_OFF_AXIS))
        assert len(generated) == n
        assert ("h_fix" in generated[-1]) == (integrator == "leapfrog")


@pytest.mark.parametrize("integrator", dynamics.INTEGRATORS)
def test_run_is_one_kernel_call(integrator, monkeypatch):
    """The kernel owns the sample loop: 500 sample rows, one call."""
    compile_kernel = dynamics._compile_kernel
    calls = []

    def counting_kernel(force, name):
        kernel = compile_kernel(force, name)

        def counting(*args):
            calls.append(args)
            return kernel(*args)
        return counting

    monkeypatch.setattr(dynamics, "_compile_kernel", counting_kernel)
    config = SimConfig(t_end=5.0, sample_interval=0.01, integrator=integrator)
    record, outcome = simulate(config, PhaseState.make(0.0, *_OFF_AXIS))
    assert outcome.classification == "completed"
    assert len(record.rows) == 501
    assert len(calls) == 1
