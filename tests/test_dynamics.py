"""Integrator validation against closed-form systems, force-field checks,
and the simulation/scan harness."""

import contextlib
import dataclasses
import hashlib
import math
import signal
import struct
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
    back = PhaseState(fwd.t, fwd.q.copy(), -fwd.p)
    for _ in range(50):
        back = step_leapfrog(back, h, _oscillator)
    assert np.allclose(back.q, state.q, atol=1e-12)
    assert np.allclose(-back.p, state.p, atol=1e-12)


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


def _displacement(h, total, weights_a, p, fs, j):
    """h sum_s w_s P_s[j] in Nystrom form, for weights w with sum ``total``
    and w A = ``weights_a``, from p and the stage forces fs."""
    inner = _weighted(weights_a, [f[j] for f in fs])
    acc = total * p[j] if total else None
    if inner is not None:
        acc = h * inner if acc is None else acc + h * inner
    return h * acc


def _attempt_loop(tableau, force, y0, h):
    """(solution, error estimate, low-order estimate or None, stage forces)
    of one attempt of ``tableau`` in Nystrom form, summed in a loop; the
    solution's position is the last stage's."""
    y0 = tuple(y0)
    q, p = y0[:3], y0[3:]
    fs = [tuple(force(q))]
    for s in range(1, tableau.last + 1):
        stage = tuple(q[j] + _displacement(h, tableau.nodes[s], tableau.rows2[s], p, fs, j)
                      for j in range(3))
        fs.append(tuple(force(stage)))
    b = tableau.rows[-1]
    z = stage + tuple(p[j] + h * _weighted(b, [f[j] for f in fs]) for j in range(3))

    def error(i):
        dq = [_displacement(h, tableau.error_sums[i], tableau.error_rows[i], p, fs, j)
              for j in range(3)]
        return dq + [h * _weighted(tableau.error[i], [f[j] for f in fs]) for j in range(3)]

    if tableau.estimator == "embedded":
        e, low = [z[j] - (y0[j] + d) for j, d in enumerate(error(0))], None
    else:
        e, low = error(0), tuple(error(1))
    return z, tuple(e), low, fs


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

    if tableau.estimator == "embedded":
        return z, tuple(z[j] - (y0[j] + d) for j, d in enumerate(error(0))), None
    return z, tuple(error(0)), tuple(error(1))


def _blended_norm_loop(y0, z, e, low, abs_tol, rel_tol):
    """Hairer's DOP853 error norm of an attempt of _attempt_loop over DOP853,
    summed in a loop."""
    scale = [abs_tol + rel_tol * max(abs(y0[j]), abs(z[j])) for j in range(6)]
    err5 = err3 = 0.0
    for j in range(6):
        err5 = err5 + (e[j] / scale[j]) * (e[j] / scale[j])
        err3 = err3 + (low[j] / scale[j]) * (low[j] / scale[j])
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
    """c = A 1, the rows of A A, sum E and E A of each tableau are the
    exact products of its stored doubles, each rounded once, and are
    derived once per tableau."""
    for tab in (dynamics.DP54, dynamics.DOP853):
        n = len(tab.rows)
        a = [[Fraction(row[k]) if k < len(row) else Fraction(0) for k in range(n)]
             for row in tab.rows]

        def times_a(w):
            return [sum(w[j] * a[j][k] for j in range(n)) for k in range(n)]

        def rounded(exact, table):
            # nonzero only where the table has an entry
            assert all(v == 0 for v in exact[len(table):])
            return tuple(float(v) for v in exact[:len(table)])

        for s, row in enumerate(a):
            assert tab.nodes[s] == float(sum(row))
            assert len(tab.rows2[s]) == max(s - 1, 0)
            assert tab.rows2[s] == rounded(times_a(row), tab.rows2[s])
        for i, weights in enumerate(tab.error):
            w = [Fraction(c) for c in weights] + [Fraction(0)] * (n - len(weights))
            assert tab.error_sums[i] == float(sum(w))
            assert tab.error_rows[i] == rounded(times_a(w), tab.error_rows[i])
        assert tab.nodes[-1] == 1.0                  # the solution's weights sum to 1
        assert tab.rows2 is tab.rows2 and tab.error_rows is tab.error_rows


# dp54_step at a few states, recorded as hex floats when the shared
# attempt generator began to write the Nystrom form
def _anharmonic(q):
    x, y, z = q
    return (-x - x * y * z, -y + 0.5 * x * x, -z * (1.0 + z * z))


_DP54_RECORDED = [
    (_oscillator, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0), 0.2,
     ("0x1.f5cb48be34d98p-1", "0x1.96dff28b140c8p-3", "0x0.0p+0", "-0x1.96dff28b140c8p-3",
      "0x1.f5cb48be34d98p-1", "0x0.0p+0"),
     ("-0x1.65575e0000000p-26", "-0x1.152b267f00000p-22", "0x0.0p+0", "0x1.152b267e00000p-22",
      "-0x1.65575e0000000p-26", "0x0.0p+0")),
    (_free, (0.0, 1.0, -2.0, 0.5, -0.25, 1.0), 0.7,
     ("0x1.6666666666666p-2", "0x1.a666666666666p-1", "-0x1.4cccccccccccdp+0",
      "0x1.0000000000000p-1", "-0x1.0000000000000p-2", "0x1.0000000000000p+0"),
     ("0x0.0p+0",) * 6),
    (_anharmonic, (0.5416740406778552, 0.16171926281771937, -0.2856766602871327,
                   0.012557794994664626, 0.011920233993246529, 0.04119174256386531), 0.0371,
     ("0x1.1564c040a4648p-1", "0x1.4c15e1186955ep-3", "-0x1.22c0301e7c300p-2",
      "-0x1.b18c01e379ed8p-8", "0x1.7429238fdc8d4p-7", "0x1.af0964b953b7cp-5"),
     ("-0x1.7b68000000000p-40", "0x1.5120000000000p-41", "-0x1.078c000000000p-38",
      "0x1.c349ec0000000p-36", "-0x1.f867660000000p-36", "-0x1.dbe6d00000000p-36")),
    (_anharmonic, (-0.3, 0.7, 0.1, 0.2, -0.0, 0.4), -0.05,
     ("-0x1.3d06c742d7313p-2", "0x1.65fb44db8e912p-1", "0x1.4732b30ff0f86p-4",
      "0x1.786af2d5e54f8p-3", "0x1.0b9271cd37f62p-5", "0x1.9e3e62e2ddb1fp-2"),
     ("-0x1.76a8000000000p-41", "0x1.ffba800000000p-36", "0x1.a0dd800000000p-34",
      "0x1.9297100000000p-34", "-0x1.d52d7a0000000p-34", "-0x1.9e4a600000000p-35")),
]


@pytest.mark.parametrize("fn, y0, h, y5_hex, err_hex", _DP54_RECORDED,
                         ids=["oscillator", "free", "anharmonic", "anharmonic-back"])
def test_dp54_step_equals_recorded_bits(fn, y0, h, y5_hex, err_hex):
    y5, err = dp54_step(fn, y0, h)
    assert [v.hex() for v in y5] == [float.fromhex(v).hex() for v in y5_hex]
    assert [v.hex() for v in err] == [float.fromhex(v).hex() for v in err_hex]


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
    h_ctl, err_prev = stepper.h, stepper._err_prev
    # a step shortened by the cap is accepted at the cap and changes neither
    # h_ctl nor the PI controller's previous error
    state, h, _ = stepper.step(state, h_cap=0.5 * h_ctl)
    assert h == 0.5 * h_ctl and stepper.rejected == 0
    assert (stepper.h, stepper._err_prev) == (h_ctl, err_prev)
    # an uncapped step moves both
    stepper.step(state)
    assert stepper.h != h_ctl and stepper._err_prev != err_prev


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_stepper_force_calls_per_attempt():
    counting = _Counting(_oscillator)
    # h_init = 1 is far above what rel_tol 1e-12 allows: the first step
    # is rejected several times before one attempt is accepted; a step
    # makes one attempt more than it rejects
    stepper = AdaptiveStepper(counting, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
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
        assert _bits(a.q.tolist() + a.p.tolist()) == _bits(b.q.tolist() + b.p.tolist())


def test_leapfrog_reuses_end_of_step_force(force):
    counting = _Counting(force)
    a = b = PhaseState.make(0.0, (0.0, 0.0, 0.5), (0.0, 0.0, 0.4))
    for _ in range(100):
        a = step_leapfrog(a, 1e-3, counting)
        b = step_leapfrog(PhaseState(b.t, b.q, b.p), 1e-3, force)
        assert _bits(a.q.tolist() + a.p.tolist()) == _bits(b.q.tolist() + b.p.tolist())
    assert counting.calls == 1 + 100


def test_stepper_returns_accepted_attempt_error(force):
    """The err of AdaptiveStepper.step is Hairer's norm of the accepted
    attempt at the h it used, bit for bit that of the loop oracle, and the
    new state is that attempt's solution."""
    rng = np.random.default_rng(20261018)
    for fn in (_oscillator, _free, force):
        rejected = 0
        for y0 in _kernel_states(rng, n=10):
            # h_init = 1 makes the first steps reject
            stepper = AdaptiveStepper(fn, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
            state = PhaseState.make(0.0, y0[:3], y0[3:])
            for _ in range(3):
                y = tuple(state.q.tolist() + state.p.tolist())
                state, h, err = stepper.step(state)
                z, e, low, _ = _attempt_loop(dynamics.DOP853, fn, y, h)
                assert _bits([err]) == _bits([_blended_norm_loop(y, z, e, low, 1e-14, 1e-12)])
                assert _bits(state.q.tolist() + state.p.tolist()) == _bits(z)
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
], ids=["q-2", "p-4", "q-scalar"])
def test_simulate_rejects_wrong_length_state(q0, p0):
    with pytest.raises(ValueError, match="3 components"):
        simulate(SimConfig(t_end=1.0), PhaseState.make(0.0, q0, p0))


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

    def capture(lines, name, **names):
        sources.append("\n".join(lines))
        return compile_(lines, name, **names)

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


@pytest.mark.parametrize("integrator", ["adaptive", "leapfrog"])
@pytest.mark.parametrize("ic", [
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),      # documented orbit 0, far from the lines
    *(scan_initial_conditions(0, 7)[k] for k in (1, 6)),  # pass within u ~ 1e-7, 5e-9
], ids=["orbit0", "scan0-ic1", "scan0-ic6"])
def test_parity_maps_runs_onto_runs_bit_for_bit(integrator, ic):
    """(q, p, b) -> (-q, -p, -b) is a symmetry of H, X1 and X2, and every
    operation of both kernels is odd or even under it: the mirrored run
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


@pytest.mark.parametrize("ic", [
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.4)),      # documented orbit 0
    *scan_initial_conditions(0, 10),
], ids=["orbit0", *(f"scan0-ic{k}" for k in range(10))])
def test_mirror_maps_leapfrog_runs_onto_runs_bit_for_bit(ic):
    """u(a; x, y, z) = u(1 - a; z, y, x), so (a, x, z) -> (1 - a, z, x),
    with the momenta to match, is a symmetry of H; at a = 1/4 and 3/4,
    1 - a is exact.  Every operation of the leapfrog kernel commutes with
    the swap: the mirrored run has the same t, H, u and d_sing and the
    swapped q and p in every row, and an equal outcome in every field but
    drift_X1 and drift_X2, bit for bit.  X1 and X2 are not
    mirror-invariant.  Adaptive runs are not tested: their error norm sums
    the components from x to pz, so the swap changes its last bits and the
    step sequences part (ROADMAP item 9's norm reordering, which
    re-baselines the digest)."""
    (q0, p0), t_end = ic, 20.0
    config = SimConfig(a=0.25, b=B0, w0=W0, t_end=t_end, integrator="leapfrog")
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


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(rel_tol=0.0)
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
    # this IC passes within 1.2e-4 of a line between the samples at t = 1
    # and t = 2, whose rows are more than 0.5 away
    cfg = SimConfig(t_end=2.0)
    ic = scan_initial_conditions(0, 2)[1]
    (row,) = scan_singularity(cfg, [ic])
    record, outcome = simulate(cfg, PhaseState.make(0.0, *ic))
    assert row[8:10] == (outcome.min_u, outcome.min_dsing)
    assert outcome.min_dsing < 1e-3 * min(r[11] for r in record.rows)


def test_scan_pool_rows_equal_serial_rows():
    cfg = SimConfig(t_end=2.0)
    ics = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
           ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
           ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1))]

    def bits(rows):
        return [(r[0], _bits([float(v) for v in r[1:10]]), r[10]) for r in rows]

    assert bits(scan_singularity(cfg, ics, jobs=2)) == bits(scan_singularity(cfg, ics, jobs=1))


@pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (5000, 3)])
def test_scan_pool_has_at_most_one_worker_per_ic(jobs, workers, monkeypatch):
    """Under fork the pool starts all its workers up front, so it gets no
    more than one per IC.  The pool here records max_workers and runs each
    task in this process: no worker is started."""
    import concurrent.futures

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SimConfig(t_end=0.5)
    ics = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
           ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
           ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1))]
    rows = scan_singularity(cfg, ics, jobs=jobs)
    assert seen == [workers]
    assert [r[0] for r in rows] == [0, 1, 2]


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
            assert _bits(a.q.tolist() + a.p.tolist()) == _bits(b.q.tolist() + b.p.tolist())
            assert _bits(a.f) == _bits([float(v) for v in b.f])


def test_state_force_is_the_force_at_its_q(force):
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state = step_leapfrog(state, 1e-2, force)
        assert _bits(state.f) == _bits(force(state.q))
    # h_init = 1 makes the first steps reject; the force a step carries is
    # still the one at the accepted state
    stepper = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state, _, _ = stepper.step(state, h_cap=0.3)
        assert _bits(state.f) == _bits(force(state.q))
    assert stepper.rejected > 0


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
        q, p = st.q.tolist(), st.p.tolist()
        return (st.t, *q, *p, *integrals(q, p), plain.u(q),
                distance_to_singular_lines(st.q, config.a, config.b))

    # the force at q0 is also the initial state's check
    state = PhaseState(initial.t, initial.q, initial.p, force(initial.q.tolist()))
    rows = [row(initial)]
    min_u, max_q = plain.u(initial.q), math.hypot(*initial.q.tolist())
    min_dsing = distance_to_singular_lines(initial.q, config.a, config.b)
    drift = [0.0, 0.0, 0.0]
    stepper = AdaptiveStepper(force, config.rel_tol, config.abs_tol)
    steps, evals, rejected = 0, force.calls, 0
    next_sample = initial.t + config.sample_interval
    classification, detail = "completed", ""
    try:
        while state.t < config.t_end - 1e-12:
            cap = min(next_sample, config.t_end) - state.t
            if config.integrator == "leapfrog":
                state = step_leapfrog(state, min(config.fixed_step, cap), force)
            else:
                state = stepper.step(state, h_cap=cap)[0]
            steps, evals, rejected = steps + 1, force.calls, stepper.rejected
            min_u = min(min_u, plain.u(state.q))
            min_dsing = min(min_dsing, distance_to_singular_lines(state.q, config.a, config.b))
            max_q = max(max_q, math.hypot(*state.q.tolist()))
            if max_q > config.r_max:
                classification = "escape"
                detail = f"|q| = {max_q:.3g} exceeded r_max at t = {state.t:.6g}"
                break
            if state.t >= next_sample - 1e-12:
                rows.append(row(state))
                for i in range(3):
                    drift[i] = max(drift[i], abs(rows[-1][7 + i] - rows[0][7 + i])
                                   / max(abs(rows[0][7 + i]), 1e-3))
                next_sample += config.sample_interval
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
    # binary, so the sample caps never fall below the floor
    monkeypatch.setattr(dynamics, "H_INIT", 1 / 4)
    monkeypatch.setattr(dynamics, "H_MIN", 1 / 4)
    _, outcome = simulate(SimConfig(t_end=2.0), PhaseState.make(0.0, *_OFF_AXIS))
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

    if integrator == "adaptive":
        params = (1e-14, 1e-12, 1e-3, 1e-12, 1.0, 0.9)
    else:
        params = (1e-3,)
    zero = (0.0, 0.0, 0.0)
    exc = dynamics._compile_kernel(force, integrator)(
        sample, 0.0, q, zero, zero, 1.0, 1.0, 1.0, 1.0, math.inf, *params)[0]
    return type(exc), str(exc)


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

    def counting(lines, name, **names):
        if name == "_run":
            generated.append(lines[0])
        return compile_source(lines, name, **names)

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
