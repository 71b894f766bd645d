"""Integrator validation against closed-form systems, force-field checks,
and the simulation/scan harness."""

import contextlib
import functools
import math
import signal
import struct
import warnings

import numpy as np
import pytest

from quadint import dynamics
from quadint.algebra import A, B
from quadint.algebra import W0 as W0_VAR
from quadint.catalog import ParamDomain, build_context
from quadint.dynamics import (
    AdaptiveStepper,
    IntegralEvaluator,
    PhaseState,
    SimConfig,
    TrajectoryRecord,
    compile_force,
    compile_poly_group,
    compile_system,
    distance_to_singular_lines,
    dp54_step,
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
    with pytest.raises(ParamDomain):
        compile_force(1.5, 1.0, -1.0)


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


# -- generated DP54 kernel, FSAL and Verlet force reuse -----------------
#
# _rhs and _dp54_loop are the term-by-term form of the Dormand-Prince step
# that the generated kernel unrolls; they are the reference the kernel must
# match bit for bit.


def _rhs(force, y):
    f = force(y[:3])
    return (y[3], y[4], y[5], f[0], f[1], f[2])


def _dp54_loop(force, y0, h: float):
    y0 = tuple(y0)
    ks = [_rhs(force, y0)]
    for i in range(1, 7):
        row = dynamics._DP_A[i]
        yi = tuple(
            y0[j] + h * sum(aij * k[j] for aij, k in zip(row, ks))
            for j in range(6)
        )
        ks.append(_rhs(force, yi))
    y5 = tuple(
        y0[j] + h * sum(bi * k[j] for bi, k in zip(dynamics._DP_B5, ks))
        for j in range(6)
    )
    y4 = tuple(
        y0[j] + h * sum(bi * k[j] for bi, k in zip(dynamics._DP_B4, ks))
        for j in range(6)
    )
    err = tuple(a - b for a, b in zip(y5, y4))
    return y5, err


def _error_norm(y0, y5, diff, abs_tol, rel_tol):
    """Scaled RMS error the step controller compares with 1."""
    acc = 0.0
    for j in range(6):
        sc = abs_tol + rel_tol * max(abs(y0[j]), abs(y5[j]))
        acc += (diff[j] / sc) ** 2
    return math.sqrt(acc / 6.0)


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


@pytest.mark.parametrize("name", ["oscillator", "free", "force_field"])
def test_dp54_kernel_matches_loop_oracle_bitwise(name, force):
    fn = {"oscillator": _oscillator, "free": _free, "force_field": force}[name]

    def logged(log):
        def f(q):
            log.append(_bits([float(v) for v in q]))
            return fn(q)
        return f

    rng = np.random.default_rng(20261017)
    for y0 in _kernel_states(rng):
        for h in (1e-3, 0.0371, 0.2, -0.05):
            stages, ref_stages = [], []
            y5, err = dp54_step(logged(stages), y0, h)
            # the loop is fed numpy scalars, as the stepper once passed
            # (*q, *p): their sums are plain left-to-right on every Python
            ref5, ref_err = _dp54_loop(logged(ref_stages),
                                       tuple(np.float64(v) for v in y0), h)
            # every stage state, signed zeros included, and both solutions
            assert stages == ref_stages, (y0, h)
            assert _bits(y5) == _bits(ref5), (y0, h)
            assert _bits(err) == _bits(ref_err), (y0, h)
            # FSAL: the 7th stage force is the force at y5; and the
            # controller's error norm
            _, _, last, norm = dynamics._dp54_kernel()(fn, y0, fn(y0[:3]), h, 1e-14, 1e-12)
            assert _bits(last) == _bits(fn(y5[:3])), (y0, h)
            assert _bits([norm]) == _bits([_error_norm(y0, ref5, ref_err, 1e-14, 1e-12)])


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture
def attempts(monkeypatch):
    """Counts the DP54 attempts of steppers created while it is active."""
    counter = _Counting(dynamics._dp54_kernel())
    monkeypatch.setattr(dynamics, "_dp54_kernel", lambda: counter)
    return counter


def test_dp54_force_calls_per_attempt(attempts):
    counting = _Counting(_oscillator)
    # h_init = 1 is far above what rel_tol 1e-12 allows: the first step
    # is rejected several times before one attempt is accepted
    stepper = AdaptiveStepper(counting, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    state, _, _ = stepper.step(state)
    assert attempts.calls >= 2
    assert counting.calls == 1 + 6 * attempts.calls   # k1 once, reused on rejection
    for _ in range(50):
        counting.calls = attempts.calls = 0
        state, _, _ = stepper.step(state)
        assert counting.calls == 6 * attempts.calls    # k1 from the previous step


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


def test_stepper_returns_accepted_attempt_error(monkeypatch):
    kernel = dynamics._dp54_kernel()
    errs = []

    def logged(*args):
        out = kernel(*args)
        errs.append(out[3])
        return out

    monkeypatch.setattr(dynamics, "_dp54_kernel", lambda: logged)
    stepper = AdaptiveStepper(_oscillator, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
    state = PhaseState.make(0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    for _ in range(20):
        errs.clear()
        state, _, err = stepper.step(state)
        assert _bits([err]) == _bits([errs[-1]]) and err <= 1.0


# -- input validation ----------------------------------------------------


def test_config_rejects_unknown_integrator():
    with pytest.raises(ValueError, match="integrator"):
        SimConfig(integrator="rk4typo")


_BAD_FIELDS = [
    (name, value)
    for name in ("rel_tol", "abs_tol", "fixed_step", "t_end", "sample_interval", "r_max")
    for value in (0.0, -1e-3, math.nan, math.inf)
] + [("u_floor", value) for value in (-1e-3, math.nan, math.inf)]


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
    polynomial on its own gives, and its u is the force field's u."""
    ctx = build_context()
    subs = {A: dynamics._exact(A0), B: dynamics._exact(B0), W0_VAR: dynamics._exact(W0)}
    single = [compile_poly_group([f.specialize(subs)]) for f in (
        ctx.u, ctx.H.A, ctx.x1_leading, ctx.m1_numerator, ctx.x2_leading, ctx.m2_numerator)]
    ev = dynamics.IntegralEvaluator(A0, B0, W0)
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        q = rng.uniform(-1.5, 1.5, size=3)
        p = rng.uniform(-0.8, 0.8, size=3)
        for j in rng.choice(6, size=rng.integers(0, 3), replace=False):
            (q if j < 3 else p)[j % 3] = 0.0
        uval, kinetic, x1_lead, m1_num, x2_lead, m2_num = (
            fn(*q, *p)[0] for fn in single)
        assert _bits([uval]) == _bits([force.u(q)])
        if uval <= 0.0:
            continue
        rs = 1.0 / math.sqrt(uval)
        ref = (kinetic + W0 * rs, x1_lead + m1_num * rs, x2_lead + m2_num * rs)
        assert _bits(ev(q, p)) == _bits(ref), (q, p)


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


def test_scan_pool_rows_equal_serial_rows():
    cfg = SimConfig(t_end=2.0)
    ics = [((0.5, 0.2, -0.3), (0.1, 0.1, 0.1)),
           ((0.4, 0.1, -0.2), (0.0, 0.05, 0.0)),
           ((0.3, -0.1, 0.2), (0.05, 0.0, 0.1))]

    def bits(rows):
        return [(r[0], _bits([float(v) for v in r[1:10]]), r[10]) for r in rows]

    assert bits(scan_singularity(cfg, ics, jobs=2)) == bits(scan_singularity(cfg, ics, jobs=1))


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


def test_last_u_is_u_at_the_new_state(force):
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state = step_leapfrog(state, 1e-2, force)
        assert _bits([force.last_u]) == _bits([force.u(state.q)])
    # h_init = 1 makes the first steps reject; the last force call of a
    # step is still at the accepted state
    stepper = AdaptiveStepper(force, rel_tol=1e-12, abs_tol=1e-14, h_init=1.0)
    state = PhaseState.make(0.0, *_OFF_AXIS)
    for _ in range(200):
        state, _, _ = stepper.step(state, h_cap=0.3)
        assert _bits([force.last_u]) == _bits([force.u(state.q)])
    assert stepper.rejected > 0


@pytest.mark.parametrize("config", [
    SimConfig(t_end=20.0),
    SimConfig(t_end=5.0, integrator="leapfrog", fixed_step=1e-2),
], ids=["adaptive", "leapfrog"])
def test_run_extrema_equal_replay_bitwise(config, monkeypatch):
    """min u and max |q| of a run equal force.u and np.linalg.norm at
    every state it stepped through."""
    states = []

    def recording(step):
        def wrapper(*args, **kwargs):
            out = step(*args, **kwargs)
            states.append(out[0] if isinstance(out, tuple) else out)
            return out
        return wrapper

    monkeypatch.setattr(dynamics, "step_leapfrog", recording(step_leapfrog))
    monkeypatch.setattr(AdaptiveStepper, "step", recording(AdaptiveStepper.step))
    initial = PhaseState.make(0.0, *_OFF_AXIS)
    _, outcome = simulate(config, initial)
    assert outcome.classification == "completed"
    assert len(states) == outcome.steps > 100
    force, _ = compile_system(config.a, config.b, config.w0, config.u_floor)
    replay = [initial] + states
    min_u = min(force.u(st.q) for st in replay)
    max_q = max(float(np.linalg.norm(st.q)) for st in replay)
    assert _bits([outcome.min_u, outcome.max_q]) == _bits([min_u, max_q])


@pytest.fixture
def fused_calls(monkeypatch):
    """Counts calls of the fused u + grad u evaluator that simulate uses."""
    force, _ = compile_system(A0, B0, W0, 1e-10)
    counter = _Counting(force._eval)
    monkeypatch.setattr(force, "_eval", counter)
    return counter


def test_leapfrog_run_evaluates_force_once_per_step(fused_calls):
    _, outcome = simulate(SimConfig(t_end=3.0, integrator="leapfrog", fixed_step=1e-2),
                          PhaseState.make(0.0, *_OFF_AXIS))
    assert outcome.steps == 300
    # the initial u check and the first step's start force
    assert fused_calls.calls == outcome.steps + 2


def test_adaptive_run_evaluates_force_six_times_per_attempt(fused_calls, attempts):
    _, outcome = simulate(SimConfig(t_end=3.0), PhaseState.make(0.0, *_OFF_AXIS))
    assert attempts.calls == outcome.steps + outcome.rejected
    assert fused_calls.calls == 6 * attempts.calls + 2


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
    # a step-size floor of 1/16 is far above what rel_tol 1e-12 allows, so
    # every step is accepted at the floor over tolerance; 1/16 is exact in
    # binary, so the sample caps never fall below the floor
    monkeypatch.setattr(dynamics, "AdaptiveStepper",
                        functools.partial(AdaptiveStepper, h_init=1 / 16, h_min=1 / 16))
    _, outcome = simulate(SimConfig(t_end=2.0), PhaseState.make(0.0, *_OFF_AXIS))
    assert outcome.classification == "completed"
    assert outcome.steps == 32
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


@pytest.mark.parametrize("config, p0", [
    (SimConfig(t_end=5.0), (1e90, 0.0, 1e90)),
    (SimConfig(t_end=5.0, integrator="leapfrog"), (1e90, 0.0, 1e90)),
    # the force survives here; the integrals of a sample row overflow
    (SimConfig(t_end=5.0, r_max=1e300), (1e100, 1e100, 0.0)),
], ids=["adaptive", "leapfrog", "integrals"])
def test_evaluator_overflow_is_step_failure(config, p0):
    with _alarm(30), warnings.catch_warnings():
        warnings.simplefilter("error")   # no numpy overflow warnings either
        _, outcome = simulate(config, PhaseState.make(0.0, (0.5, 0.2, -0.3), p0))
    assert outcome.classification == "step-failure"
    assert "in fsum" in outcome.detail


@pytest.mark.parametrize("q0", [
    (1e90, 0.0, 1e90),      # -inf + inf in fsum
    (1e200, 0.0, 0.0),      # a monomial is inf * 0.0, so u is NaN
])
def test_initial_state_evaluation_overflow_rejected(q0):
    with pytest.raises(ValueError, match="overflowed"), warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(SimConfig(t_end=1.0), PhaseState.make(0.0, q0, (0.0, 0.0, 0.0)))
