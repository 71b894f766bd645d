"""The regularized integrator: its emitted formulas, and the prefactor of
the other kernels' force site, checked exactly; its kernel replayed bit
for bit by plain loops; its attempt reversed in time; its outcomes
classified; and the scan that runs it."""

import dataclasses
import functools
import math
import struct
from fractions import Fraction

import pytest

from quadint import dynamics
from quadint.algebra import COORDS, Polynomial, generators
from quadint.catalog import build_context
from quadint.dynamics import (
    PhaseState,
    SimConfig,
    compile_force,
    compile_system,
    scan_initial_conditions,
    scan_sim_config,
    scan_singularity,
    simulate,
)
from quadint.radical import RadicalElement
from quadint.verifier import _reduce_stand_ins

x, y, z, px, py, pz, a, b, w0 = generators()
_OFF_AXIS = ((0.5416740406778552, 0.16171926281771937, -0.2856766602871327),
             (0.012557794994664626, 0.011920233993246529, 0.04119174256386531))


def _bits(values):
    return struct.pack(f"{len(values)}d", *values)


# -- the emitted lines over exact polynomials -----------------------------


class _Name(str):
    """A constant that the generators print as its name: they write every
    constant with repr."""

    def __repr__(self):
        return str(self)


_CONSTS = (_Name("c"), _Name("s"), _Name("k"))


def _flip(line):
    """The line ``name = expr`` with the sign of expr flipped."""
    name, expr = line.split(" = ", 1)
    return f"{name} = -({expr})"


def _emitted_u_g(flip=None):
    """u and g0..g2 of the emitted factored and gradient lines, run over
    Polynomials with c = px and s = py standing in for sqrt(1 - a) and
    sqrt(a), as in verify_factorization, and k = 3 c s b, each reduced by
    the squares of the stand-ins.  ``flip`` names a line whose sign is
    flipped."""
    lines = [*dynamics._factored_lines(("x", "y", "z"), _CONSTS),
             *dynamics._gradient_lines(_CONSTS)]
    lines = [_flip(line) if line.startswith(f"{flip} = ") else line for line in lines]
    ns = {"x": x, "y": y, "z": z, "c": px, "s": py, "k": 3 * px * py * b}
    exec("\n".join(lines), {}, ns)
    return [_reduce_stand_ins(ns[name]) for name in ("u", "g0", "g1", "g2")]


def _kick_lines():
    """The lines of a LogH kick after its force site, up to the drift."""
    lines = [line.strip() for line in dynamics._logh_attempt_lines(lambda q: ["# site"])]
    start = lines.index("# site") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("w = "))
    assert lines[start].startswith("hu = ") and end - start == 4
    return lines[start:end]


@pytest.mark.parametrize("flip", [None, "u", "g0", "g1", "g2"])
def test_emitted_u_and_g_are_the_catalog_u_and_half_its_gradient(flip):
    """u and 2 g equal the catalog's u and grad u, exactly; a flipped sign
    in one of them fails that one only."""
    u = build_context().u
    emitted = _emitted_u_g(flip)
    wanted = [u, *(u.diff(v) * Fraction(1, 2) for v in COORDS)]
    equal = [(e - w).is_zero() for e, w in zip(emitted, wanted)]
    assert equal == [name != flip for name in ("u", "g0", "g1", "g2")]


class _Step:
    """The substep hs = 1: hs / u is 1/u in the ring of u^(-1/2)."""

    def __init__(self, ring):
        self.ring = ring

    def __truediv__(self, u):
        assert (u - self.ring.u).is_zero()
        return RadicalElement(self.ring, Polynomial.constant(1), Polynomial(), 1)


@pytest.mark.parametrize("flip", [None, 0, 1, 2])
def test_logh_kick_is_force_over_minus_potential(flip):
    """The kick lines with hs = 1 take p by -g/u, which times U = -V is the
    force F = -grad V, exactly in the ring of RadicalElement: the kick is
    F/U.  A flipped sign in one component fails that one only."""
    ctx = build_context()
    u, *g = _emitted_u_g()
    lines = _kick_lines()
    if flip is not None:
        lines[1 + flip] = _flip(lines[1 + flip])
    ns = {"hs": _Step(ctx.ring), "u": u, **{f"g{j}": g[j] for j in range(3)},
          **{f"x{j + 3}": ctx.ring.zero() for j in range(3)}}
    exec("\n".join(lines), {}, ns)
    force = [-ctx.V.diff(v) for v in COORDS]
    kicks = [ns[f"x{j + 3}"] for j in range(3)]
    assert [k * -ctx.V == f for k, f in zip(kicks, force)] == [j != flip for j in range(3)]


class _HalfPowerOfU:
    """u^(n/2) for odd n in the ring of RadicalElement: _sqrt(u) is
    u^(1/2) = u s, u times u^(n/2) is u^((n+2)/2), and a number over
    u^(n/2) is that number times s / u^((n-1)/2)."""

    def __init__(self, ring, n):
        self.ring, self.n = ring, n

    def __rmul__(self, u):
        assert (u - self.ring.u).is_zero()
        return _HalfPowerOfU(self.ring, self.n + 2)

    def __rtruediv__(self, number):
        return RadicalElement(self.ring, Polynomial(), Polynomial.constant(Fraction(number)),
                              (self.n - 1) // 2)


@pytest.mark.parametrize("flip", [None, "pref", "f_0", "f_1", "f_2"])
def test_force_site_prefactor_gives_minus_grad_v(flip):
    """The last lines of the DOP853 and leapfrog kernels' inlined force
    site, pref = w0 / (u _sqrt(u)) and f_j = pref g_j, run with _sqrt(u)
    standing for u s, give f = -grad V exactly in the ring of
    RadicalElement.  A flipped sign in pref fails every component; in
    f_j, that one only."""
    ctx = build_context()
    w0_value = -0.75
    lines = dynamics._inlined_site(compile_force(0.25, 1.0, w0_value))(("x", "y", "z"))[-4:]
    assert [line.split(" = ")[0] for line in lines] == ["pref", "f_0", "f_1", "f_2"]
    lines = [_flip(line) if line.startswith(f"{flip} = ") else line for line in lines]

    def root(v):
        assert (v - ctx.ring.u).is_zero()
        return _HalfPowerOfU(ctx.ring, 1)

    u, *g = _emitted_u_g()
    ns = {"_sqrt": root, "u": u, **{f"g{j}": g[j] for j in range(3)}}
    exec("\n".join(lines), {}, ns)
    # V = w0 s with w0 symbolic: w0 times f at w0_value is w0_value times -grad V
    equal = [ns[f"f_{j}"] * w0 == -ctx.V.diff(v) * Fraction(w0_value)
             for j, v in enumerate(COORDS)]
    assert equal == [flip not in ("pref", f"f_{j}") for j in range(3)]


# -- plain-loop oracles -----------------------------------------------------


class _Oracle:
    """The regularized step's arithmetic as plain loops over lists, from the
    force field's line constants, w0 and floor."""

    def __init__(self, config):
        force, _ = compile_system(config.a, config.b, config.w0, config.u_floor)
        self.consts, self.w0 = force.line_constants, force.w0
        self.atol, self.rtol = config.abs_tol, config.rel_tol

    def u_g(self, q):
        c, s, k = self.consts
        lp, lm = c * q[0] + s * q[2], c * q[0] - s * q[2]
        yp, ym = q[1] - k, q[1] + k
        fp, fm = yp * yp + lp * lp, ym * ym + lm * lm
        u = fp * fm
        return u, (c * (fm * lp + fp * lm), fm * yp + fp * ym, s * (fm * lp - fp * lm))

    def kinetic(self, p):
        return 0.5 * ((p[0] * p[0] + p[2] * p[2]) + p[1] * p[1])

    def energy(self, q, p):
        return self.kinetic(p) + self.w0 / math.sqrt(self.u_g(q)[0])

    def extrapolate(self, rows, sequence):
        """The last two diagonal entries of the Aitken-Neville table."""
        table = [rows[0]]
        for i in range(1, len(rows)):
            new = [rows[i]]
            for j in range(1, i + 1):
                div = float(Fraction(sequence[i], sequence[i - j]) ** 2 - 1)
                new.append([v + (v - w) / div for v, w in zip(new[j - 1], table[j - 1])])
            table = new
        return table[-1], table[-2]

    def norm(self, y, z, e):
        r = [e[j] / (self.atol + self.rtol * max(abs(y[j]), abs(z[j]))) for j in range(6)]
        sq = [v * v for v in r]
        return math.sqrt((((sq[0] + sq[2]) + sq[1]) + ((sq[3] + sq[5]) + sq[4])) / 6.0)

    def logh(self, y, S, B):
        """(dte, z, err) of one LogH attempt of S from y."""
        sequence = (2, 4, 6, 8, 10, 12)
        rows = []
        for n in sequence:
            hs = S / n
            hd = 0.5 * hs
            dt = hd / (self.kinetic(y[3:]) + B)
            s = dt
            q = [y[j] + dt * y[j + 3] for j in range(3)]
            p = list(y[3:])
            for i in range(n):
                u, g = self.u_g(q)
                p = [p[j] - hs / u * g[j] for j in range(3)]
                dt = (hs if i < n - 1 else hd) / (self.kinetic(p) + B)
                s = s + dt
                q = [q[j] + dt * p[j] for j in range(3)]
            rows.append([s, *q, *p])
        best, prev = self.extrapolate(rows, sequence)
        z = best[1:]
        return best[0], z, self.norm(y, z, [v - w for v, w in zip(z, prev[1:])])


def _first_attempt(config, ic):
    oracle = _Oracle(config)
    y = [*ic[0], *ic[1]]
    B = -oracle.energy(ic[0], ic[1])
    return oracle, y, B, oracle.logh(y, dynamics.H_INIT, B)


@pytest.mark.parametrize("ic", [_OFF_AXIS, scan_initial_conditions(0, 7)[6]],
                         ids=["off-axis", "scan0-ic6"])
def test_one_attempt_equals_plain_loop_oracle_bitwise(ic):
    """A run sampled at the end of its first attempt, whose controller step
    S = H_INIT lands there exactly, records the oracle's state there, bit
    for bit."""
    config = SimConfig(integrator="regularized", rel_tol=1e-10)
    _, y, _, (dte, z, err) = _first_attempt(config, ic)
    assert err <= 1.0
    config = dataclasses.replace(config, t_end=2 * dte, sample_interval=dte)
    record, outcome = simulate(config, PhaseState.make(0.0, *ic))
    assert record.rows[1][0] == dte
    assert _bits(record.rows[1][1:7]) == _bits(z)
    assert outcome.classification == "completed"


def test_one_landing_equals_plain_loop_oracle_bitwise():
    """A run to half the first attempt's time step: that attempt passes
    t_end and is rejected; the step aims at 0.98 of the gap with
    S = 0.98 t_end (S / dte), then closes the gap with one DOP853 attempt
    in physical time, and lands on t_end exactly.  The closing attempt is
    the adaptive integrator's own (checked in tests/test_dynamics.py), run
    here through the force callable."""
    config = SimConfig(integrator="regularized", rel_tol=1e-10)
    oracle, y, B, (dte, _, _) = _first_attempt(config, _OFF_AXIS)
    t_end = 0.5 * dte
    S = 0.98 * t_end * (dynamics.H_INIT / dte)
    dte2, z2, err2 = oracle.logh(y, S, B)
    assert err2 <= 1.0 and dte2 < t_end
    force, _ = compile_system(config.a, config.b, config.w0, config.u_floor)
    z3, _, _ = dynamics._attempt_kernel(dynamics.DOP853)(
        force, tuple(z2), force(z2[:3]), t_end - dte2)
    record, outcome = simulate(dataclasses.replace(config, t_end=t_end),
                               PhaseState.make(0.0, *_OFF_AXIS))
    assert (outcome.classification, outcome.steps, outcome.rejected) == ("completed", 2, 1)
    assert outcome.force_evals == 1 + 42 + 42 + 13
    assert record.rows[-1][0] == outcome.t_final == t_end
    assert _bits(record.rows[-1][1:7]) == _bits(z3)
    assert record.rows[-1][10] == oracle.u_g(z3[:3])[0]


# -- time reversal ----------------------------------------------------------


@functools.cache
def _kernel_attempt(mutant=False):
    """The kernel's LogH attempt, _logh_attempt_lines around the kick site
    that _regularized_step_lines gives it, and the error norm after it,
    compiled as ``attempt(y0, ..., y5, S, B, atol, rtol) -> (dte, z, err)``.
    The mutant takes each sequence's last drift with hs in place of hd."""
    force, _ = compile_system(0.25, 1.0, -1.0, 1e-10)
    kicks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_logh_attempt_lines", lambda kick: kicks.append(kick) or [])
        dynamics._regularized_step_lines(force)
    body = [*dynamics._logh_attempt_lines(*kicks), *dynamics._rms_norm_lines()]
    if mutant:
        mutated = [line.replace("+ (hd,)", "+ (hs,)") for line in body]
        assert sum(m != line for m, line in zip(mutated, body)) == 1
        body = mutated
    return dynamics._compile([
        "def attempt(y0, y1, y2, y3, y4, y5, S, B, atol, rtol):",
        "    t, au, ad = 0.0, _inf, _inf",
        *dynamics._indent(body),
        "    return dte, (z0, z1, z2, z3, z4, z5), err"], "attempt")


@pytest.mark.parametrize("mutant", [False, True], ids=["kernel", "last-drift-hs"])
@pytest.mark.parametrize("ic", [_OFF_AXIS, scan_initial_conditions(0, 7)[6],
                                scan_initial_conditions(1, 3)[2]],
                         ids=["off-axis", "scan0-ic6", "scan1-ic2"])
def test_logh_attempt_is_time_reversible(ic, mutant):
    """From the end z of an accepted attempt of S, an attempt of -S returns
    to the start y within 2^-44 max|y|, and its time step is -dte within
    2^-44 |dte|, for S from 1e-3 to 0.5: the extrapolated LogH leapfrog is
    symmetric, to rounding (measured: 3 to 32 ulps of max|y|).  The
    mutant, whose sequences end on a drift of hs, misses by far."""
    config = SimConfig(integrator="regularized", rel_tol=1e-10)
    attempt = _kernel_attempt(mutant)
    y = (*ic[0], *ic[1])
    B = -_Oracle(config).energy(*ic)
    tol = 2.0 ** -44
    returned = []
    for S in (1e-3, 1e-2, 0.1, 0.5):
        dte, z, err = attempt(*y, S, B, config.abs_tol, config.rel_tol)
        assert mutant or err <= 1.0
        back_dte, back, _ = attempt(*z, -S, B, config.abs_tol, config.rel_tol)
        returned.append(max(abs(v - w) for v, w in zip(back, y)) <= tol * max(map(abs, y))
                        and abs(back_dte + dte) <= tol * dte)
    assert returned == [not mutant] * 4


# -- classified outcomes --------------------------------------------------


_Q = (0.5, 0.2, -0.3)


@pytest.mark.parametrize("config, ic, classification, detail", [
    # the scan's ICs at a floor of 1e-3, which their near-line passes reach
    (SimConfig(integrator="regularized", t_end=50.0, rel_tol=1e-10, u_floor=1e-3),
     scan_initial_conditions(0, 2)[1], "singularity-approach", "u = "),
    # E > 0: the orbit leaves through r_max; far out, where U is small, a
    # substep of an oversized attempt reaches T + B <= 0, which rejects it
    (SimConfig(integrator="regularized", t_end=500.0, r_max=5.0), (_Q, (2.0, 2.0, 2.0)),
     "escape", "|q| = "),
    # T0 = 5e17 swamps V0 ~ -1 in B = -E0, so T + B rounds to 0 at the start
    (SimConfig(integrator="regularized", t_end=1.0), (_Q, (1e9, 0.0, 0.0)),
     "step-failure", "T + B = 0.0 is not positive at t = 0.0"),
    # U ~ 1e300: the first step's time step, H_INIT / U, is below H_MIN
    (SimConfig(integrator="regularized", w0=-1e300, t_end=1.0), _OFF_AXIS,
     "step-failure", "time step 1.87389e-303 below floor 1e-12"),
    (SimConfig(integrator="regularized", t_end=2.5), _OFF_AXIS, "completed", ""),
], ids=["floor", "escape", "t-plus-b", "step-floor", "t_end"])
def test_regularized_outcomes_are_classified(config, ic, classification, detail):
    record, outcome = simulate(config, PhaseState.make(0.0, *ic))
    assert outcome.classification == classification
    assert outcome.detail.startswith(detail)
    # no step goes back in time, and a completed run ends on t_end exactly
    times = [row[0] for row in record.rows]
    assert times == sorted(times) and outcome.t_final >= times[-1]
    if classification == "completed":
        assert outcome.t_final == times[-1] == config.t_end
    if classification == "step-failure":
        assert outcome.steps == 0 and outcome.t_final == 0.0


def test_regularized_integrator_needs_attractive_potential():
    for w0_value in (0.0, 1.0):
        with pytest.raises(ValueError, match="regularized integrator needs w0 < 0"):
            SimConfig(integrator="regularized", w0=w0_value)


@pytest.mark.parametrize("integrator", ["adaptive", "regularized"])
def test_attempt_budget_ends_a_run_as_step_failure(integrator, monkeypatch):
    """The adaptive kernels compare their accepted plus rejected attempts
    with MAX_STEPS before each step, a literal of the kernel: a budget of
    20 ends a run that passes the up-front check (t_end / H_MAX = 5).
    The leapfrog kernel, bounded up front, has no such compare."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 20)
    dynamics._compile_kernel.cache_clear()
    try:
        _, outcome = simulate(SimConfig(t_end=5.0, integrator=integrator),
                              PhaseState.make(0.0, *_OFF_AXIS))
    finally:
        dynamics._compile_kernel.cache_clear()
    attempts = outcome.steps + outcome.rejected
    assert outcome.classification == "step-failure"
    assert outcome.detail == f"{attempts} attempts reach MAX_STEPS = 20"
    assert attempts >= 20 and outcome.t_final < 5.0


def test_leapfrog_kernel_has_no_attempt_budget(monkeypatch):
    sources = []
    compile_ = dynamics._compile

    def capture(lines, name):
        sources.append("\n".join(lines))
        return compile_(lines, name)

    monkeypatch.setattr(dynamics, "_compile", capture)
    force, _ = compile_system(0.25, 1.0, -1.0, 1e-10)
    for integrator in dynamics.INTEGRATORS:
        dynamics._compile_kernel.__wrapped__(force, integrator)
    assert ["MAX_STEPS" in src for src in sources] == [
        integrator != "leapfrog" for integrator in dynamics.INTEGRATORS]


# -- the closest approach of a pass ------------------------------------------


def _kepler_state(e, theta, k=0.7, p=1e-3):
    """Position and velocity at true anomaly theta on the two-body orbit of
    eccentricity e, semi-latus rectum p and attraction k / r."""
    r = p / (1.0 + e * math.cos(theta))
    vr, vt = math.sqrt(k / p) * e * math.sin(theta), math.sqrt(k / p) * (1.0 + e * math.cos(theta))
    pos = (r * math.cos(theta), r * math.sin(theta))
    vel = (vr * math.cos(theta) - vt * math.sin(theta), vr * math.sin(theta) + vt * math.cos(theta))
    return pos, vel, r * vr


@pytest.mark.parametrize("e, theta", [
    (0.5, -2.0), (0.5, 0.0), (0.5, 1.0), (0.999999, -0.5), (1.0, -2.0), (1.0, 0.3),
    (3.0, -1.5), (3.0, 1.0)])
def test_pass_estimate_is_the_two_body_pericentre(e, theta):
    """The emitted estimate at a state on a two-body orbit across line +
    (V = -k/d, k = -w0 / sqrt(F-)) is that orbit's pericentre p / (1 + e),
    whatever the state's place on the orbit; line -, far away, gets none."""
    k, p, f_other = 0.7, 1e-3, 4.0
    c, s = 0.8, 0.6
    (eta, xi), (v_eta, v_xi), rate = _kepler_state(e, theta, k, p)
    ns = {"_sqrt": math.sqrt, "_inf": math.inf, "_yp": eta, "_lp": xi,
          "_fp": eta * eta + xi * xi, "_ym": 2.0, "_lm": 0.0, "_fm": f_other,
          "z3": v_xi / c, "z4": v_eta, "z5": 0.0}
    w0 = -k * math.sqrt(f_other)
    exec("\n".join(dynamics._pass_lines((c, s, 1.3), w0, 1e-10, "z", first=True)), {}, ns)
    r_p = p / (1.0 + e)
    assert ns["_d2_p"] == pytest.approx(r_p * r_p, rel=1e-12)
    assert ns["_u_p"] == pytest.approx(r_p * r_p * f_other, rel=1e-12)
    assert ns["_rate_p"] == pytest.approx(rate, rel=1e-12, abs=1e-18)
    assert ns["_u_m"] == ns["_d2_m"] == math.inf


# the factor within which a scan row's min u lies of a DOP853 run at
# rel_tol 1e-13, whose steps shrink near a line; measured 0.90 to 1.6 on
# these 20 ICs
_APPROACH_FACTOR = 2.0


def test_scan_rows_follow_dop853_closest_approach():
    """On the 20 seed-0/1 scan ICs to t = 50 the scan's row minima of u lie
    within _APPROACH_FACTOR of those of a DOP853 run at rel_tol 1e-13
    sampled at t0 and t_end, and each row has its class."""
    config = SimConfig(t_end=50.0, rel_tol=1e-10)
    reference = dataclasses.replace(config, rel_tol=1e-13, sample_interval=config.t_end)
    for seed in (0, 1):
        ics = scan_initial_conditions(seed, 10)
        for ic, row in zip(ics, scan_singularity(config, ics)):
            _, outcome = simulate(reference, PhaseState.make(0.0, *ic))
            assert row[10] == outcome.classification
            if row[10] == "completed":
                ratio = row[8] / outcome.min_u
                assert 1 / _APPROACH_FACTOR < ratio < _APPROACH_FACTOR, (seed, row[0], ratio)


def test_estimated_pass_below_the_floor_is_a_singularity_approach():
    """Seed-1 scan IC 7 passes within the 1e-10 floor between force sites:
    the estimate of that pass, not a force site, ends the run."""
    config = scan_sim_config(SimConfig(t_end=50.0, rel_tol=1e-10))
    _, outcome = simulate(config, PhaseState.make(0.0, *scan_initial_conditions(1, 8)[7]))
    assert outcome.classification == "singularity-approach"
    assert " at the closest approach to line " in outcome.detail
    assert float(outcome.detail.split()[2]) <= config.u_floor < outcome.min_u


# -- the scan -------------------------------------------------------------


def _swap_xz(v):
    return (v[2], v[1], v[0])


def test_mirror_maps_scan_rows_onto_rows_bit_for_bit():
    """(a, x, z) -> (1 - a, z, x) maps each scan row onto the row of the
    mirrored IC: the same E, min u, min d_sing and class, bit for bit."""
    config = SimConfig(t_end=50.0, rel_tol=1e-10)
    ics = scan_initial_conditions(0, 10)
    rows = scan_singularity(config, ics)
    mirror = scan_singularity(dataclasses.replace(config, a=0.75),
                              [(_swap_xz(q), _swap_xz(p)) for q, p in ics])
    for row, image in zip(rows, mirror):
        assert row[0] == image[0] and row[10] == image[10]
        assert _bits(_swap_xz(row[1:4]) + _swap_xz(row[4:7])) == _bits(image[1:7])
        assert _bits(row[7:10]) == _bits(image[7:10])


def test_scan_config_is_regularized_sampled_at_t0_and_t_end():
    """The scan's runs ignore the config's integrator and sample interval
    (tests/test_dynamics.py compares each scan row with its own run)."""
    config = SimConfig(t_end=5.0, sample_interval=0.1, integrator="leapfrog")
    run = scan_sim_config(config)
    assert (run.integrator, run.sample_interval) == ("regularized", 5.0)
    assert dataclasses.replace(run, integrator="leapfrog", sample_interval=0.1) == config
    record, _ = simulate(run, PhaseState.make(0.0, *scan_initial_conditions(0, 1)[0]))
    assert [r[0] for r in record.rows] == [0.0, 5.0]
