"""Numerical integration of Hamilton's equations for V = w0/sqrt(u),
with conservation monitoring and singularity-proximity tracking.

All numeric evaluators are compiled from the exact catalog polynomials
specialized at the chosen (a, b, w0); every term is evaluated in binary64
with compensated summation.  The integrators take an abstract force
callable so they can be validated against closed-form systems (free
particle, isotropic oscillator) independently of the potential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import A, B, COORDS, MOMENTA, PX, PY, PZ, W0, X, Y, Z, Polynomial
from .catalog import (
    ParamDomain,
    _check_param_domain,
    build_context,
    singular_lines,
)
from .radical import SingularPoint


class StepFailure(Exception):
    """Adaptive step size hit its floor."""


class EvaluationOverflow(ValueError):
    """A generated evaluator overflowed binary64 at this state: a monomial
    reached +-inf (``-inf + inf in fsum``) or the sum itself overflowed."""

    def __init__(self, q, exc):
        super().__init__(f"evaluation overflowed at q = {tuple(q)}: {exc}")


def _exact(v) -> Fraction:
    # binary64 inputs are converted exactly; 0.25 -> 1/4 etc.
    return v if isinstance(v, Fraction) else Fraction(v)


_SLOT_NAMES = ("x", "y", "z", "px", "py", "pz")


def _term_exprs(p: Polynomial, order: dict[int, int], powers_used: set) -> str:
    exprs = []
    for e, c in p.sorted_terms():
        factors = [repr(float(c))]
        for i, k in enumerate(e):
            if k:
                if i not in order:
                    raise ValueError(f"unspecialized variable index {i}")
                name = f"{_SLOT_NAMES[order[i]]}_{k}"
                powers_used.add((order[i], k))
                factors.append(name)
        exprs.append("*".join(factors))
    return "(" + ", ".join(exprs) + ("," if len(exprs) == 1 else "") + ")"


def compile_poly_group(polys, variables=(X, Y, Z, PX, PY, PZ)):
    """Generate a function evaluating several polynomials at once.

    Each polynomial is summed term-by-term in binary64 with math.fsum
    (exactly rounded, i.e. stronger than compensated summation); monomial
    powers are shared across the group.  The returned function takes one
    float per variable and returns a tuple of values.
    """
    order = {v: i for i, v in enumerate(variables)}
    powers: set = set()
    bodies = [_term_exprs(p, order, powers) for p in polys]
    args = ", ".join(_SLOT_NAMES[: len(variables)])
    lines = [f"def _eval({args}, _fsum=_fsum):"]
    max_pow: dict[int, int] = {}
    for slot, k in powers:
        max_pow[slot] = max(max_pow.get(slot, 0), k)
    for slot in sorted(max_pow):
        name = _SLOT_NAMES[slot]
        lines.append(f"    {name}_1 = {name}")
        for k in range(2, max_pow[slot] + 1):
            lines.append(f"    {name}_{k} = {name}_{k - 1} * {name}")
    rets = []
    for i, body in enumerate(bodies):
        if body == "()":
            rets.append("0.0")
        else:
            lines.append(f"    _t{i} = _fsum({body})")
            rets.append(f"_t{i}")
    lines.append("    return (" + ", ".join(rets) + ("," if len(rets) == 1 else "") + ")")
    ns = {"_fsum": math.fsum}
    exec("\n".join(lines), ns)
    return ns["_eval"]


class ForceField:
    """Potential, force and u-evaluators for fixed (a, b, w0).

    One fused generated function evaluates u and its gradient together.
    Every call of the force keeps the u it computed in ``last_u``, so a
    caller that knows where the force was last evaluated need not evaluate
    u there again.  The slot is shared by all users of the object: read it
    right after the call, on the calling thread (forked scan workers each
    have their own copy).
    """

    __slots__ = ("w0", "u_floor", "_eval", "last_u")

    def __init__(self, w0, u_floor, fused_eval):
        self.w0 = float(w0)
        self.u_floor = u_floor
        self._eval = fused_eval
        self.last_u = math.nan

    def u(self, q) -> float:
        try:
            return self._eval(q[0], q[1], q[2])[0]
        except (ValueError, OverflowError) as exc:
            raise EvaluationOverflow(q, exc) from exc

    def _u_checked(self, q) -> float:
        q = [float(v) for v in q]
        uval = self.u(q)
        if not math.isfinite(uval):       # e.g. inf * 0.0 in a monomial
            raise EvaluationOverflow(q, f"u = {uval!r}")
        if uval <= self.u_floor:
            raise SingularPoint(f"u = {uval!r} at q = {tuple(q)}")
        return uval

    def potential(self, q) -> float:
        return self.w0 / math.sqrt(self._u_checked(q))

    def __call__(self, q):
        """Force -grad V = (w0/2) u^(-3/2) grad u; u is kept in ``last_u``."""
        try:
            uval, gx, gy, gz = self._eval(q[0], q[1], q[2])
        except (ValueError, OverflowError) as exc:
            raise EvaluationOverflow(q, exc) from exc
        if uval <= self.u_floor:
            raise SingularPoint(f"u = {uval!r} at q = {tuple(q)}")
        self.last_u = uval
        pref = 0.5 * self.w0 * uval**-1.5
        return (pref * gx, pref * gy, pref * gz)


def compile_force(a: float, b: float, w0: float, u_floor: float = 1e-10) -> ForceField:
    _check_param_domain(_exact(a), _exact(b))
    ctx = build_context()
    subs = {A: _exact(a), B: _exact(b)}
    u = ctx.u.specialize(subs)
    fused = compile_poly_group(
        [u] + [u.diff(v) for v in COORDS], variables=(X, Y, Z)
    )
    return ForceField(w0, u_floor, fused)


class IntegralEvaluator:
    """Numeric H, X1, X2 from the exact catalog forms at fixed (a, b, w0)."""

    def __init__(self, a: float, b: float, w0: float):
        ctx = build_context()
        subs = {A: _exact(a), B: _exact(b), W0: _exact(w0)}
        polys = (ctx.u, ctx.H.A, ctx.x1_leading, ctx.m1_numerator, ctx.x2_leading, ctx.m2_numerator)
        self._eval = compile_poly_group([f.specialize(subs) for f in polys])
        self.w0 = float(w0)

    def __call__(self, q, p) -> tuple[float, float, float]:
        try:
            uval, kinetic, x1_lead, m1_num, x2_lead, m2_num = self._eval(
                q[0], q[1], q[2], p[0], p[1], p[2])
        except (ValueError, OverflowError) as exc:
            raise EvaluationOverflow(q, exc) from exc
        if uval <= 0.0:
            raise SingularPoint(f"u = {uval!r} at q = {tuple(q)}")
        rs = 1.0 / math.sqrt(uval)
        return kinetic + self.w0 * rs, x1_lead + m1_num * rs, x2_lead + m2_num * rs


@functools.cache
def compile_system(a, b, w0, u_floor) -> tuple[ForceField, IntegralEvaluator]:
    """Force field and integral evaluator for one parameter set, compiled once per process."""
    return compile_force(a, b, w0, u_floor), IntegralEvaluator(a, b, w0)


# -- integrators -------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)


@dataclass
class PhaseState:
    t: float
    q: np.ndarray
    p: np.ndarray
    # force at q, carried from the step that produced this state so the
    # next step with the same force need not evaluate it again (FSAL);
    # None means unknown
    f: tuple | None = None

    @staticmethod
    def make(t, q, p) -> "PhaseState":
        return PhaseState(float(t), np.asarray(q, dtype=float).copy(),
                          np.asarray(p, dtype=float).copy())


def _dp54_source() -> str:
    """Source of one unrolled Dormand-Prince 5(4) attempt.

    The generated ``_dp54(force, y, f0, h, atol, rtol)`` takes the packed
    state y = (q, p) and the force f0 at q (stage 1), and returns
    (y5, y5 - y4, force at the 7th stage, scaled RMS error).  Every
    weighted stage sum is written out in tableau order from 0.0, zero
    weights included, so the result is bit for bit what summing the
    tableau rows term by term gives.  Because _DP_A[6] == _DP_B5[:6], the
    7th stage state is y5, its force is the 1st stage of the next step,
    and y5 reuses that stage's sum.
    """
    if _DP_A[6] != _DP_B5[:6]:
        raise AssertionError("DP54 tableau is not FSAL")

    def state(s, j):
        return f"y{j}" if s == 0 else f"s{s}_{j}"

    def slope(s, j):                      # k_s[j]: dq/dt = p, dp/dt = force
        return state(s, j + 3) if j < 3 else f"f{s}_{j - 3}"

    def weighted(coeffs, j):
        return " + ".join(["0.0"] + [f"{c!r}*{slope(s, j)}" for s, c in enumerate(coeffs)])

    lines = [
        "def _dp54(force, y, f0, h, atol, rtol):",
        "    y0, y1, y2, y3, y4, y5 = y",
        "    f0_0, f0_1, f0_2 = f0",
    ]
    for s in range(1, 7):
        for j in range(6):
            total = weighted(_DP_A[s], j)
            if s == 6:                    # y5 continues this sum
                lines.append(f"    w{j} = {total}")
                total = f"w{j}"
            lines.append(f"    s{s}_{j} = y{j} + h * ({total})")
        lines.append(f"    f{s} = force(({state(s, 0)}, {state(s, 1)}, {state(s, 2)}))")
        lines.append(f"    f{s}_0, f{s}_1, f{s}_2 = f{s}")
    for j in range(6):
        lines.append(f"    z{j} = y{j} + h * (w{j} + {_DP_B5[6]!r}*{slope(6, j)})")
        lines.append(f"    e{j} = z{j} - (y{j} + h * ({weighted(_DP_B4, j)}))")
        # same as max(abs(y0), abs(y5)): the first unless the second is larger
        lines.append(f"    a{j} = abs(y{j})")
        lines.append(f"    b{j} = abs(z{j})")
        lines.append(f"    r{j} = e{j} / (atol + rtol * (b{j} if b{j} > a{j} else a{j}))")
    zs = ", ".join(f"z{j}" for j in range(6))
    es = ", ".join(f"e{j}" for j in range(6))
    acc = " + ".join(["0.0"] + [f"r{j}**2" for j in range(6)])
    lines.append(f"    return ({zs}), ({es}), f6, _sqrt(({acc}) / 6.0)")
    return "\n".join(lines)


@functools.cache
def _dp54_kernel():
    """The generated DP54 attempt, compiled on first use so that importing
    the package does not pay for it."""
    ns = {"_sqrt": math.sqrt}
    exec(_dp54_source(), ns)
    return ns["_dp54"]


def dp54_step(force, y0, h: float):
    """One raw Dormand-Prince 5(4) step from the packed state y0 = (q, p).

    Returns (y5, error_estimate) where the estimate is the difference
    between the 5th- and embedded 4th-order solutions (scales as h^5).
    States are 6-tuples of floats.
    """
    y0 = tuple(y0)
    y5, err, _, _ = _dp54_kernel()(force, y0, force(y0[:3]), h, 1.0, 1.0)
    return y5, err


class AdaptiveStepper:
    """Embedded Runge-Kutta 5(4) with proportional-integral step control.

    ``rejected`` counts rejected attempts and ``floor_accepted`` the
    attempts accepted at the step-size floor with an error above 1.
    """

    def __init__(self, force, rel_tol=1e-12, abs_tol=1e-14,
                 h_init=1e-3, h_min=1e-12, h_max=1.0, safety=0.9):
        self.force = force
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.h = h_init
        self.h_min = h_min
        self.h_max = h_max
        self.safety = safety
        self._err_prev = 1.0
        self._attempt = _dp54_kernel()
        self.rejected = 0
        self.floor_accepted = 0

    def step(self, state: PhaseState, h_cap: float | None = None):
        """Advance one accepted step; returns (state', h_used, err), where err
        is the controller's scaled RMS error (a non-finite one at the floor
        raises StepFailure).  The new state carries the force at its q
        (FSAL), so a step from it costs 6 force evaluations per attempt, not 7.

        When it returns, the last force call was the 7th stage of the
        accepted attempt, which is at the new state's q: a ForceField's
        ``last_u`` is u there.
        """
        y0 = state.q.tolist() + state.p.tolist()
        f0 = state.f
        while True:
            h = self.h if h_cap is None else min(self.h, h_cap)
            if h < self.h_min:
                raise StepFailure(f"step size {h:g} below floor {self.h_min:g}")
            if f0 is None:
                f0 = self.force(y0[:3])
            y5, _, f5, err = self._attempt(self.force, y0, f0, h,
                                           self.abs_tol, self.rel_tol)
            if err <= 1.0 or h <= self.h_min and math.isfinite(err):
                if err > 1.0:
                    self.floor_accepted += 1
                # PI controller (Gustafsson): orders 0.7/5 and 0.4/5
                e = max(err, 1e-10)
                factor = self.safety * e**-0.14 * self._err_prev**0.08
                self._err_prev = e
                self.h = min(max(self.h * min(max(factor, 0.2), 5.0), self.h_min),
                             self.h_max)
                new = PhaseState(state.t + h, np.array(y5[:3]), np.array(y5[3:]), f5)
                return new, h, err
            if h <= self.h_min:
                raise StepFailure(f"error estimate {err!r} at the step size floor {h:g}")
            self.rejected += 1
            self.h = max(h * max(0.2, self.safety * err**-0.2), self.h_min)
            if self.h >= h and h_cap is None:
                self.h = 0.5 * h


def step_leapfrog(state: PhaseState, h: float, force) -> PhaseState:
    """One velocity-Verlet (kick-drift-kick) step; symplectic, reversible.

    The start-of-step force comes from ``state.f`` when set, and the new
    state carries its end-of-step force, so a run costs one force
    evaluation per step.  When it returns, the last force call was at the
    new state's q: a ForceField's ``last_u`` is u there.

    The arithmetic is on Python floats, component by component in the
    order of the array form ``p + (0.5*h)*f``, ``q + h*p``, so the bits
    are those of the numpy kick-drift-kick.
    """
    x, y, z = state.q.tolist()
    px, py, pz = state.p.tolist()
    f0 = state.f if state.f is not None else force((x, y, z))
    kick = 0.5 * h
    px = px + kick * f0[0]
    py = py + kick * f0[1]
    pz = pz + kick * f0[2]
    x = x + h * px
    y = y + h * py
    z = z + h * pz
    f1 = force((x, y, z))
    px = px + kick * f1[0]
    py = py + kick * f1[1]
    pz = pz + kick * f1[2]
    return PhaseState(state.t + h, np.array((x, y, z)), np.array((px, py, pz)), f1)


# -- simulation harness ------------------------------------------------


INTEGRATORS = ("adaptive", "leapfrog")


@dataclass
class SimConfig:
    a: float = 0.25
    b: float = 1.0
    w0: float = -1.0
    integrator: str = "adaptive"          # "adaptive" | "leapfrog"
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    fixed_step: float = 1e-3              # leapfrog only
    t_end: float = 100.0
    u_floor: float = 1e-10
    r_max: float = 1e3
    sample_interval: float = 1.0

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; "
                             f"expected one of {', '.join(INTEGRATORS)}")
        for name in ("rel_tol", "abs_tol", "fixed_step", "t_end", "sample_interval", "r_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.u_floor) and self.u_floor >= 0):
            raise ValueError(f"u_floor must be finite and non-negative, got {self.u_floor!r}")
        _check_param_domain(_exact(self.a), _exact(self.b))


TRAJECTORY_HEADER = "t,x,y,z,px,py,pz,H,X1,X2,u,d_sing"


@dataclass
class TrajectoryRecord:
    rows: list[tuple]                      # matches TRAJECTORY_HEADER

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @staticmethod
    def read_csv(path) -> "TrajectoryRecord":
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != TRAJECTORY_HEADER:
                raise ValueError(f"malformed trajectory header: {header!r}")
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(tuple(float(v) for v in line.split(",")))
        return TrajectoryRecord(rows)


@dataclass
class RunOutcome:
    classification: str                    # completed | singularity-approach | escape | step-failure
    drift_H: float
    drift_X1: float
    drift_X2: float
    min_u: float
    max_q: float
    t_final: float
    detail: str = ""
    steps: int = 0                         # accepted steps
    rejected: int = 0                      # rejected DP54 attempts
    floor_accepted: int = 0                # DP54 steps accepted at h_min with error > 1


@functools.cache
def _line_frames(a: float, b: float):
    """(point, unit direction) of each singular line as float arrays."""
    frames = []
    for line in singular_lines(a, b):
        d = np.array([float(v) for v in line.direction])
        frames.append((np.array([float(v) for v in line.point]), d / np.linalg.norm(d)))
    return tuple(frames)


def distance_to_singular_lines(q, a: float, b: float) -> float:
    """Minimum Euclidean distance from q to the two singular lines."""
    best = math.inf
    q = np.asarray(q, dtype=float)
    for p0, d in _line_frames(float(a), float(b)):
        r = q - p0
        perp = r - np.dot(r, d) * d
        best = min(best, float(np.linalg.norm(perp)))
    return best


def _rel_drift(val: float, ref: float) -> float:
    return abs(val - ref) / max(abs(ref), 1e-3)


def _norm_check(max_q: float) -> float:
    """The |q| estimate at and above which np.linalg.norm must decide max_q.

    math.hypot and the norm's BLAS dot differ by a few ulps, far inside
    1e-12; below |q| ~ 1e-140 the norm's squares lose precision to
    underflow, so there every step is checked.
    """
    return max_q * (1.0 - 1e-12) if max_q > 1e-140 else 0.0


def simulate(config: SimConfig, initial: PhaseState):
    """Integrate to t_end or a stop condition, sampling conserved quantities.

    Failures are classified in the returned RunOutcome, not raised, except
    for a non-finite initial condition or one whose evaluation overflows
    (ValueError), or one already inside the singularity cutoff
    (SingularPoint).  An evaluation that overflows mid-run is classified
    ``step-failure``.
    """
    if not (np.isfinite(initial.q).all() and np.isfinite(initial.p).all()):
        raise ValueError(f"non-finite initial state q = {initial.q}, p = {initial.p}")
    force, integrals = compile_system(config.a, config.b, config.w0, config.u_floor)
    u0 = force._u_checked(initial.q)  # reject ICs on/near the singular lines

    def sample_row(st: PhaseState, uval: float):
        q, p = st.q.tolist(), st.p.tolist()
        h, x1, x2 = integrals(q, p)
        ds = distance_to_singular_lines(st.q, config.a, config.b)
        return (st.t, *q, *p, h, x1, x2, uval, ds)

    stepper = None
    if config.integrator == "leapfrog":
        def advance(st: PhaseState, cap: float) -> PhaseState:
            return step_leapfrog(st, min(config.fixed_step, cap), force)
    else:
        stepper = AdaptiveStepper(force, config.rel_tol, config.abs_tol)

        def advance(st: PhaseState, cap: float) -> PhaseState:
            return stepper.step(st, h_cap=cap)[0]

    rows = [sample_row(initial, u0)]
    h0, x10, x20 = rows[0][7], rows[0][8], rows[0][9]
    min_u = rows[0][10]
    max_q = float(np.linalg.norm(initial.q))
    q_check = _norm_check(max_q)
    drift = [0.0, 0.0, 0.0]

    state = initial
    steps = 0
    next_sample = initial.t + config.sample_interval
    classification = "completed"
    detail = ""
    try:
        while state.t < config.t_end - 1e-12:
            state = advance(state, min(next_sample, config.t_end) - state.t)
            steps += 1
            # both integrators end a step with a force call at state.q
            uval = force.last_u
            min_u = min(min_u, uval)
            if math.hypot(*state.q.tolist()) >= q_check:
                max_q = max(max_q, float(np.linalg.norm(state.q)))
                q_check = _norm_check(max_q)
            if max_q > config.r_max:
                classification = "escape"
                detail = f"|q| = {max_q:.3g} exceeded r_max at t = {state.t:.6g}"
                break
            if state.t >= next_sample - 1e-12:
                row = sample_row(state, uval)
                rows.append(row)
                drift[0] = max(drift[0], _rel_drift(row[7], h0))
                drift[1] = max(drift[1], _rel_drift(row[8], x10))
                drift[2] = max(drift[2], _rel_drift(row[9], x20))
                next_sample += config.sample_interval
    except SingularPoint as exc:
        classification = "singularity-approach"
        detail = str(exc)
    except (StepFailure, EvaluationOverflow) as exc:
        classification = "step-failure"
        detail = str(exc)

    outcome = RunOutcome(
        classification=classification,
        drift_H=drift[0], drift_X1=drift[1], drift_X2=drift[2],
        min_u=min_u, max_q=max_q, t_final=state.t, detail=detail,
        steps=steps,
        rejected=stepper.rejected if stepper else 0,
        floor_accepted=stepper.floor_accepted if stepper else 0,
    )
    return TrajectoryRecord(rows), outcome


SCAN_HEADER = "idx,x0,y0,z0,px0,py0,pz0,E,min_u,min_dsing,class"


def _scan_one(config: SimConfig, idx: int, ic):
    q0, p0 = ic
    state = PhaseState.make(0.0, q0, p0)
    record, outcome = simulate(config, state)
    min_dsing = min(row[11] for row in record.rows)
    return (
        idx, *state.q, *state.p, record.rows[0][7],
        outcome.min_u, min_dsing, outcome.classification,
    )


def scan_singularity(config: SimConfig, initial_conditions, jobs: int = 1):
    """Batch simulations probing approach to the singular lines (w0 < 0).

    Purely exploratory: reports min u and min singular-line distance per
    run, with no claim about reachability.  Rows are ordered by input
    index regardless of completion order.
    """
    if config.w0 >= 0:
        raise ParamDomain("singularity scan requires w0 < 0")
    ics = list(initial_conditions)
    # compiled here once, so forked workers inherit it
    compile_system(config.a, config.b, config.w0, config.u_floor)
    if jobs > 1 and len(ics) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_scan_one, config, idx, ic)
                for idx, ic in enumerate(ics)
            ]
            return [f.result() for f in futures]
    return [_scan_one(config, idx, ic) for idx, ic in enumerate(ics)]


def write_scan_csv(table, path):
    with open(path, "w") as fh:
        fh.write(SCAN_HEADER + "\n")
        for row in table:
            fields = [str(row[0])]
            fields += [f"{v:.17g}" for v in row[1:10]]
            fields.append(row[10])
            fh.write(",".join(fields) + "\n")
