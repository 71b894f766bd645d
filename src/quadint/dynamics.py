"""Numerical integration of Hamilton's equations for V = w0/sqrt(u),
with conservation monitoring and singularity-proximity tracking.

u and its gradient are evaluated in factored form: u = F+ F-, where
F+- = (y -+ k)^2 + (c x +- s z)^2 is the squared distance to singular
line +-, with c = sqrt(1-a), s = sqrt(a) and k = 3 sqrt(a(1-a)) b
(catalog.line_constants).  Near a
line this keeps the digits that summing the expanded quartic cancels away
(tests/test_catalog.py checks the identity exactly).  One generated block
gives u, and one force site (_force_site) checks u, adds grad u and gives
the force: the force field and ``simulate``'s inlined kernels compile it,
and the integral evaluator its u-only part (_u_site), so they share one
force law and its guards on u, and use the same u, bit for bit.  The
squared distance to the nearer line, d2 = min(F+, F-), is not bound at
the site: the run kernels bind it once per accepted step, from the step's
last site.  Every constant of the generated code is a literal of its
source: c, s, k, w0, the floor and cut on u, the tableau weights and the
step controller's H_INIT, H_MIN, H_MAX and SAFETY.  The rest of H, X1, X2
is compiled from the exact catalog polynomials and summed with
math.fsum.  The adaptive integrator is the Dormand-Prince 8(5,3) pair
(DOP853); the Dormand-Prince 5(4) pair serves ``dp54_step`` as the
order-5 oracle.  Both pairs are tableau records, from which one generator
writes an attempt in Nystrom form: since q'' = F(q), a stage position
needs only p and the earlier forces, through tables that each record
derives once (c = A 1, A A and E A), so no stage momentum is formed.
h^2 and h p are formed once per attempt, so a stage position is
y + (c hp + h^2 (A A) F); a table entry at the rounding level of the
stored doubles is 0.0 (the zero rule of _Tableau), so its terms are not
written; every error row is a row of difference weights E = B - B', so
an estimate is formed directly and not as the difference of two
solutions; and DOP853's 3rd-order momentum estimate is the solution's
momentum increment less h BHH F, as in Hairer's code.  The per-step
integrators take an abstract force
callable so they can be validated against closed-form systems (free
particle, isotropic oscillator) independently of the potential;
``simulate`` runs the same generated step code with the factored force
inlined, in one kernel call per run that owns the sample loop and calls
back for each sample row, and takes min u, min distance to a line and max
|q| over every accepted step.  A kernel reads its run settings from the
SimConfig it is called with, and is compiled on its first run.  Each
integrator is one entry of INTEGRATORS, which the kernel generator and
simulate's step budget read.  The step controller is proportional-integral,
and after a rejection predictive (Gustafsson), until it predicts growth;
see _adaptive_step_lines.  The adaptive kernels also end a run whose
attempts reach MAX_STEPS.

For w0 < 0 the regularized integrator (_regularized_step_lines) is the
logarithmic-Hamiltonian leapfrog, whose time transform dt = ds / (T + B),
B = -E0, follows a pass near a singular line, where V is about -k/d, in
a few steps of fictitious time; each attempt extrapolates it over 2, 4,
..., 12 substeps in h^2 (Gragg-Bulirsch-Stoer), and the step lands on a
sample time by an aimed attempt and a closing DOP853 attempt in physical
time.  Its kick is p -= (h/u) g, h F / U with U = -V, which needs no
u^(-3/2).  Its long steps step over a close pass, so min u and min d2
also take the pass's closest approach, estimated from the two-body
motion across the nearer line.  ``scan_singularity`` runs every IC on it.

Portability: no record field depends on a BLAS kernel.  The block and
the integrators are plain IEEE arithmetic, sqrt is correctly rounded, and
math.fsum and math.hypot are CPython's own code; the force takes
u^(-3/2) as 1 / (u sqrt(u)), and the predictive factor's 1/8 power is
three square roots.  Only the exponents of the PI and rejection factors,
``**-0.0875``, ``**0.05`` and ``**-0.125``, and the regularized
controller's ``**(1/11)`` still go through the C library's ``pow``, so
adaptive and regularized records are bit-identical across hosts only
where that ``pow`` agrees.

States are Python floats: PhaseState's q and p are Vec3s, 3-tuples whose
``@`` is the dot product.  numpy is imported only by
scan_initial_conditions, whose draw is numpy's seeded PCG64 stream.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import A, B, PX, PY, PZ, VARS, W0, X, Y, Z, Polynomial
from .catalog import ParamDomain, _check_param_domain, build_context, line_constants
from .radical import SingularPoint


class StepFailure(Exception):
    """No step can be taken: the adaptive step size hit its floor, or a
    step does not advance t."""


class EvaluationOverflow(ValueError):
    """A generated evaluator overflowed binary64 at this state: u is not
    finite, u^(-3/2) would overflow (u <= U_POW_MIN), or a monomial of an
    integral reached +-inf (``-inf + inf in fsum``) or their sum overflowed."""

    def __init__(self, q, exc):
        super().__init__(f"evaluation overflowed at q = {tuple(q)}: {exc}")
        self._made_from = (tuple(q), exc)

    def __reduce__(self):
        # rebuilt from its own arguments, so that a scan's worker can send it
        return type(self), self._made_from


_SLOT_NAMES = ("x", "y", "z", "px", "py", "pz")


def _term_exprs(p: Polynomial, order: dict[int, int], powers_used: set) -> str:
    exprs = []
    for e, c in p.sorted_terms():
        try:
            factors = [repr(float(c))]
        except OverflowError:
            mono = "*".join(f"{VARS[i]}^{k}" for i, k in enumerate(e) if k) or "1"
            n, d = c.as_integer_ratio()
            exponent = math.floor(math.log10(abs(n)) - math.log10(d))
            raise ValueError(f"the specialised coefficient of {mono}, about 1e{exponent}, "
                             "is not a finite double") from None
        for i, k in enumerate(e):
            if k:
                if i not in order:
                    raise ValueError(f"unspecialized variable index {i}")
                name = f"_{_SLOT_NAMES[order[i]]}{k}"
                powers_used.add((order[i], k))
                factors.append(name)
        exprs.append("*".join(factors))
    return "(" + ", ".join(exprs) + ("," if len(exprs) == 1 else "") + ")"


def _compile(lines, name):
    """Execute generated source and return the function ``name`` it defines."""
    ns = {
        "_fsum": math.fsum, "_sqrt": math.sqrt, "_hypot": math.hypot,
        "_isfinite": math.isfinite, "_inf": math.inf, "_nan": math.nan, "_Vec3": Vec3,
        "_PhaseState": PhaseState, "_StepFailure": StepFailure,
        "_SingularPoint": SingularPoint, "_EvaluationOverflow": EvaluationOverflow,
        "_q2_guard": _q2_guard,
    }
    exec(compile("\n".join(lines), f"<generated {name}>", "exec"), ns)
    return ns[name]


def _indent(lines, depth=1):
    return ["    " * depth + line for line in lines]


def compile_poly_group(polys):
    """Generate a function evaluating several polynomials in (x, y, z, px,
    py, pz) at once.

    The returned function takes one float per variable and returns a tuple
    of values.  Each polynomial is summed term-by-term in binary64 with
    ``_fsum`` (math.fsum: exactly rounded, i.e. stronger than compensated
    summation); monomial powers are shared across the group.
    """
    order = {v: i for i, v in enumerate((X, Y, Z, PX, PY, PZ))}
    powers: set = set()
    bodies = [_term_exprs(p, order, powers) for p in polys]
    max_pow: dict[int, int] = {}
    for slot, k in powers:
        max_pow[slot] = max(max_pow.get(slot, 0), k)
    lines = [f"def _eval({', '.join(_SLOT_NAMES)}, _fsum=_fsum):"]
    for slot in sorted(max_pow):
        name = _SLOT_NAMES[slot]
        lines.append(f"    _{name}1 = {name}")
        for k in range(2, max_pow[slot] + 1):
            lines.append(f"    _{name}{k} = _{name}{k - 1} * {name}")
    outs = [f"_t{i}" for i in range(len(polys))]
    for out, body in zip(outs, bodies):
        lines.append(f"    {out} = " + ("0.0" if body == "()" else f"_fsum({body})"))
    lines.append("    return (" + ", ".join(outs) + ("," if len(outs) == 1 else "") + ")")
    return _compile(lines, "_eval")


def _factored_lines(q, line_constants) -> list[str]:
    """Source lines that set u, _fp and _fm at the point q (three
    expressions), for ``line_constants`` = (c, s, k): u = F+ F- with
    F+- = (y -+ k)^2 + (c x +- s z)^2 (_fp, _fm).  The squared distance to
    the nearer singular line, d2 = min(F+, F-), is the line _D2_LINE, which
    a caller appends where it reads d2: the run kernels once per accepted
    step, not at every stage.  _gradient_lines continue them to grad u.
    """
    x, y, z = q
    c, s, k = (repr(v) for v in line_constants)
    return [
        f"_cx = {c} * {x}",
        f"_sz = {s} * {z}",
        "_lp = _cx + _sz",
        "_lm = _cx - _sz",
        f"_yp = {y} - {k}",
        f"_ym = {y} + {k}",
        "_fp = _yp * _yp + _lp * _lp",
        "_fm = _ym * _ym + _lm * _lm",
        "u = _fp * _fm",
    ]


def _gradient_lines(line_constants) -> list[str]:
    """Source lines that set g0, g1, g2 after _factored_lines: grad u =
    2 (g0, g1, g2) from grad u = F- grad F+ + F+ grad F-, whose x- and
    z-components share the products F- (c x + s z) and F+ (c x - s z).  On
    the x- and z-axes F+ == F- bit for bit, so the transverse components of
    g are exactly 0.0."""
    c, s, _ = (repr(v) for v in line_constants)
    return [
        "_mp = _fm * _lp",
        "_pm = _fp * _lm",
        f"g0 = {c} * (_mp + _pm)",
        "g1 = _fm * _yp + _fp * _ym",
        f"g2 = {s} * (_mp - _pm)",
    ]


# d2 = min(F+, F-) from the last _factored_lines run
_D2_LINE = "d2 = _fp if _fp < _fm else _fm"


@functools.cache
def _factored_block(a, b):
    """The line constants (c, s, k) of (a, b), from catalog.line_constants,
    which also gives the plotted singular lines, and _factored_lines
    compiled as ``_eval(x, y, z)`` returning (u, d2); computed once per
    process for each (a, b)."""
    consts = line_constants(a, b)
    body = [*_factored_lines(("x", "y", "z"), consts), _D2_LINE]
    return consts, _compile(["def _eval(x, y, z):", *_indent(body), "    return u, d2"], "_eval")


# u^(-3/2) overflows binary64 for u below DBL_MAX**(-2/3) ~ 3.14e-206, and
# u * sqrt(u) is subnormal a little above that; at 1e-200 it is 1e-300,
# normal, and its inverse finite
U_POW_MIN = 1e-200


def _u_site(q, line_constants, u_floor, u_cut) -> list[str]:
    """Lines that bind u, _fp and _fm (not d2; see _D2_LINE) at the point q
    (three expressions) from the factored block at ``line_constants``, and
    raise EvaluationOverflow if u is not finite, SingularPoint if
    u <= u_floor, and EvaluationOverflow if u_floor < u <= u_cut (lines
    written only where the cut is above the floor)."""
    point = f"({', '.join(q)})"
    singular = [f"if u <= {u_floor!r}:",
                f'    raise _SingularPoint(f"u = {{u!r}} at q = {{{point}}}")']
    if u_cut > u_floor:
        singular = [f"if u <= {u_cut!r}:", *_indent(singular),
                    f'    raise _EvaluationOverflow({point}, f"u = {{u!r}}: u**-1.5 overflows")']
    return [
        *_factored_lines(q, line_constants),
        "if not u < _inf:",
        f'    raise _EvaluationOverflow({point}, f"u = {{u!r}}")',
        *singular,
    ]


def _force_site(line_constants, w0, u_floor):
    """``site(q, f)``: the lines of _u_site at the point q, with the floor
    ``u_floor`` and the cut max(u_floor, U_POW_MIN), below which u^(-3/2)
    could overflow, then _gradient_lines, and f_0, f_1, f_2 bound to the force
    (w0/2) u^(-3/2) grad u, with u^(-3/2) as 1 / (u sqrt(u)), which needs
    no libm pow.  w0, the floor and the cut are literals of the lines."""
    w0, u_floor = float(w0), float(u_floor)
    u_cut = max(u_floor, U_POW_MIN)

    def site(q, f: str = "f") -> list[str]:
        return [*_u_site(q, line_constants, u_floor, u_cut),
                *_gradient_lines(line_constants),
                f"pref = {w0!r} / (u * _sqrt(u))",
                *(f"{f}_{j} = pref * g{j}" for j in range(3))]
    return site


class ForceField:
    """Potential, force and u-evaluators for fixed (a, b, w0).

    ``_eval`` is the factored block of _factored_lines at
    ``line_constants``, unchecked.  ``_at(x, y, z)`` is _force_site
    compiled on its own: it returns (force, u, d2) at q, or raises what a
    force site of the kernels raises there, with the same text.
    """

    __slots__ = ("w0", "u_floor", "line_constants", "_eval", "_at")

    def __init__(self, w0, u_floor, line_constants, evaluate):
        self.w0 = float(w0)
        self.u_floor = u_floor
        self.line_constants = line_constants
        self._eval = evaluate
        self._at = _compile(["def _at(x, y, z):",
                             *_indent(_force_site(line_constants, w0, u_floor)(("x", "y", "z"))),
                             f"    {_D2_LINE}",
                             "    return (f_0, f_1, f_2), u, d2"], "_at")

    def u(self, q) -> float:
        return self._eval(q[0], q[1], q[2])[0]

    def potential(self, q) -> float:
        return self.w0 / math.sqrt(self._at(float(q[0]), float(q[1]), float(q[2]))[1])

    def __call__(self, q):
        """Force -grad V = (w0/2) u^(-3/2) grad u."""
        return self._at(q[0], q[1], q[2])[0]


def compile_force(a: float, b: float, w0: float, u_floor: float = 1e-10) -> ForceField:
    return ForceField(w0, u_floor, *_factored_block(a, b))


class IntegralEvaluator:
    """Numeric H, X1, X2 at fixed (a, b, w0): u from the factored block,
    the rest from the exact catalog forms."""

    def __init__(self, a: float, b: float, w0: float):
        ctx = build_context()
        subs = {A: Fraction(a), B: Fraction(b), W0: Fraction(w0)}  # binary64 -> exact
        polys = (ctx.H.A, ctx.x1_leading, ctx.m1_numerator, ctx.x2_leading, ctx.m2_numerator)
        self._eval = compile_poly_group([f.specialize(subs) for f in polys])
        # u checked as at a force site, with floor and cut 0.0: sqrt(u)
        # does not overflow, so u needs no cut above the floor
        site = _u_site(("x", "y", "z"), _factored_block(a, b)[0], 0.0, 0.0)
        self._u = _compile(["def _u(x, y, z):", *_indent(site), "    return u"], "_u")
        self.w0 = float(w0)

    def __call__(self, q, p) -> tuple[float, float, float]:
        uval = self._u(q[0], q[1], q[2])
        try:
            kinetic, x1_lead, m1_num, x2_lead, m2_num = self._eval(
                q[0], q[1], q[2], p[0], p[1], p[2])
        except (ValueError, OverflowError) as exc:
            raise EvaluationOverflow(q, exc) from exc
        rs = 1.0 / math.sqrt(uval)
        return kinetic + self.w0 * rs, x1_lead + m1_num * rs, x2_lead + m2_num * rs


# -- integrators -------------------------------------------------------

# the zero rule of _Tableau's derived tables: an entry whose exact value is
# at most this share of the sum of its terms' magnitudes is 0.0
_ZERO_SHARE = Fraction(1, 2**50)


def _rounded(terms: list) -> float:
    """The exact sum of ``terms`` (Fractions) rounded once, or 0.0 if it is
    at most _ZERO_SHARE of the sum of their magnitudes.  The stored doubles
    are the exact weights to 2^-53 relative, so a sum of their products is
    the exact weights' to about 2^-52 of that magnitude; an entry within
    4 times that is the stored doubles' rounding, not a weight of the
    method (sum E of every error row is 0 for the exact weights)."""
    exact = sum(terms)
    return 0.0 if abs(exact) <= _ZERO_SHARE * sum(map(abs, terms)) else float(exact)


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An explicit embedded Runge-Kutta pair as the attempt generator reads it.

    ``rows[s]`` holds the weights of stage s on stages 0..s-1 (``rows[0]``
    is empty), and the last row is the solution's: the last stage is
    evaluated at the solution, so its force is the first stage of the next
    step (FSAL, first same as last).  Each ``error`` row holds difference
    weights E = B - B' of the solution's weights B and a lower-order
    solution's B', so that its error estimate is h sum_k E_k K_k over the
    stage slopes K_k, as Hairer's DOPRI5 and DOP853 store them: DP54 has one row, against its
    embedded 4th-order solution; DOP853 has two, E5 and E3, whose 5th- and
    3rd-order estimates Hairer's error norm blends.  ``order`` is the order
    that sets the step controller's exponents.
    ``nodes``, ``rows2``, ``error_sums``, ``error_rows`` and ``bhh`` are the
    tables of the attempt's Nystrom form (_attempt_lines), each entry
    computed exactly in Fraction from the stored doubles and rounded once
    by _rounded, which sets the entries at the rounding level to 0.0: for
    DOP853 ``rows2[12][3]``, ``rows2[12][4]`` and both ``error_sums``, for
    DP54 ``rows2[6][1]``, ``error_sums[0]`` and ``error_rows[0][1]``.
    """

    rows: tuple
    error: tuple
    order: int

    @property
    def last(self) -> int:
        """The last stage, which is also the number of force evaluations of
        an attempt."""
        return len(self.rows) - 1

    def _times_a(self, weights) -> tuple:
        # the row vector w A, exact, each entry rounded once
        a = [[Fraction(c) for c in row] for row in self.rows]
        w = [Fraction(c) for c in weights]
        return tuple(_rounded([w[j] * a[j][k] for j in range(k + 1, len(w))])
                     for k in range(len(w) - 1))

    @functools.cached_property
    def nodes(self) -> tuple:
        """c_s = sum_j a_sj over the weights a_sj of ``rows[s]``: the time of
        stage s in units of h."""
        return tuple(_rounded(list(map(Fraction, row))) for row in self.rows)

    @functools.cached_property
    def rows2(self) -> tuple:
        """The rows of A A: the weights of stage s's position on the forces."""
        return tuple(map(self._times_a, self.rows))

    @functools.cached_property
    def error_sums(self) -> tuple:
        """sum E of each error row E: its position error's weight on p."""
        return tuple(_rounded(list(map(Fraction, row))) for row in self.error)

    @functools.cached_property
    def error_rows(self) -> tuple:
        """E A of each error row E: its position error's weights on the forces."""
        return tuple(map(self._times_a, self.error))

    @functools.cached_property
    def bhh(self) -> tuple:
        """B - E for the solution's weights B and the last error row E: the
        weights of the lower-order solution that E compares with (Hairer's
        BHH, for E3), whose momentum error is then the solution's increment
        less h (BHH . F)."""
        return tuple(_rounded([Fraction(b), -Fraction(e)])
                     for b, e in zip(self.rows[-1], self.error[-1]))


# Dormand-Prince 5(4): the order-5 oracle of dp54_step; error weights
# E = B - B' of the 5th-order solution B and the embedded 4th-order B'
DP54 = _Tableau(
    rows=(
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ),
    error=((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),),
    order=5,
)

# Dormand-Prince 8(5,3), the pair of the adaptive integrator (simulate's
# kernel and AdaptiveStepper): the first 12 stages of Hairer's DOP853
# (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10; Prince &
# Dormand 1981) and its solution as the 13th (FSAL); error weights E5 and
# E3 = B - BHH
DOP853 = _Tableau(
    rows=(
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636),
        (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259),
    ),
    error=(
        (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
         1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
         -0.022355307863886294),
        (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
         0.02265179219836082),
    ),
    order=8,
)


class Vec3(tuple):
    """A 3-vector of Python floats, as a tuple; ``v @ w`` is the dot
    product."""

    __slots__ = ()

    def __matmul__(self, other):
        return self[0] * other[0] + self[1] * other[1] + self[2] * other[2]


@dataclass
class PhaseState:
    t: float
    q: Vec3
    p: Vec3
    # force at q, carried from the step that produced this state so the
    # next step with the same force need not evaluate it again (FSAL);
    # None means unknown
    f: tuple | None = None

    @staticmethod
    def make(t, q, p) -> "PhaseState":
        """The state of t, q and p as Python floats.  A t or a component
        that is not a number, or a scalar q or p, is a ValueError;
        simulate rejects a q or p of other than 3 components."""
        try:
            return PhaseState(float(t), Vec3(map(float, q)), Vec3(map(float, p)))
        except TypeError:
            raise ValueError(f"a state is a number t and q and p of 3 components each, "
                             f"got t = {t!r}, q = {q!r}, p = {p!r}") from None


# -- generated integrator source -----------------------------------------
#
# The embedded Runge-Kutta attempt of a tableau record, the adaptive step
# controller and the velocity-Verlet step are each emitted by one function
# below, around a force site: either a call ``force((x, y, z))`` of any
# force callable, which gives the per-step API (dp54_step,
# AdaptiveStepper.step, step_leapfrog), or _force_site inlined, which gives
# the run kernels that simulate calls.  In the emitted code, t is the time
# and y0..y5 the state (q, p) of the last accepted step, and f0_0..f0_2 the
# force at its q; a step leaves its result in the same names.


# the step-size controller's initial step, floor, ceiling and safety
# factor, literals of the generated adaptive steps
H_INIT, H_MIN, H_MAX, SAFETY = 1e-3, 1e-12, 1.0, 0.9


def _call_site(q, f: str) -> list[str]:
    """Force at the point q (three expressions) by a call of ``force``:
    binds f to the returned object and f_0, f_1, f_2 to its components."""
    return [f"{f}_0, {f}_1, {f}_2 = {f} = force(({', '.join(q)}))"]


def _attempt_lines(tableau: _Tableau, site) -> list[str]:
    """One attempt of ``tableau`` with step h from y0..y5 and the stage-0
    force f0_*, in Nystrom form: sets z0..z5 (the solution, whose position
    is the last stage's), f<n>_* (the force of the last stage n, at z) and
    e0..e5 (the error estimate of the first error row), and where the record
    has a second error row, l0..l5 (Hairer's 3rd-order estimate).

    The Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, II.14) is
    the method with the stage momenta P_s = p + h sum_k a_sk F_k
    substituted, which q'' = F(q) allows.  With hh = h^2 and hp = h p
    formed once per attempt, each stage position is
    y + (c_s hp + hh sum_k (A A)_sk F_k), and only the solution's momentum
    is formed, as p + dp with the increment dp = h sum_k b_k F_k.  A
    position error of weights E is sum E hp + hh sum_k (E A)_k F_k, whose
    first term the zero rule of _Tableau drops (sum E is 0 for the exact
    weights), and a momentum error h sum_k E_k F_k; the 3rd-order momentum
    error is dp - h sum_k BHH_k F_k, as in Hairer's DOP853 (BHH = B - E3,
    nonzero on 3 stages, against 8 of E3).  Every weighted sum is written
    out in stage order from its first nonzero term, so the result is bit
    for bit what summing those terms in a loop gives.  The forces are not
    scaled by h, so a force site gives the force itself.
    """
    last = tableau.last

    def position(s, j):
        return f"z{j}" if s == last else f"s{s}_{j}"

    def forces(weights, j):
        return " + ".join(f"{c!r}*f{s}_{j}" for s, c in enumerate(weights) if c)

    def displacement(total, weights_a, j):
        # h sum_s w_s P_s[j] for weights w with sum total and w A = weights_a
        parts = [f"hp{j}" if total == 1.0 else f"{total!r}*hp{j}"] if total else []
        inner = forces(weights_a, j)
        if inner:
            parts.append(f"hh*({inner})")
        return " + ".join(parts)

    def error(i, j):
        if j < 3:
            return displacement(tableau.error_sums[i], tableau.error_rows[i], j)
        return f"h * ({forces(tableau.error[i], j - 3)})"

    lines = ["hh = h * h", *(f"hp{j} = h * y{j + 3}" for j in range(3))]
    for s in range(1, last + 1):
        lines += [f"{position(s, j)} = y{j} + ("
                  f"{displacement(tableau.nodes[s], tableau.rows2[s], j)})" for j in range(3)]
        lines += site([position(s, j) for j in range(3)], f"f{s}")
    # dp, not d: d2 is the kernels' squared distance to a line
    lines += [f"dp{j} = h * ({forces(tableau.rows[last], j)})" for j in range(3)]
    lines += [f"z{j + 3} = y{j + 3} + dp{j}" for j in range(3)]
    for j in range(6):
        lines.append(f"e{j} = {error(0, j)}")
        if len(tableau.error) > 1:
            low = error(1, j) if j < 3 else f"dp{j - 3} - h * ({forces(tableau.bhh, j - 3)})"
            lines.append(f"l{j} = {low}")
    return lines


def _tolerance_lines(j) -> list[str]:
    """Lines that set c<j> = atol + rtol max(|y<j>|, |z<j>|), the scale of
    component j of an error estimate from y to z."""
    return [
        # max(|y|, |z|): the first unless the second is larger; |v| as a
        # conditional is abs(v) but for the sign of a zero, which leaves c
        # unchanged
        f"a{j} = y{j} if y{j} >= 0.0 else -y{j}",
        f"b{j} = z{j} if z{j} >= 0.0 else -z{j}",
        f"c{j} = atol + rtol * (b{j} if b{j} > a{j} else a{j})",
    ]


# the sum of squares of the scaled components <v>0..<v>5 of an error
# estimate, with x paired with z and px with pz, so that it is symmetric in
# the swap of x and z, bit for bit
_PAIRED_SQUARES = "({0}0*{0}0 + {0}2*{0}2) + {0}1*{0}1 + (({0}3*{0}3 + {0}5*{0}5) + {0}4*{0}4)"


def _blended_norm_lines() -> list[str]:
    """err: Hairer's DOP853 norm |h| E5^2 / sqrt(6 (E5^2 + 0.01 E3^2)) of
    the 5th- and 3rd-order estimates e0..e5 and l0..l5 of an attempt from
    y to z (_attempt_lines), each scaled by _tolerance_lines; h is inside
    each estimate, and sqrt(6) sqrt(.) stands in place of sqrt(6 .), which
    could overflow."""
    norm = []
    for j in range(6):
        norm += [*_tolerance_lines(j), f"r{j} = e{j} / c{j}", f"l{j} = l{j} / c{j}"]
    err5, err3 = (_PAIRED_SQUARES.format(v) for v in "rl")
    return [
        *norm,
        f"err5 = {err5}",
        f"deno = err5 + 0.01 * ({err3})",
        f"err = err5 / ({math.sqrt(6.0)!r} * _sqrt(deno)) if deno else 0.0",
    ]


def _adaptive_step_lines(site) -> list[str]:
    """One accepted adaptive step from t, y0..y5, f0_*: attempts
    (_attempt_lines around ``site``) of h = min(h_ctl, cap) until one is
    accepted, with proportional-integral control of h_ctl (Gustafsson) at
    exponents 0.7/order and 0.4/order of DOP853's order, and 1/order
    after a rejection.  err is Hairer's error norm of the 5th- and
    3rd-order estimates for tolerances atol and rtol, which the controller
    compares with 1.  H_MIN, H_MAX and SAFETY are literals of the lines.
    An attempt accepted at the floor H_MIN with err > 1 counts in
    floor_accepted and a rejected one in rejected.  A step below the floor,
    one that does not advance t, or a non-finite err at the floor raises
    StepFailure.  The tableau is DOP853: the norm reads the 3rd-order
    estimate l0..l5, which only a pair with two error rows forms.

    A rejection turns on a predictive mode (pc), where h_prev, the last
    accepted step that updated the controller, is set (not 0.0): the next
    accepted uncapped attempt takes Gustafsson's predictive factor
    SAFETY (h/h_prev) (err_prev/e^2)^(1/order), which follows a step size
    that declines geometrically, as near a singular line, where the PI
    factor lags and rejects every other attempt.  The mode stays on while
    it predicts a decline (factor < 1) and turns off when it predicts
    growth.  Every accepted uncapped attempt stores e and h as err_prev
    and h_prev; a capped one changes no controller state.  At a steady
    step the PI controller settles at err = SAFETY^(1/0.0375), about 0.06,
    and the predictive mode at err = SAFETY^8, about 0.43.  A run without
    a rejection never enters the mode.  The 1/8 power is three square
    roots, which are correctly rounded, so it needs no libm pow; the PI
    and rejection factors go through pow."""
    order, last = DOP853.order, DOP853.last
    assert order == 8, "the predictive factor's 1/order power is three square roots"
    return [
        "while True:",
        "    h = cap if cap < h_ctl else h_ctl",
        f"    if h < {H_MIN!r}:",
        f"        raise _StepFailure(f'step size {{h:g}} below floor {H_MIN:g}')",
        "    t_new = t + h",
        "    if t_new == t:",
        "        raise _StepFailure(f'step size {h:g} does not advance t = {t!r}')",
        *_indent(_attempt_lines(DOP853, site)),
        *_indent(_blended_norm_lines()),
        f"    if err <= 1.0 or h <= {H_MIN!r} and _isfinite(err):",
        "        if err > 1.0:",
        "            floor_accepted += 1",
        "        if h == h_ctl:                # not shortened by the cap",
        "            e = 1e-10 if err < 1e-10 else err",
        "            if pc:",
        f"                factor = {SAFETY!r} * (h / h_prev)"
        " * _sqrt(_sqrt(_sqrt(err_prev / (e * e))))",
        "                pc = factor < 1.0",
        "            else:",
        f"                factor = {SAFETY!r} * e**{-7 / (10 * order)!r}"
        f" * err_prev**{4 / (10 * order)!r}",
        "            err_prev, h_prev = e, h",
        "            h_ctl *= 0.2 if factor < 0.2 else 5.0 if factor > 5.0 else factor",
        f"            if h_ctl < {H_MIN!r}:",
        f"                h_ctl = {H_MIN!r}",
        f"            if h_ctl > {H_MAX!r}:",
        f"                h_ctl = {H_MAX!r}",
        "        break",
        f"    if h <= {H_MIN!r}:",
        "        raise _StepFailure(f'error estimate {err!r} at the step size floor {h:g}')",
        "    rejected += 1",
        "    pc = h_prev > 0.0",
        f"    factor = {SAFETY!r} * err**{-1 / order!r}",
        "    h_ctl = h * (factor if factor > 0.2 else 0.2)",
        f"    if h_ctl < {H_MIN!r}:",
        f"        h_ctl = {H_MIN!r}",
        "    if h_ctl >= h:",
        "        h_ctl = 0.5 * h",
        "t = t_new",
        "y0, y1, y2, y3, y4, y5 = z0, z1, z2, z3, z4, z5",
        f"f0_0, f0_1, f0_2 = f{last}_0, f{last}_1, f{last}_2",
    ]


def _leapfrog_step_lines(site) -> list[str]:
    """One velocity-Verlet (kick-drift-kick) step of h from t, y0..y5,
    f0_*; raises StepFailure if it does not advance t.  The arithmetic is
    component by component in the order of the array form
    ``p + (0.5*h)*f``, ``q + h*p``, so the bits are those of the numpy
    kick-drift-kick."""
    return [
        "t_new = t + h",
        "if t_new == t:",
        "    raise _StepFailure(f'step size {h:g} does not advance t = {t!r}')",
        "kick = 0.5 * h",
        *(f"y{j + 3} = y{j + 3} + kick * f0_{j}" for j in range(3)),
        *(f"y{j} = y{j} + h * y{j + 3}" for j in range(3)),
        *site(("y0", "y1", "y2"), "f0"),
        *(f"y{j + 3} = y{j + 3} + kick * f0_{j}" for j in range(3)),
        "t = t_new",
    ]


# the regularized step's substep counts: n = 2, 4, ..., 12 for a LogH
# attempt (42 force evaluations)
_LOGH_SEQUENCE = (2, 4, 6, 8, 10, 12)


def _gbs_lines(names, start, kick_drift) -> list[str]:
    """A Gragg-Bulirsch-Stoer attempt of a symmetric leapfrog in drift-kick-
    drift form with the middle drifts merged: for each n of _LOGH_SEQUENCE,
    ``start`` (hs = step / n, hd = hs / 2 and the first half drift from
    y0..y5 to x0..x5) and ``kick_drift`` n times, with dl = hs but for the
    last drift's dl = hd; then the Aitken-Neville table in (step / n)^2 of
    the values of ``names`` after each sequence (T<i>0<v> after the i-th),
    with T<i><j><v> = T<i><j-1><v> + (T<i><j-1><v> - T<i-1><j-1><v>) /
    ((n_i / n_(i-j))^2 - 1), each divisor rounded once from its exact value.
    Sets z0..z5 to the last diagonal entry and e0..e5 to its difference
    from the entry before it."""
    sequence = _LOGH_SEQUENCE
    lines = ["ends = []", f"for n in {sequence!r}:", *_indent(start),
             "    for dl in (hs,) * (n - 1) + (hd,):", *_indent(kick_drift, 2),
             f"    ends.append(({', '.join(names)}))"]
    for i in range(len(sequence)):
        lines.append(f"{', '.join(f'T{i}0{v}' for v in names)} = ends[{i}]")
        for j in range(1, i + 1):
            divisor = float(Fraction(sequence[i], sequence[i - j]) ** 2 - 1)
            lines += [f"T{i}{j}{v} = T{i}{j - 1}{v} + (T{i}{j - 1}{v} - T{i - 1}{j - 1}{v})"
                      f" / {divisor!r}" for v in names]
    k = len(sequence) - 1
    lines += [f"z{j} = T{k}{k}x{j}" for j in range(6)]
    lines += [f"e{j} = z{j} - T{k}{k - 1}x{j}" for j in range(6)]
    return lines


_STATE = tuple(f"x{j}" for j in range(6))


def _logh_attempt_lines(kick) -> list[str]:
    """One attempt of the logarithmic-Hamiltonian (LogH) leapfrog over the
    fictitious-time step S from y0..y5 (Mikkola & Tanikawa 1999; Preto &
    Tremaine 1999), extrapolated over _LOGH_SEQUENCE (_gbs_lines): sets
    dte, the extrapolated time step, besides z0..z5 and e0..e5.  A drift of
    dl is dt = dl / (T + B), with T = ((px^2 + pz^2) + py^2) / 2 and
    B = -E0, then q += dt p; a kick of hs is p -= (hs / u) g at the force
    site ``kick``, which binds u and g = grad u / 2, so that the kick is
    hs F / U with U = -V.  Where T + B is at or below 0, dt would be
    negative or infinite: at y that raises StepFailure, since no S helps;
    after a kick the drift is not taken and s, the substeps' summed time,
    becomes nan, so that dte is nan and the attempt is rejected."""
    def t_plus_b(p):
        # w = T + B at the momenta p3..p5
        return f"w = 0.5 * (({p}3 * {p}3 + {p}5 * {p}5) + {p}4 * {p}4) + B"

    start = ["hs = S / n", "hd = 0.5 * hs", "dt = hd / wy", "s = dt",
             *(f"x{j} = y{j} + dt * y{j + 3}" for j in range(3)),
             *(f"x{j + 3} = y{j + 3}" for j in range(3))]
    kick_drift = [*kick(_STATE[:3]), "hu = hs / u",
                  *(f"x{j + 3} = x{j + 3} - hu * g{j}" for j in range(3)),
                  t_plus_b("x"), "if not w > 0.0:", "    w, s = _inf, _nan",
                  "dt = dl / w", "s = s + dt",
                  *(f"x{j} = x{j} + dt * x{j + 3}" for j in range(3))]
    k = len(_LOGH_SEQUENCE) - 1
    # T + B at y, the same for the first drift of every sequence
    return [t_plus_b("y"), "if not w > 0.0:",
            "    raise _StepFailure(f'T + B = {w!r} is not positive at t = {t!r}')", "wy = w",
            *_gbs_lines(("s", *_STATE), start, kick_drift), f"dte = T{k}{k}s"]


def _rms_norm_lines() -> list[str]:
    """err: the root mean square of e0..e5, each scaled by _tolerance_lines."""
    lines = []
    for j in range(6):
        lines += [*_tolerance_lines(j), f"r{j} = e{j} / c{j}"]
    return [*lines, f"err = _sqrt(({_PAIRED_SQUARES.format('r')}) / 6.0)"]


# the two-body estimate of a pass holds where the state is within a tenth
# of the other line's distance (F < 0.01 F_other), so that the other
# factor of u changes little over the pass
_PASS_NEAR = 0.01


def _pass_lines(consts, w0, u_floor, v, first=False) -> list[str]:
    """Lines that estimate, at the state v0..v5 after _u_site there, the
    closest approach of the pass that state is on across each singular
    line, and, unless ``first``, take the pass that the step to v0..v5
    made into min_u and min_d2.

    Near line +- V = w0 / sqrt(F+ F-) is -k / d, with d = sqrt(F+-) and
    k = -w0 / sqrt(F-+): a two-body attraction in the plane across the
    line, spanned by y and (c, 0, +-s), where the position is
    (y -+ k, c x +- s z) (_yp, _lp or _ym, _lm) and the velocity
    (py, c px +- s pz).  With the angular momentum L and the energy
    E = v^2 / 2 - k / d of that motion, the pericentre is
    r_p = L^2 / (k + sqrt(k^2 + 2 E L^2)); its u is r_p^2 F-+.  The
    estimate is taken only where 0 < F+- < _PASS_NEAR F-+, and is inf
    elsewhere (F+- = 0 is on the line, where u = 0 is at or below any
    floor).  _rate_<line> is half the rate of F+- (positive outward),
    and _f_, _u_, _d2_<line> the state's F+- and estimate.  A step passes
    a line where its rate turns from negative to positive; the pass's u
    and r_p^2 are then the estimate at whichever end of the step lies
    nearer that line, and that u is tested against the floor, raising
    SingularPoint at or below it."""
    c, s, _ = (repr(x) for x in consts)
    lines = []
    for name, op, eta, xi, f, g in (("p", "+", "_yp", "_lp", "_fp", "_fm"),
                                    ("m", "-", "_ym", "_lm", "_fm", "_fp")):
        lines += [
            f"_v = {c} * {v}3 {op} {s} * {v}5",
            f"_rate = {eta} * {v}4 + {xi} * _v",
            f"if 0.0 < {f} < {_PASS_NEAR!r} * {g}:",
            f"    _L = {eta} * _v - {xi} * {v}4",
            "    _L2 = _L * _L",
            f"    _k = {-float(w0)!r} / _sqrt({g})",
            f"    _disc = _k * _k + 2.0 * (0.5 * ({v}4 * {v}4 + _v * _v) - _k / _sqrt({f})) * _L2",
            "    _rp = _L2 / (_k + _sqrt(_disc if _disc > 0.0 else 0.0))",
            "    _d2p = _rp * _rp",
            f"    _up = _d2p * {g}",
            "else:",
            "    _up = _d2p = _inf",
        ]
        if not first:
            lines += [
                f"if _rate_{name} < 0.0 < _rate:",
                f"    if {f} < _f_{name}:",
                "        _pu, _pd = _up, _d2p",
                "    else:",
                f"        _pu, _pd = _u_{name}, _d2_{name}",
                f"    if _pu <= {float(u_floor)!r}:",
                f'        raise _SingularPoint(f"u = {{_pu!r}} at the closest approach to line '
                f'{op} in the step to q = {{({v}0, {v}1, {v}2)}}")',
                "    if _pu < min_u:",
                "        min_u = _pu",
                "    if _pd < min_d2:",
                "        min_d2 = _pd",
            ]
        lines.append(f"_rate_{name}, _f_{name}, _u_{name}, _d2_{name} = _rate, {f}, _up, _d2p")
    return lines


def _regularized_step_lines(force) -> list[str]:
    """One accepted step of the regularized integrator from t, y0..y5, for
    w0 < 0: LogH attempts (_logh_attempt_lines) of the fictitious-time step
    S_ctl, accepted where the root-mean-square error err <= 1, after which
    S_ctl *= min(0.94 (0.65/err)^(1/11), 4); a rejected attempt of S, aimed
    or not, sets S_ctl = S max(0.94 (0.65/err)^(1/11), 0.2).  A non-finite
    or non-positive time step dte counts as err = inf.

    Landing on t_stop = t + cap: rho is S / dte of the last accepted
    attempt, or of the last that passed t_stop (inf before either).  An
    attempt is aimed at 0.98 cap where that is shorter than S_ctl's
    predicted step (S = 0.98 cap rho < S_ctl).  An attempt that passes
    t_stop is rejected.  After an accepted aimed attempt, the next attempt
    closes the gap to t_stop with one DOP853 attempt of h = cap in physical
    time (_attempt_lines, from the force at y, through calls of the force
    field's site), accepted where Hairer's norm (_blended_norm_lines) is at
    most 1; where it is not, the step aims again.  An accepted aimed or
    closing attempt leaves S_ctl unchanged.

    The kicks test u against the floor with no cut (they take no
    u^(-3/2)), and so does the u at the accepted q, which binds u, _fp and
    _fm there.  au and ad, the least u and F+- over an attempt's force
    sites, go into min_u and min_d2 when it is accepted, and so does the
    two-body estimate of a close pass the step made (_pass_lines), since
    the steps are long and a close pass falls between their force sites.
    A step that does not advance t, and an accepted controller step whose
    time step is below the floor H_MIN, as the adaptive step's, raise
    StepFailure.  evals counts 42 force evaluations per LogH and 13 per
    closing attempt."""
    consts, u_floor = force.line_constants, float(force.u_floor)
    # the attempt's least u and F+-, over its force sites
    extrema = ["if u < au:", "    au = u",
               "if _fp < ad:", "    ad = _fp", "if _fm < ad:", "    ad = _fm"]

    def kick(q):
        return [*_u_site(q, consts, u_floor, u_floor), *extrema, *_gradient_lines(consts)]

    def site(q, f):
        # the force field's own site (ForceField._at, the kernel's global
        # _force_at): the inlined site's bits and raises, in one line, since
        # a closing attempt runs once per sample
        return [f"({f}_0, {f}_1, {f}_2), u, _d2s = _force_at({', '.join(q)})",
                "if u < au:", "    au = u", "if _d2s < ad:", "    ad = _d2s"]

    return [
        "while True:",
        "    if t_close == t_stop:",
        "        t_close = _inf",
        "        h, au, ad = cap, _inf, _inf",
        *_indent(site(("y0", "y1", "y2"), "f0"), 2),
        *_indent(_attempt_lines(DOP853, site), 2),
        *_indent(_blended_norm_lines(), 2),
        f"        evals += {DOP853.last + 1}",
        "        if err <= 1.0:",
        "            t_new = t + h",
        "            break",
        "        rejected += 1",
        "    S, au, ad = 0.98 * cap * rho, _inf, _inf",
        "    aim = S < S_ctl",
        "    if not aim:",
        "        S = S_ctl",
        *_indent(_logh_attempt_lines(kick)),
        *_indent(_rms_norm_lines()),
        f"    evals += {sum(_LOGH_SEQUENCE)}",
        "    if not 0.0 < dte < _inf:",  # nan too
        "        err = _inf",
        "    if err <= 1.0:",
        "        t_new = t + dte",
        "        rho = S / dte",
        "        if t_new > t_stop:",
        "            rejected += 1",
        "            continue",
        "        if t_new == t:",
        "            raise _StepFailure(f'time step {dte:g} does not advance t = {t!r}')",
        "        if aim:",
        "            t_close = t_stop",
        f"        elif dte < {H_MIN!r}:",
        f"            raise _StepFailure(f'time step {{dte:g}} below floor {H_MIN:g}')",
        "        else:",
        "            e = 1e-10 if err < 1e-10 else err",
        f"            factor = 0.94 * (0.65 / e)**{1 / (2 * len(_LOGH_SEQUENCE) - 1)!r}",
        "            S_ctl *= 4.0 if factor > 4.0 else factor",
        "        break",
        "    rejected += 1",
        f"    factor = 0.94 * (0.65 / err)**{1 / (2 * len(_LOGH_SEQUENCE) - 1)!r}",
        "    S_ctl = S * (factor if factor > 0.2 else 0.2)",
        *_u_site(("z0", "z1", "z2"), consts, u_floor, u_floor),
        *_pass_lines(consts, force.w0, u_floor, "z"),
        "t = t_new",
        "y0, y1, y2, y3, y4, y5 = z0, z1, z2, z3, z4, z5",
        "if au < min_u:",
        "    min_u = au",
        "if ad < min_d2:",
        "    min_d2 = ad",
    ]


def _inlined_site(force: "ForceField"):
    """The force site of ``force``'s run kernels (_force_site)."""
    return _force_site(force.line_constants, force.w0, force.u_floor)


# simulate's integrators by name, each as (the kernel lines that read its
# settings from the SimConfig ``config``, built from the force field when a
# kernel is compiled, so that they take the controller's constants then;
# its step from t, y0..y5 and f0_* with the force field inlined, capped at
# ``cap``; the kernel's count of its force evaluations; the SimConfig field
# that bounds its step, or None for the adaptive entries, whose step count
# the kernel bounds by MAX_STEPS attempts).  A fixed step stretches to a
# cap below 1.0001 fixed_step, so that a sample time the summed steps fall
# just short of is reached in one step, not by a sliver step after it.
# The regularized entry takes B = -E0 from the initial p and u, and the
# state's pass estimates (_pass_lines) from the initial q and p; its first
# fictitious-time step is H_INIT
INTEGRATORS = {
    "adaptive": (lambda force: ["atol, rtol = config.abs_tol, config.rel_tol",
                                f"h_ctl, err_prev, h_prev, pc = {H_INIT!r}, 1.0, 0.0, False"],
                 lambda force: _adaptive_step_lines(_inlined_site(force)),
                 f"{DOP853.last} * (steps + rejected)", None),
    "leapfrog": (lambda force: ["h_fix = config.fixed_step", "h_reach = h_fix * 1.0001"],
                 lambda force: ["h = cap if cap < h_reach else h_fix",
                                *_leapfrog_step_lines(_inlined_site(force))],
                 "steps", "fixed_step"),
    "regularized": (lambda force: [
        "atol, rtol = config.abs_tol, config.rel_tol",
        f"B = -(0.5 * ((y3 * y3 + y5 * y5) + y4 * y4) + {force.w0!r} / _sqrt(u))",
        *_factored_lines(("y0", "y1", "y2"), force.line_constants),
        *_pass_lines(force.line_constants, force.w0, force.u_floor, "y", first=True),
        f"S_ctl, rho, t_close, evals = {H_INIT!r}, _inf, _inf, 0"],
        _regularized_step_lines, "evals", None),
}


@functools.cache
def _compile_kernel(force: ForceField, integrator: str):
    """The run kernel of one integrator of INTEGRATORS with ``force``
    inlined, compiled on the first run of that integrator with that force
    field.

    ``run(sample, t, q, p, f, u, d2, config)`` integrates from t, (q, p)
    and the force f, u and d2 at q to ``config.t_end`` in one call, with
    each step capped at the next sample time, and calls
    ``sample(t, x, y, z, px, py, pz, u, d2)`` at t + k ``sample_interval``
    (k = 1, 2, ...) and at t_end.  It stops after the first step with
    max |q| > ``r_max``.  min u, min d2 and max |q| = hypot(q) are taken
    over q and every accepted step (the regularized step adds its accepted
    attempts' force sites and its estimated closest approaches to min u
    and min d2).  The adaptive entries'
    kernels raise StepFailure before a step once the accepted plus
    rejected attempts reach MAX_STEPS, a literal of the kernel.  It reads
    its settings from the SimConfig once.  It returns (exc, t, steps,
    rejected, floor_accepted, force_evals, min_u, min_d2, max_q): exc is
    None or what a step or a sample raised (SingularPoint, StepFailure or
    EvaluationOverflow), the rest are those of the last accepted step, and
    force_evals counts the kernel's own force evaluations.
    """
    settings, step_lines, evals, bound = INTEGRATORS[integrator]
    # d2 at the accepted q, from the last force site the step ran
    step = [*step_lines(force), _D2_LINE]
    # the adaptive entries' attempt budget (Hairer's NMAX), checked before
    # each step; a fixed step's count is bounded up front
    budget = [] if bound else [
        f"if steps + rejected >= {MAX_STEPS!r}:",
        f"    raise _StepFailure(f'{{steps + rejected}} attempts reach MAX_STEPS = {MAX_STEPS}')",
    ]
    # the next sample time t0 + k sample_interval, the cap of the steps up
    # to it or to t_end (t_stop, the earlier), and the time from which a
    # step counts as reaching t_stop, so that t_end has a row too
    next_sample = [
        "k += 1",
        "next_sample = t0 + k * sample_interval",
        "t_stop = t_end if t_end < next_sample else next_sample",
        "t_sample = t_stop - 1e-12",
    ]
    counts = f"t, steps, rejected, floor_accepted, {evals}, min_u, min_d2, max_q"
    lines = [
        # the globals the loop reads, bound as fast locals
        "def _run(sample, t, q, p, f, u, d2, config,"
        " _sqrt=_sqrt, _inf=_inf, _hypot=_hypot, _isfinite=_isfinite):",
        "    t_end, sample_interval, r_max = config.t_end, config.sample_interval, config.r_max",
        "    y0, y1, y2 = q",
        "    y3, y4, y5 = p",
        "    f0_0, f0_1, f0_2 = f",
        *_indent(settings(force)),
        "    steps = rejected = floor_accepted = 0",
        "    min_u, min_d2, max_q = u, d2, _hypot(y0, y1, y2)",
        # -1.0 sends the first step to the r_max test below: an initial |q|
        # beyond r_max stops after one step
        "    q2_safe = _q2_guard(max_q) if max_q <= r_max else -1.0",
        "    t_last = t_end - 1e-12",
        "    t0, k = t, 0",
        *_indent(next_sample),
        "    try:",
        "        while t < t_last:",
        *_indent(budget, 3),
        "            cap = t_stop - t",
        *_indent(step, 3),
        "            steps += 1",
        "            if u < min_u:",
        "                min_u = u",
        "            if d2 < min_d2:",
        "                min_d2 = d2",
        # hypot runs only where it may pass max_q (see _q2_guard); not <=, so
        # that a nan sum runs it too
        "            if not y0 * y0 + y1 * y1 + y2 * y2 <= q2_safe:",
        "                r = _hypot(y0, y1, y2)",
        "                if r > max_q:",
        "                    max_q = r",
        "                    q2_safe = _q2_guard(max_q)",
        "                if max_q > r_max:",
        "                    break",
        "            if t >= t_sample:",
        "                sample(t, y0, y1, y2, y3, y4, y5, u, d2)",
        *_indent(next_sample, 4),
        "    except (_SingularPoint, _StepFailure, _EvaluationOverflow) as exc:",
        f"        return exc, {counts}",
        f"    return None, {counts}",
    ]
    run = _compile(lines, "_run")
    # the force field whose site the regularized closing attempt calls
    run.__globals__["_force_at"] = force._at
    return run


def _q2_guard(max_q: float) -> float:
    """A bound g such that hypot(q) <= max_q wherever the rounded sum
    q0*q0 + q1*q1 + q2*q2 is at most g: max_q**2 shrunk by 1e-14, far more
    than the few ulps the sum and hypot can err by.  -1.0, so that hypot
    runs at every step, where max_q**2 is not finite or is below 1e-290,
    near where the squares underflow and lose their relative accuracy."""
    g = max_q * max_q
    return g * (1.0 - 1e-14) if 1e-290 < g < math.inf else -1.0


@functools.cache
def compile_system(a, b, w0, u_floor):
    """(force field, integral evaluator) for one parameter set, compiled
    once per process around one factored block; see _factored_block.  The
    run kernel of each integrator is compiled from the force field on its
    first use (_compile_kernel)."""
    return compile_force(a, b, w0, u_floor), IntegralEvaluator(a, b, w0)


@functools.cache
def _attempt_kernel(tableau: _Tableau):
    """The generated attempt of ``tableau`` for any force callable, compiled
    on first use so that importing the package does not pay for it.

    ``attempt(force, y, f0, h)`` takes the packed state y = (q, p) and the
    force f0 at q (stage 0), and returns (solution, error estimate, force of
    the last stage), from the Nystrom form of _attempt_lines: the same
    method as the first-order form, whose results it matches to a few ulps.
    """
    return _compile([
        "def attempt(force, y, f0, h):",
        "    y0, y1, y2, y3, y4, y5 = y",
        "    f0_0, f0_1, f0_2 = f0",
        *_indent(_attempt_lines(tableau, _call_site)),
        f"    return (z0, z1, z2, z3, z4, z5), (e0, e1, e2, e3, e4, e5), f{tableau.last}",
    ], "attempt")


def dp54_step(force, y0, h: float):
    """One raw Dormand-Prince 5(4) step from the packed state y0 = (q, p).

    Returns (y5, error_estimate) where the estimate is h sum_k E_k K_k
    for the difference weights E of the 5th- and embedded 4th-order
    solutions (scales as h^5), formed without subtracting the two
    solutions.  States are 6-tuples of floats.
    """
    y0 = tuple(y0)
    y5, err, _ = _attempt_kernel(DP54)(force, y0, force(y0[:3]), h)
    return y5, err


# the per-step functions' state: t, y0..y5 and the force f0_* (and f0) at
# q from the PhaseState ``state``, by a call of ``force`` where ``state.f``
# is None; and the PhaseState of t, y0..y5 and the force named in {}
_STATE_IN = ["    t, y0, y1, y2, y3, y4, y5 = state.t, *state.q, *state.p",
             "    f0_0, f0_1, f0_2 = f0 = state.f if state.f is not None else force((y0, y1, y2))"]
_STATE_OUT = "_PhaseState(t, _Vec3((y0, y1, y2)), _Vec3((y3, y4, y5)), {})"


@functools.cache
def _adaptive_step():
    """AdaptiveStepper.step: _adaptive_step_lines of DOP853 around a force
    call, compiled on first use."""
    return _compile([
        "def step(self, state, h_cap):",
        "    force = self.force",
        "    atol, rtol = self.abs_tol, self.rel_tol",
        "    cap = _inf if h_cap is None else h_cap",
        *_STATE_IN,
        "    h_ctl, err_prev, h_prev, pc = self.h, self._err_prev, self._h_prev, self._pc",
        "    rejected, floor_accepted = self.rejected, self.floor_accepted",
        "    try:",
        *_indent(_adaptive_step_lines(_call_site), 2),
        "    finally:",
        "        self.h, self._err_prev, self._h_prev, self._pc = h_ctl, err_prev, h_prev, pc",
        "        self.rejected, self.floor_accepted = rejected, floor_accepted",
        f"    return {_STATE_OUT.format(f'f{DOP853.last}')}, h, err",
    ], "step")


class AdaptiveStepper:
    """The Dormand-Prince 8(5,3) pair (DOP853) with proportional-integral
    step control, predictive after a rejection: the adaptive integrator,
    step by step.  ``step`` is the adaptive run kernel's step
    (_adaptive_step_lines) with a call of ``force`` where the kernel
    inlines the factored force, and the same controller constants: ``h``
    starts at H_INIT, and the floor H_MIN, the ceiling H_MAX and the
    safety factor SAFETY are literals of the step.  The controller's state
    is ``h``, ``_err_prev``, ``_h_prev`` (the last accepted step that
    updated it, 0.0 before one) and ``_pc`` (the predictive mode).

    An attempt takes 12 force evaluations.  A step that ``h_cap`` shortens
    leaves the controller's state as it was, so a sample time does not
    shrink the steps after it.
    ``rejected`` counts rejected attempts and ``floor_accepted`` the
    attempts accepted at the step-size floor with an error above 1.
    """

    def __init__(self, force, rel_tol=1e-12, abs_tol=1e-14):
        self.force = force
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.h = H_INIT
        self._err_prev = 1.0
        self._h_prev = 0.0
        self._pc = False
        self.rejected = 0
        self.floor_accepted = 0

    def step(self, state: PhaseState, h_cap: float | None = None):
        """Advance one accepted step; returns (state', h_used, err), where err
        is the controller's scaled error norm (a non-finite one at the floor
        raises StepFailure, as does a step that does not advance t).  The
        new state's ``f`` is the last (13th) stage force of the accepted
        attempt, which is the force at its q (FSAL), so a step from it costs
        12 force evaluations per attempt, not 13.
        """
        return _adaptive_step()(self, state, h_cap)


@functools.cache
def _leapfrog_step():
    """step_leapfrog: _leapfrog_step_lines around a force call, compiled on
    first use."""
    return _compile([
        "def step_leapfrog(state, h, force):",
        *_STATE_IN,
        *_indent(_leapfrog_step_lines(_call_site)),
        f"    return {_STATE_OUT.format('f0')}",
    ], "step_leapfrog")


def step_leapfrog(state: PhaseState, h: float, force) -> PhaseState:
    """One velocity-Verlet (kick-drift-kick) step; symplectic, reversible.

    The start-of-step force comes from ``state.f`` when set, and the new
    state's ``f`` is the force at its q, so a run costs one force
    evaluation per step.  A step that does not advance t raises
    StepFailure.
    """
    return _leapfrog_step()(state, h, force)


# -- simulation harness ------------------------------------------------


# the most sample intervals one simulate call takes: each costs a sample
# callback and a record row of about 430 bytes, so 10**6 rows take about 0.4 GB
MAX_SAMPLES = 10**6
# the most steps one simulate call may need at its integrator's longest step,
# (t_end - t0) / fixed_step or H_MAX: 100 times the 10**6 leapfrog steps of a
# run to t = 1000 at the default fixed_step
MAX_STEPS = 10**8


@dataclass
class SimConfig:
    a: float = 0.25
    b: float = 1.0
    w0: float = -1.0
    integrator: str = "adaptive"          # a name of INTEGRATORS; regularized needs w0 < 0
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
        # no stored double meets a relative accuracy finer than binary64's
        # unit roundoff: the adaptive run would crawl at the step floor
        if self.rel_tol < 2**-53:
            raise ValueError(f"rel_tol must be at least 2**-53 = {2**-53:.4g}, the unit "
                             f"roundoff of binary64, got {self.rel_tol!r}")
        if not (math.isfinite(self.u_floor) and self.u_floor >= 0):
            raise ValueError(f"u_floor must be finite and non-negative, got {self.u_floor!r}")
        for name in ("a", "b", "w0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        _check_param_domain(self.a, self.b)
        # the LogH transform divides by U = -V = -w0 / sqrt(u)
        if self.integrator == "regularized" and not self.w0 < 0:
            raise ValueError(f"the regularized integrator needs w0 < 0, got {self.w0!r}")


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
        try:
            fh = open(path)
        except OSError as exc:
            raise ValueError(f"cannot read trajectory file {path}: {exc.strerror}") from exc
        with fh:
            header = fh.readline().strip()
            if header != TRAJECTORY_HEADER:
                raise ValueError(f"malformed trajectory header: {header!r}")
            width = len(TRAJECTORY_HEADER.split(","))
            for number, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = tuple(float(v) for v in line.split(","))
                except ValueError:
                    row = ()
                if len(row) != width or not all(map(math.isfinite, row)):
                    raise ValueError(f"line {number} of {path} is not {width} finite "
                                     f"numbers: {line!r}")
                rows.append(row)
        return TrajectoryRecord(rows)


@dataclass
class RunOutcome:
    classification: str                    # completed | singularity-approach | escape | step-failure
    drift_H: float
    drift_X1: float
    drift_X2: float
    min_u: float
    min_dsing: float                       # min distance to a line, same states as min_u
    max_q: float
    t_final: float
    detail: str = ""
    steps: int = 0                         # accepted steps
    rejected: int = 0                      # rejected DOP853 or regularized attempts
    floor_accepted: int = 0                # DOP853 steps accepted at h_min with error > 1
    # factored u + grad u evaluations: those of the accepted and rejected
    # attempts and the 1 at the initial state; an attempt cut short by a
    # singularity approach or a step failure is not counted, nor is the u
    # of a regularized step's accepted state
    force_evals: int = 0


def distance_to_singular_lines(q, a: float, b: float) -> float:
    """Minimum Euclidean distance from q to the two singular lines:
    sqrt(min(F+, F-)) from the factored block."""
    return math.sqrt(_factored_block(a, b)[1](float(q[0]), float(q[1]), float(q[2]))[1])


def _drift(rows, column: int) -> float:
    """The relative drift of one column of the record rows from row 0: the
    largest |v - v0| / max(|v0|, 1e-3) over the rows, a nan term passed over."""
    v0 = rows[0][column]
    scale = max(abs(v0), 1e-3)
    terms = (abs(row[column] - v0) / scale for row in rows)
    return max((d for d in terms if not math.isnan(d)), default=0.0)


def simulate(config: SimConfig, initial: PhaseState):
    """Integrate to t_end or a stop condition, sampling conserved quantities.

    The run is one call of the system's generated kernel (_compile_kernel),
    which calls back here for every sample row after row 0.  Failures are
    classified in the returned RunOutcome, not raised, except for a q or p
    without 3 components, a non-finite initial t, q or p, an initial state
    whose evaluation overflows, more than MAX_SAMPLES sample intervals or
    more than MAX_STEPS steps of the integrator's longest step (ValueError),
    or an initial state already inside the singularity cutoff
    (SingularPoint).  An evaluation that overflows mid-run is classified
    ``step-failure``.
    """
    q0, p0 = initial.q, initial.p
    if len(q0) != 3 or len(p0) != 3:
        raise ValueError(f"q and p must have 3 components, got {len(q0)} and {len(p0)}")
    if not all(map(math.isfinite, (initial.t, *q0, *p0))):
        raise ValueError(f"non-finite initial state t = {initial.t}, q = {q0}, p = {p0}")
    samples = (config.t_end - initial.t) / config.sample_interval
    if samples > MAX_SAMPLES:
        raise ValueError(f"(t_end - t0) / sample_interval = {samples:.3g} sample "
                         f"intervals exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    # no step is longer than the integrator's bound, but for a fixed step's
    # stretch of at most 1e-4 of it once per sample, so the run takes at
    # least about this many steps (H_MAX is a nominal step of the
    # regularized integrator, whose kernel counts its attempts)
    *_, bound = INTEGRATORS[config.integrator]
    longest, h_max = (bound, getattr(config, bound)) if bound else ("H_MAX", H_MAX)
    steps = (config.t_end - initial.t) / h_max
    if steps > MAX_STEPS:
        raise ValueError(f"(t_end - t0) / {longest} = {steps:.3g} {config.integrator} steps "
                         f"exceeds MAX_STEPS = {MAX_STEPS}")
    force, integrals = compile_system(config.a, config.b, config.w0, config.u_floor)
    # one force site at q0: rejects ICs on/near the singular lines
    f0, u0, d2 = force._at(*q0)
    rows = []
    sqrt = math.sqrt

    def sample(t, x, y, z, px, py, pz, u, d2):
        rows.append((t, x, y, z, px, py, pz, *integrals((x, y, z), (px, py, pz)), u, sqrt(d2)))

    sample(initial.t, *q0, *p0, u0, d2)
    run = _compile_kernel(force, config.integrator)
    exc, t, steps, rejected, floor_accepted, evals, min_u, min_d2, max_q = run(
        sample, initial.t, q0, p0, f0, u0, d2, config)
    detail = "" if exc is None else str(exc)
    if isinstance(exc, SingularPoint):
        classification = "singularity-approach"
    elif exc is not None:
        classification = "step-failure"
    elif steps and max_q > config.r_max:    # the kernel tests r_max after a step
        classification = "escape"
        detail = f"|q| = {max_q:.3g} exceeded r_max at t = {t:.6g}"
    else:
        classification = "completed"
    outcome = RunOutcome(
        classification=classification,
        # H, X1 and X2 are columns 7 to 9 of TRAJECTORY_HEADER
        drift_H=_drift(rows, 7), drift_X1=_drift(rows, 8), drift_X2=_drift(rows, 9),
        min_u=min_u, min_dsing=math.sqrt(min_d2), max_q=max_q, t_final=t, detail=detail,
        steps=steps, rejected=rejected, floor_accepted=floor_accepted,
        force_evals=evals + 1,              # and the 1 at q0
    )
    return TrajectoryRecord(rows), outcome


SCAN_HEADER = "idx,x0,y0,z0,px0,py0,pz0,E,min_u,min_dsing,class"


_MAX_RANGE = sys.float_info.max / 2  # uniform(-r, r) needs 2 r finite
# the most ICs one scan takes: all are drawn before the first run and held
# with their rows until the CSV is written, about 0.7 kB each, so 10**6 ICs
# take about 0.7 GB
MAX_SCAN_ICS = 10**6


def scan_initial_conditions(seed: int, n: int, q_range: float = 0.5, p_range: float = 0.4):
    """The n initial conditions ``quadint scan --seed <seed>`` draws: per
    IC, q then p uniform in [-range, range)^3, as Python floats."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    if n > MAX_SCAN_ICS:
        raise ValueError(f"n = {n!r} exceeds MAX_SCAN_ICS = {MAX_SCAN_ICS}")
    for name, value in (("q_range", q_range), ("p_range", p_range)):
        if not 0 <= value <= _MAX_RANGE:  # also false for nan
            raise ValueError(f"{name} must lie in [0, {_MAX_RANGE:.4g}], got {value!r}")
    # numpy's PCG64 stream: the one use of numpy, imported here
    from numpy.random import default_rng

    rng = default_rng(seed)
    return [(tuple(rng.uniform(-q_range, q_range, 3).tolist()),
             tuple(rng.uniform(-p_range, p_range, 3).tolist())) for _ in range(n)]


def _scan_one(config: SimConfig, idx: int, ic):
    record, outcome = simulate(config, PhaseState.make(0.0, *ic))
    # x0 .. pz0 and E = H are columns 1 to 7 of row 0
    return (idx, *record.rows[0][1:8],
            outcome.min_u, outcome.min_dsing, outcome.classification)


def scan_sim_config(config: SimConfig) -> SimConfig:
    """The SimConfig that scan_singularity runs for ``config``: the
    regularized integrator, sampling only t0 = 0 and t_end."""
    return replace(config, integrator="regularized", sample_interval=config.t_end)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity set where the OS
    reports one, else ``os.cpu_count()``, which counts the host's, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan_singularity(config: SimConfig, initial_conditions, jobs: int = 1):
    """Batch simulations probing approach to the singular lines (w0 < 0).

    Purely exploratory: reports min u and min singular-line distance per
    run, with no claim about reachability.  Rows are ordered by input
    index regardless of completion order.  Each IC runs through
    ``simulate`` at ``scan_sim_config(config)``: the scan ignores
    ``config.integrator``, ``fixed_step`` and ``sample_interval``, and
    writes no trajectory.  min u and min d_sing are taken over the same
    points: the initial state, the end of every accepted step, every force
    site of the accepted attempts, and the closest approach of each pass
    across a line that a step makes, estimated from the two-body motion
    across the nearer line (_pass_lines), which also runs the floor test.

    ``jobs`` workers share the ICs by stride, worker k taking
    ``ics[k::workers]`` with ``workers = min(jobs, len(ics), cpus)``, where
    ``cpus`` counts the CPUs this process may run on (_usable_cpus): a
    worker on no CPU of its own only waits for one.
    The calling process is worker 0; each other worker is a forked child
    (``fanout.fork_map``).  The failure at the lowest index is raised
    here, from a child too, with the type and message the serial scan
    gives.  Where ``os.fork`` does not exist the scan runs serially.
    """
    if config.w0 >= 0:
        raise ParamDomain("singularity scan requires w0 < 0")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    ics = list(initial_conditions)
    config = scan_sim_config(config)
    # compiled here once, so forked workers inherit them
    force, _ = compile_system(config.a, config.b, config.w0, config.u_floor)
    _compile_kernel(force, config.integrator)
    # a worker beyond the ICs has no share, and one beyond the CPUs only adds a fork
    workers = min(jobs, len(ics), _usable_cpus())
    run = functools.partial(_scan_one, config)
    if workers > 1 and hasattr(os, "fork"):
        from .fanout import fork_map

        return fork_map(run, ics, workers)
    return [run(idx, ic) for idx, ic in enumerate(ics)]


def write_scan_csv(table, path):
    with open(path, "w") as fh:
        fh.write(SCAN_HEADER + "\n")
        for row in table:
            fields = [str(row[0])]
            fields += [f"{v:.17g}" for v in row[1:10]]
            fields.append(row[10])
            fh.write(",".join(fields) + "\n")
