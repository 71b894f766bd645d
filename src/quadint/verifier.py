"""Poisson-bracket engine and the battery of exact identity checks.

A bracket is formed from the operands' terms P u^-alpha by the Leibniz
rule (``poisson_bracket``): one multiply by each u_q and by each power of
u.  Its result equals the definition's, but its (A, B, m) may differ.

Every check is a pure function returning CheckResult records; failure is
a reported result, never an exception.  Every identity runs with a, b, w0
fully symbolic.  The first-order scan and the scalar ansatz solve linear
systems over the rational functions of a and b by a structure-first peel
(``solve_exact_sparse``); each names its exceptional set, the factors its
pivots may have, and fails as inconclusive when the peel stalls, a
division is not exact or a pivot has another factor.  The scan also allows
the factor 2a - 1, whose root a = 1/2 in the domain gets a run of its own.
The factorization of u is proved with stand-ins c, s, i for sqrt(1 - a),
sqrt(a) and sqrt(-1).  Nothing evaluates at sampled parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    A,
    COORDS,
    MOMENTA,
    PX,
    PY,
    PZ,
    X,
    Y,
    Z,
    Polynomial,
    generators,
    solve_exact_sparse,
)
from .catalog import (
    HALF,
    SystemContext,
    build_characteristics,
    extract_killing_tensor,
)
from .radical import RadicalElement

__version__ = "0.1.0"

CANONICAL_PAIRS = ((X, PX), (Y, PY), (Z, PZ))

x, y, z, px, py, pz, a, b, w0 = generators()

# The factors a pivot may have, by the names a check's summary gives them.
# a = 0, a = 1, b = 0 and a = 2 lie outside the domain; a = 1/2 gets a
# first-order scan of its own.
ANSATZ_FACTORS = {"a": a, "a-1": a - 1, "b": b}
SCAN_FACTORS = {**ANSATZ_FACTORS, "2a-1": 2 * a - 1, "a-2": a - 2}


class NoSolution(Exception):
    """The scalar-part ansatz system is inconsistent."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual_summary: str
    elapsed_ms: float

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class VerificationReport:
    results: list[CheckResult]
    fingerprint: str
    total_ms: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "context_fingerprint": self.fingerprint,
            "total_ms": self.total_ms,
            "checks": [
                {
                    "name": r.name,
                    "status": r.status,
                    "residual_summary": r.residual_summary,
                    "elapsed_ms": r.elapsed_ms,
                }
                for r in self.results
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"quadint verification report (version {__version__})",
            f"context fingerprint: {self.fingerprint}",
            "",
        ]
        for r in self.results:
            lines.append(
                f"[{r.status.upper():4s}] {r.name:40s} {r.elapsed_ms:8.1f} ms  {r.residual_summary}"
            )
        n_fail = sum(not r.passed for r in self.results)
        lines.append("")
        lines.append(
            f"{len(self.results)} checks, {len(self.results) - n_fail} passed, {n_fail} failed"
        )
        lines.append(f"total {self.total_ms:.1f} ms")
        return "\n".join(lines)


def _timed(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    passed, summary = fn()
    dt = (time.perf_counter() - t0) * 1e3
    return CheckResult(name, passed, summary, dt)


def _residual_summary(r: RadicalElement) -> str:
    if r.is_zero():
        return "residual 0"
    return f"nonzero residual: |A|={len(r.A)} |B|={len(r.B)} m={r.m}"


def _poly_summary(p: Polynomial) -> str:
    return "residual 0" if p.is_zero() else f"nonzero residual: {len(p)} terms"


# -- bracket engine ----------------------------------------------------


def _accumulate(sums: dict, key, p: Polynomial) -> None:
    sums[key] = sums[key] + p if key in sums else p


def _bracket_terms(E: RadicalElement, sign: int):
    """Per nonzero term P u^-alpha of E, (A, m) and (B, m + 1/2): 2 alpha,
    -sign alpha P, and (sign dP/dq, dP/dp) for each canonical pair."""
    out = []
    for h, P in enumerate((E.A, E.B)):
        if P:
            a2, sP = 2 * E.m + h, P.scale(sign)
            out.append((a2, sP.scale(Fraction(-a2, 2)),
                        [(sP.diff(q), P.diff(p)) for q, p in CANONICAL_PAIRS]))
    return out


def poisson_bracket(F: RadicalElement, G: RadicalElement) -> RadicalElement:
    """{F, G} = sum_q dF/dq dG/dp - dF/dp dG/dq, sign fixed by {x, px} = +1.

    By the Leibniz rule on the terms of F and G, with u momentum-free,
        {P u^-alpha, Q u^-beta} = u^-(alpha + beta) ({P, Q}
            - u^-1 sum_q u_q (alpha P dQ/dp_q - beta Q dP/dp_q)).
    The {P, Q} are summed by 2(alpha + beta) and the u_q sums by
    (2(alpha + beta), q); each u_q sum is multiplied by u_q once, and the
    sum at each power of u by that power once.  Only products of two
    nonzero polynomials are formed.  The result is the definition's, over
    the least power of u these sums need.
    """
    F._check(G)
    levels: dict[int, Polynomial] = {}  # 2(alpha + beta) -> sum
    grads: dict[tuple[int, int], Polynomial] = {}  # (2(alpha + beta), q) -> sum
    # G's terms enter negated, so every sum is a sum of products:
    # {P, Q} = sum dP/dq dQ/dp + dP/dp (-dQ/dq), and the u_q sum, with its
    # sign, is (-alpha P) dQ/dp + (beta Q) dP/dp
    g_terms = _bracket_terms(G, -1)
    for a2, p_alpha, dP in _bracket_terms(F, 1):
        for b2, q_beta, dQ in g_terms:
            e = a2 + b2
            for q, (Pq, Pp), (Qq, Qp) in zip(COORDS, dP, dQ):
                if Pq and Qp:
                    _accumulate(levels, e, Pq * Qp)
                if Pp and Qq:
                    _accumulate(levels, e, Pp * Qq)
                if p_alpha and Qp:
                    _accumulate(grads, (e, q), p_alpha * Qp)
                if q_beta and Pp:
                    _accumulate(grads, (e, q), q_beta * Pp)
    ring = F.ring
    for (e, q), g in grads.items():
        _accumulate(levels, e + 2, g * ring.du[q])
    levels = {e: p for e, p in levels.items() if p}
    if not levels:
        return ring.zero()
    # u^(-e/2) = u^(-m) u^(m - e // 2), times s for odd e
    m = max(levels) // 2
    parts: dict[int, Polynomial] = {}  # A at 0, B at 1
    for e, p in levels.items():
        _accumulate(parts, e % 2, p * ring.u ** (m - e // 2) if m > e // 2 else p)
    zero = Polynomial.zero()
    return RadicalElement(ring, parts.get(0, zero), parts.get(1, zero), m)


# -- individual checks -------------------------------------------------


def verify_involution(ctx: SystemContext) -> list[CheckResult]:
    """{H,X1}, {H,X2}, {X1,X2} all vanish exactly, parameters symbolic."""
    pairs = [
        ("involution.{H,X1}", ctx.H, ctx.X1),
        ("involution.{H,X2}", ctx.H, ctx.X2),
        ("involution.{X1,X2}", ctx.X1, ctx.X2),
    ]
    results = []
    for name, F, G in pairs:
        def chk(F=F, G=G):
            r = poisson_bracket(F, G)
            return r.is_zero(), _residual_summary(r)
        results.append(_timed(name, chk))
    return results


def _killing_tensors(ctx: SystemContext):
    """K1, K2 of the context's leading parts, X_i = K_i(p, p) + m_i; the
    momentum-linear part of {H, X_i} = 0 is grad m_i = 2 K_i grad V."""
    return extract_killing_tensor(ctx.x1_leading), extract_killing_tensor(ctx.x2_leading)


def verify_m_system(ctx: SystemContext) -> list[CheckResult]:
    """The six gradient equations grad m_i = 2 K_i grad V."""
    grad_v = ctx.V.grad_coords()
    results = []
    for idx, mi, kt in zip((1, 2), (ctx.m1, ctx.m2), _killing_tensors(ctx)):
        for qi, qvar in enumerate(COORDS):
            name = f"m_system.grad_m{idx}_{'xyz'[qi]}"

            def chk(mi=mi, qi=qi, qvar=qvar, row=kt.K[qi]):
                rhs = ctx.ring.zero()
                for kpoly, dv in zip(row, grad_v):
                    if kpoly:
                        rhs = rhs + 2 * kpoly * dv
                r = mi.diff(qvar) - rhs
                return r.is_zero(), _residual_summary(r)

            results.append(_timed(name, chk))
    return results


def verify_invariant_coordinate(ctx: SystemContext) -> list[CheckResult]:
    """Both characteristic fields annihilate u, and V = w0/sqrt(u) with them."""
    n1, d1, n2, d2 = build_characteristics()
    u = ctx.u
    grad_v = ctx.V.grad_coords()

    def field_check(var, n, d, grad_var):
        # the field d d/dvar - n d/dz annihilates u and V
        def chk():
            pres = d * u.diff(var) - n * u.diff(Z)
            rres = ctx.ring.from_poly(d) * grad_var - ctx.ring.from_poly(n) * grad_v[2]
            ok = pres.is_zero() and rres.is_zero()
            return ok, f"u: {_poly_summary(pres)}; V: {_residual_summary(rres)}"
        return chk

    return [
        _timed("invariant_coordinate.x_field", field_check(X, n1, d1, grad_v[0])),
        _timed("invariant_coordinate.y_field", field_check(Y, n2, d2, grad_v[1])),
    ]


def verify_ode_reduction(
    v_terms: dict[Fraction, Fraction] | None = None,
) -> CheckResult:
    """v(t) = t^(-1/2) solves 2 t v'' + 3 v' = 0 exactly (half-power algebra)."""
    if v_terms is None:
        v_terms = {Fraction(-1, 2): Fraction(1)}

    def chk():
        # 2 t v'' + 3 v' of c t^p is c p (2p + 1) t^(p-1): each power of v
        # gives its own power of the residual, so none merge
        res = {p - 1: r for p, c in v_terms.items() if (r := c * p * (2 * p + 1))}
        return not res, ("residual 0" if not res else f"nonzero residual: {len(res)} powers")

    return _timed("ode_reduction", chk)


def verify_rank_R(ctx: SystemContext) -> CheckResult:
    """R grad u = w x grad u = 0 for R the cross-product matrix of
    w = (N1*D2, N2*D1, D1*D2), the direction that both characteristic
    relations (build_characteristics) annihilate.  R is antisymmetric by
    construction, so w != 0 gives rank 2."""
    def chk():
        n1, d1, n2, d2 = build_characteristics()
        wx, wy, wz = n1 * d2, n2 * d1, d1 * d2
        # R annihilates grad u (polynomial identities, parameters symbolic)
        ux, uy, uz = (ctx.u.diff(v) for v in COORDS)
        for i, row in enumerate((wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux)):
            if not row.is_zero():
                return False, f"row {i} of R @ grad u nonzero ({len(row)} terms)"
        if not (wx or wy or wz):
            return False, "w = 0"
        # the y^3 source term survives for every parameter choice
        y3 = tuple(3 if i == Y else 0 for i in range(9))
        y3_coeff = n2.collect((X, Y, Z)).get(y3)
        if y3_coeff is None or y3_coeff != Polynomial.constant(1):
            return False, "y^3 coefficient of N2 is not the constant 1"
        # a nonzero antisymmetric 3x3 matrix has even rank below 3
        return True, "antisymmetric, annihilates grad u, nonzero, so rank 2"

    return _timed("rank_R", chk)


def _det3(m) -> Polynomial:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def verify_functional_independence(
    ctx: SystemContext, x2_leading: Polynomial | None = None
) -> CheckResult:
    def chk():
        # momentum gradients of H, X1 and X2, whose leading parts carry all p
        leading = (ctx.H.A, ctx.x1_leading, ctx.x2_leading if x2_leading is None else x2_leading)
        det = _det3([[obs.diff(p) for p in MOMENTA] for obs in leading])
        if det.is_zero():
            return False, "determinant identically zero"
        return True, f"determinant nonzero ({len(det)} terms)"

    return _timed("functional_independence", chk)


def verify_killing_commutator(
    ctx: SystemContext, k1=None, k2=None
) -> CheckResult:
    def chk():
        t1, t2 = _killing_tensors(ctx)
        comm = (t1 if k1 is None else k1).commutator(t2 if k2 is None else k2)
        nonzero = sum(1 for i in range(3) for j in range(3) if not comm[i][j].is_zero())
        if nonzero == 0:
            return False, "Killing tensors commute"
        return True, f"commutator has {nonzero} nonzero entries"

    return _timed("killing_commutator", chk)


# -- exceptional sets ---------------------------------------------------


def _exceptional(factors: dict[str, Polynomial]) -> str:
    """The product of the named factors, e.g. 'a(a-1)b'."""
    return "".join(n if n.isalnum() else f"({n})" for n in factors)


def _peel_failure(solution, ncols: int, factors: dict[str, Polynomial]) -> str | None:
    """None when a peel from solve_exact_sparse proves its system has one
    solution wherever no factor in ``factors`` vanishes, else why not.  It
    must pin all ``ncols`` unknowns and leave no row, and each pivot must
    come down to a nonzero rational when divided by the factors as often
    as the division is exact."""
    pinned, pivots, left = solution
    if len(pinned) < ncols or left:
        return (f"inconclusive: the peel pinned {len(pinned)} of {ncols} unknowns "
                f"and left {len(left)} rows")
    for p in dict.fromkeys(pivots):  # each distinct pivot once, in pin order
        rest = p
        for f in factors.values():
            while (q := rest.divide_exact(f)) is not None:
                rest = q
        if rest.variables():
            return (f"inconclusive: pivot {p.canonical_str()} has a factor "
                    f"outside {_exceptional(factors)}")
    return None


# -- first-order integral scan ----------------------------------------


def _killing_generators(w: Polynomial) -> list[Polynomial]:
    """(alpha + beta x q).grad w as the coefficients of its six unknowns
    (ax, ay, az, bx, by, bz)."""
    wx, wy, wz = (w.diff(v) for v in COORDS)
    return [
        wx, wy, wz,                       # translations
        y * wz - z * wy,                  # rotations: (beta x q) . grad w
        z * wx - x * wz,
        x * wy - y * wx,
    ]


def killing_vector_system(w: Polynomial):
    """Linear system for constant alpha, beta with (alpha + beta x q).grad w = 0.

    ``w`` must involve coordinates only (parameters already specialized).
    Columns are ordered (ax, ay, az, bx, by, bz); one row per coordinate
    monomial of the expanded condition.
    """
    rows: dict[tuple[int, ...], list[Fraction]] = {}
    for i, g in enumerate(_killing_generators(w)):
        for mono, c in g.terms.items():
            rows.setdefault(mono, [Fraction(0)] * 6)[i] = c
    return list(rows.values())


def _scan_check(w: Polynomial, factors: dict[str, Polynomial], field: str):
    failure = _peel_failure(solve_exact_sparse([_killing_generators(w)], 6), 6, factors)
    if failure:
        return False, failure
    return True, (f"rank 6 over {field}, empty nullspace; "
                  f"pivots nonzero unless {_exceptional(factors)} = 0")


def first_order_integral_scan(ctx: SystemContext) -> list[CheckResult]:
    """No first-order (Killing-vector) integral: the peel pins all six
    unknowns to 0 over Q(a, b), and again at a = 1/2, the root in the
    domain of 2a - 1, a factor the symbolic run allows its pivots."""
    return [
        _timed("first_order_scan.symbolic",
               lambda: _scan_check(ctx.u, SCAN_FACTORS, "Q(a, b)")),
        _timed("first_order_scan.a=1/2",
               lambda: _scan_check(ctx.u.specialize({A: HALF}), {"b": b}, "Q(b)")),
    ]


# -- factorization ----------------------------------------------------

# stand-ins c, s, i for sqrt(1 - a), sqrt(a), sqrt(-1), by their squares;
# u has no momenta
_STAND_INS = {PX: 1 - a, PY: a, PZ: Polynomial.constant(-1)}


def _reduce_stand_ins(p: Polynomial) -> Polynomial:
    """p with each power v^n of a stand-in v written as (v^2)^(n // 2) v^(n % 2)."""
    out = Polynomial.zero()
    for mono, coeff in p.collect(_STAND_INS).items():
        term = coeff * Polynomial.monomial([k % 2 for k in mono])
        for v, square in _STAND_INS.items():
            term = term * square ** (mono[v] // 2)
        out = out + term
    return out


def _hyperplane_factors() -> list[Polynomial]:
    """The four complex linear factors of u, for (eps1, eps2) = (1, 1),
    (1, -1), (-1, 1), (-1, -1): eps1 c i x + eps1 eps2 y + eps2 s i z - 3 c s b
    in the stand-ins c = px, s = py, i = pz."""
    c, s, i = px, py, pz
    return [e1 * c * i * x + e1 * e2 * y + e2 * s * i * z - 3 * c * s * b
            for e1 in (1, -1) for e2 in (1, -1)]


def verify_factorization(ctx: SystemContext, u_poly: Polynomial | None = None) -> list[CheckResult]:
    """u = P^2 - a(1-a) Q^2 = F+ F-, the squared distances to the two
    singular lines, and u = the product of the four complex hyperplanes,
    as identities in a and b."""
    u = u_poly if u_poly is not None else ctx.u

    def chk_lines():
        p = y**2 + (1 - a) * x**2 + a * z**2 + 9 * a * (1 - a) * b**2
        q = 2 * x * z - 6 * b * y
        diff = p**2 - a * (1 - a) * q**2 - u
        return diff.is_zero(), _poly_summary(diff)

    def chk_hyperplanes():
        f = _hyperplane_factors()
        diff = _reduce_stand_ins(f[0] * f[3] * (f[1] * f[2])) - u
        return diff.is_zero(), _poly_summary(diff)

    return [
        _timed("factorization.lines", chk_lines),
        _timed("factorization.hyperplanes", chk_hyperplanes),
    ]


# -- scalar-part ansatz oracle ----------------------------------------


def solve_scalar_ansatz(ctx: SystemContext, perturb_rhs: Polynomial | None = None):
    """Independently recover the scalar parts m1, m2 from the gradient system.

    Posits m_i = Q_i * w0 / sqrt(u), with Q_i = sum c_alpha q^alpha over
    the 10 coordinate monomials of degree <= 2 and c_alpha in Q(a, b),
    matches the exact gradient equations over x, y, z and peels the linear
    system (``solve_exact_sparse``).  m1 and m2 share the system's matrix
    and differ only in the right-hand side, so one peel serves both; that
    shared time is charged to scalar_ansatz.m1.  ``perturb_rhs`` is added
    to the x equation of both.  Returns (m1_elem, m2_elem, [CheckResult]),
    with None for both elements when the peel is inconclusive.
    Raises NoSolution, naming each inconsistent system, if any is.
    """
    t0 = time.perf_counter()
    tensors = _killing_tensors(ctx)
    # u and its gradient from the ring that m1, m2 and the solution live in
    u, grad_u = ctx.ring.u, ctx.ring.du[:3]
    basis = [(dx, dy, dz, 0, 0, 0, 0, 0, 0)
             for dx in range(3) for dy in range(3 - dx) for dz in range(3 - dx - dy)]
    monos = [Polynomial.monomial(e) for e in basis]
    # equation per coordinate q (grad m_i = 2 K_i grad V, V = w0/sqrt(u)):
    #   sum_g c_g (dq(g) u - 1/2 g dq(u))  =  -sum_c K_i[q][c] dc(u)
    # g = q dq(g) / k for k = deg_q(g) >= 1, so each column is one product
    # by a monomial: dq(g) (u - q dq(u) / (2k)), or g (-1/2 dq(u)) if k = 0
    equations = []  # per coordinate: the columns, then both right-hand sides
    for qi, (qvar, du) in enumerate(zip(COORDS, grad_u)):
        half_q_du = Polynomial.variable(qvar) * du.scale(HALF)
        factors = (du.scale(-HALF), u - half_q_du, u - half_q_du.scale(HALF))
        polys = [g.diff(qvar) * factors[k] if (k := e[qvar]) else g * factors[0]
                 for e, g in zip(basis, monos)]
        for kt in tensors:
            rhs_poly = Polynomial.zero()
            for kpoly, dcu in zip(kt.K[qi], grad_u):
                if kpoly:
                    rhs_poly = rhs_poly - kpoly * dcu
            if perturb_rhs is not None and qi == 0:
                rhs_poly = rhs_poly + perturb_rhs
            polys.append(rhs_poly)
        equations.append(polys)
    solution = solve_exact_sparse(equations, len(basis))
    pinned, _, left = solution
    inconsistent = [f"m{k + 1}" for k in range(2) if any(not e and r[k] for e, r in left)]
    if inconsistent:
        raise NoSolution(f"scalar ansatz system inconsistent for {' and '.join(inconsistent)}")
    failure = _peel_failure(solution, len(basis), ANSATZ_FACTORS)
    recovered = {}
    results = []
    for idx in (1, 2):
        if failure:
            elem, passed, summary = None, False, failure
        else:
            q_poly = sum((c * g for j, g in enumerate(monos) if (c := pinned[j][idx - 1])),
                         Polynomial.zero())
            elem = RadicalElement(ctx.ring, Polynomial.zero(), w0 * q_poly, 0)
            diff = elem - (ctx.m1 if idx == 1 else ctx.m2)
            # the difference must have zero coordinate-gradient (an additive constant)
            passed = all(diff.diff(v).is_zero() for v in COORDS)
            summary = (
                f"solution unique over Q(a, b), pivots nonzero unless "
                f"{_exceptional(ANSATZ_FACTORS)} = 0; difference to catalog m{idx} is "
                + ("a constant" if passed else "NOT constant")
            )
        recovered[idx] = elem
        t1 = time.perf_counter()
        results.append(CheckResult(f"scalar_ansatz.m{idx}", passed, summary, (t1 - t0) * 1e3))
        t0 = t1
    return recovered[1], recovered[2], results


# -- report runner -----------------------------------------------------


def context_fingerprint(ctx: SystemContext) -> str:
    # imported here: hashlib loads OpenSSL, and only a report needs it
    import hashlib

    h = hashlib.sha256()
    for p in (
        ctx.u,
        ctx.H.A,
        ctx.H.B,
        ctx.x1_leading,
        ctx.x2_leading,
        ctx.m1_numerator,
        ctx.m2_numerator,
        *build_characteristics(),
    ):
        h.update(p.canonical_str().encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _scalar_ansatz_results(ctx: SystemContext) -> list[CheckResult]:
    """solve_scalar_ansatz's two results; an inconsistent system fails both,
    its time charged to scalar_ansatz.m1 like the shared solve."""
    t0 = time.perf_counter()
    try:
        return solve_scalar_ansatz(ctx)[2]
    except NoSolution as exc:
        elapsed = (time.perf_counter() - t0) * 1e3
        return [CheckResult("scalar_ansatz.m1", False, str(exc), elapsed),
                CheckResult("scalar_ansatz.m2", False, str(exc), 0.0)]


def run_report(ctx: SystemContext, only: str | None = None) -> VerificationReport:
    """Run the full check battery in a fixed, deterministic order.

    ``only`` filters by substring of the check-group name; one that
    matches no group raises ValueError, which names the groups.  The
    report's ``total_ms`` is the wall time of the checks that ran.
    """
    groups = [
        ("involution", lambda: verify_involution(ctx)),
        ("m_system", lambda: verify_m_system(ctx)),
        ("invariant_coordinate", lambda: verify_invariant_coordinate(ctx)),
        ("ode_reduction", lambda: [verify_ode_reduction()]),
        ("rank_R", lambda: [verify_rank_R(ctx)]),
        ("functional_independence", lambda: [verify_functional_independence(ctx)]),
        ("killing_commutator", lambda: [verify_killing_commutator(ctx)]),
        ("first_order_scan", lambda: first_order_integral_scan(ctx)),
        ("factorization", lambda: verify_factorization(ctx)),
        ("scalar_ansatz", lambda: _scalar_ansatz_results(ctx)),
    ]
    selected = [fn for name, fn in groups if not only or only in name]
    if not selected:
        raise ValueError(f"only = {only!r} matches no check group; the groups are "
                         + ", ".join(name for name, _ in groups))
    results: list[CheckResult] = []
    t0 = time.perf_counter()
    for fn in selected:
        results.extend(fn())
    total_ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(results, context_fingerprint(ctx), total_ms)
