"""Poisson-bracket engine and the battery of exact identity checks.

Every check is a pure function returning CheckResult records; failure is
a reported result, never an exception.  All polynomial identities run
with a, b, w0 fully symbolic.  Two checks (the first-order integral scan
and the exact factorization) necessarily sample the parameters, because
sqrt(a) has no exact symbolic carrier here; Pythagorean rationals make
those samples exact.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    A,
    B,
    COORDS,
    MOMENTA,
    PX,
    PY,
    PZ,
    X,
    Y,
    Z,
    GaussPoly,
    Polynomial,
    coefficient_rows,
    gauss_poly_expand,
    matrix_rank_exact,
    nullspace_exact,
    rational_sqrt,
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


class ParamNotPythagorean(Exception):
    """Exact factorization needs sqrt(a), sqrt(1-a) rational."""


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
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
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
            f"quadint verification report (version {self.version})",
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


def _bracket(F, G, out):
    """out + {F, G} = out + sum_q dF/dq dG/dp - dF/dp dG/dq."""
    for q, p in CANONICAL_PAIRS:
        out = out + F.diff(q) * G.diff(p) - F.diff(p) * G.diff(q)
    return out


def poisson_bracket(F: RadicalElement, G: RadicalElement) -> RadicalElement:
    """{F, G} = sum_q dF/dq dG/dp - dF/dp dG/dq, sign fixed by {x, px} = +1."""
    return _bracket(F, G, F.ring.zero())


def poly_poisson_bracket(F: Polynomial, G: Polynomial) -> Polynomial:
    """Bracket of two plain polynomials (used for leading-part checks)."""
    return _bracket(F, G, Polynomial.zero())


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


def _half_power_residual(v_terms: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    """Residual of 2*t*v''(t) + 3*v'(t) for v a sum of c * t^p, p half-integer."""
    out: dict[Fraction, Fraction] = {}

    def add(p, c):
        if not c:
            return
        s = out.get(p, Fraction(0)) + c
        if s:
            out[p] = s
        else:
            out.pop(p, None)

    for p, c in v_terms.items():
        add(p - 1, 2 * c * p * (p - 1))  # 2 t v''
        add(p - 1, 3 * c * p)            # 3 v'
    return out


def verify_ode_reduction(
    v_terms: dict[Fraction, Fraction] | None = None,
) -> CheckResult:
    """v(t) = t^(-1/2) solves 2 t v'' + 3 v' = 0 exactly (half-power algebra)."""
    if v_terms is None:
        v_terms = {Fraction(-1, 2): Fraction(1)}

    def chk():
        res = _half_power_residual(v_terms)
        return not res, ("residual 0" if not res else f"nonzero residual: {len(res)} powers")

    return _timed("ode_reduction", chk)


def build_rank_matrix(characteristics):
    """Antisymmetric coefficient matrix R with R @ grad V = 0.

    R is the cross-product matrix of (N1*D2, N2*D1, D1*D2), the direction
    annihilated by both characteristic relations (build_characteristics).
    """
    n1, d1, n2, d2 = characteristics
    w = (n1 * d2, n2 * d1, d1 * d2)
    zero = Polynomial.zero()
    return (
        (zero, -w[2], w[1]),
        (w[2], zero, -w[0]),
        (-w[1], w[0], zero),
    ), w


def verify_rank_R(ctx: SystemContext) -> CheckResult:
    def chk():
        _, _, n2, _ = characteristics = build_characteristics()
        R, w = build_rank_matrix(characteristics)
        # antisymmetry
        for i in range(3):
            for j in range(3):
                if not (R[i][j] + R[j][i]).is_zero():
                    return False, f"R[{i}][{j}] not antisymmetric"
        # R annihilates grad u (polynomial identities, parameters symbolic)
        grad_u = tuple(ctx.u.diff(v) for v in COORDS)
        for i in range(3):
            row = sum((R[i][j] * grad_u[j] for j in range(3)), Polynomial.zero())
            if not row.is_zero():
                return False, f"row {i} of R @ grad u nonzero ({len(row)} terms)"
        if all(R[i][j].is_zero() for i in range(3) for j in range(3)):
            return False, "R vanishes identically"
        # the y^3 source term survives for every parameter choice
        y3 = tuple(3 if i == Y else 0 for i in range(9))
        y3_coeff = n2.collect((X, Y, Z)).get(y3)
        if y3_coeff is None or y3_coeff != Polynomial.constant(1):
            return False, "y^3 coefficient of N2 is not the constant 1"
        # exact rank 2 at a sample point
        point = {
            A: Fraction(1, 3), B: Fraction(2),
            X: Fraction(5, 7), Y: Fraction(3, 11), Z: Fraction(-2, 5),
        }
        sample = [[R[i][j].eval_exact(point) for j in range(3)] for i in range(3)]
        rank = matrix_rank_exact(sample)
        if rank != 2:
            return False, f"rank at sample point = {rank}, expected 2"
        return True, "antisymmetric, annihilates grad u, nonzero, sampled rank 2"

    return _timed("rank_R", chk)


def momentum_jacobian(ctx: SystemContext):
    """3x3 matrix of momentum-gradients of (H, X1, X2); entries pure polynomials."""
    kinetic = ctx.H.A
    rows = []
    for obs in (kinetic, ctx.x1_leading, ctx.x2_leading):
        rows.append(tuple(obs.diff(p) for p in MOMENTA))
    return rows


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
        rows = momentum_jacobian(ctx)
        if x2_leading is not None:
            rows[2] = tuple(x2_leading.diff(p) for p in MOMENTA)
        det = _det3(rows)
        if det.is_zero():
            return False, "determinant identically zero"
        # numeric spot check at the reference parameters
        pt = {A: 0.25, B: 1.0, X: 0.3, Y: -0.7, Z: 0.9,
              PX: 0.2, PY: -0.5, PZ: 0.8, 8: -1.0}
        val = det.eval_float(pt)
        if val == 0.0:
            return False, "determinant vanished at the sample phase point"
        return True, f"determinant nonzero ({len(det)} terms); sample |det| = {abs(val):.3g}"

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


# -- first-order integral scan ----------------------------------------


def killing_vector_system(w: Polynomial):
    """Linear system for constant alpha, beta with (alpha + beta x q).grad w = 0.

    ``w`` must involve coordinates only (parameters already specialized).
    Columns are ordered (ax, ay, az, bx, by, bz); one row per coordinate
    monomial of the expanded condition.
    """
    wx, wy, wz = (w.diff(v) for v in COORDS)
    xp, yp, zp = (Polynomial.variable(v) for v in COORDS)
    generators = [
        wx, wy, wz,                       # translations
        yp * wz - zp * wy,                # rotations: (beta x q) . grad w
        zp * wx - xp * wz,
        xp * wy - yp * wx,
    ]
    zero = Fraction(0)
    return [[row.get(i, zero) for i in range(6)] for row in coefficient_rows(generators).values()]


def first_order_integral_scan(
    ctx: SystemContext,
    samples: tuple = ((Fraction(1, 4), Fraction(1)), (Fraction(9, 25), Fraction(1))),
) -> list[CheckResult]:
    """No first-order (Killing-vector) integral exists at the sampled
    parameter pairs: the 6-unknown exact system has trivial nullspace."""
    results = []
    for a_val, b_val in samples:
        name = f"first_order_scan.a={a_val}_b={b_val}"

        def chk(a_val=a_val, b_val=b_val):
            w = ctx.u.specialize({A: a_val, B: b_val})
            rows = killing_vector_system(w)
            basis = nullspace_exact(rows)
            rank = 6 - len(basis)          # 6 unknowns
            if basis:
                return False, f"nullspace dimension {len(basis)} (rank {rank})"
            return True, f"rank {rank}, empty nullspace"

        results.append(_timed(name, chk))
    return results


# -- factorization ----------------------------------------------------


def hyperplane_factors_exact(a_val: Fraction):
    """The four complex linear factors of u at a Pythagorean parameter.

    Each factor is eps1*sqrt(1-a)*i*x + eps1*eps2*y + eps2*sqrt(a)*i*z
    - 3*sqrt(a(1-a))*b, as a GaussPoly in x, y, z, b.
    """
    ra = rational_sqrt(a_val)
    rc = rational_sqrt(1 - a_val)
    if ra is None or rc is None:
        raise ParamNotPythagorean(f"a = {a_val}: sqrt(a), sqrt(1-a) not both rational")
    xp, yp, zp = (Polynomial.variable(v) for v in COORDS)
    bp = Polynomial.variable(B)
    factors = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            re = (e1 * e2) * yp - 3 * ra * rc * bp
            im = (e1 * rc) * xp + (e2 * ra) * zp
            factors.append(GaussPoly(re, im))
    return factors


FACTOR_A_EXACT = Fraction(9, 25)  # Pythagorean: sqrt(a) and sqrt(1 - a) rational
FACTOR_A_FLOAT = 0.25
FACTOR_FLOAT_POINTS = 20


def verify_factorization(ctx: SystemContext, u_poly: Polynomial | None = None) -> list[CheckResult]:
    u = u_poly if u_poly is not None else ctx.u

    def chk_exact():
        prod = gauss_poly_expand(hyperplane_factors_exact(FACTOR_A_EXACT))
        if not prod.is_real():
            return False, f"imaginary part nonzero: {len(prod.im)} terms"
        diff = prod.re - u.specialize({A: FACTOR_A_EXACT})
        return diff.is_zero(), _poly_summary(diff)

    def chk_float():
        import random

        rng = random.Random(20260823)
        af = FACTOR_A_FLOAT
        sa, sc = af**0.5, (1.0 - af) ** 0.5
        worst = 0.0
        for _ in range(FACTOR_FLOAT_POINTS):
            xv, yv, zv, bv = (rng.uniform(-2, 2) for _ in range(4))
            prod = 1.0 + 0.0j
            for e1 in (1, -1):
                for e2 in (1, -1):
                    prod *= (
                        e1 * sc * 1j * xv
                        + e1 * e2 * yv
                        + e2 * sa * 1j * zv
                        - 3.0 * (af * (1.0 - af)) ** 0.5 * bv
                    )
            uval = u.eval_float({X: xv, Y: yv, Z: zv, A: af, B: bv})
            scale = max(abs(uval), abs(prod), 1e-30)
            err = abs(prod - uval) / scale
            worst = max(worst, err)
        ok = worst < 1e-10
        return ok, f"max relative error {worst:.3g} over {FACTOR_FLOAT_POINTS} points"

    return [
        _timed(f"factorization.exact_a={FACTOR_A_EXACT}", chk_exact),
        _timed(f"factorization.float_a={FACTOR_A_FLOAT}", chk_float),
    ]


# -- scalar-part ansatz oracle ----------------------------------------


def _ansatz_basis():
    """Monomials q^alpha * a^i * b^j with deg(q) <= 2, i + j <= 4."""
    basis = []
    for dx in range(3):
        for dy in range(3 - dx):
            for dz in range(3 - dx - dy):
                for da in range(5):
                    for db in range(5 - da):  # exponents in alphabet order x .. w0
                        basis.append((dx, dy, dz, 0, 0, 0, da, db, 0))
    return basis


def solve_scalar_ansatz(ctx: SystemContext, perturb_rhs: Polynomial | None = None):
    """Independently recover the scalar parts m1, m2 from the gradient system.

    Posits m_i = Q_i(x,y,z;a,b) * w0 / sqrt(u) with unknown rational
    coefficients, matches the exact gradient equations, and solves the
    resulting linear system.  m1 and m2 share the system's matrix and
    differ only in the right-hand side, so the matrix is built and
    eliminated once, with both right-hand sides; that shared time is
    charged to scalar_ansatz.m1.  ``perturb_rhs`` is added to the x
    equation of both.  Returns (m1_elem, m2_elem, [CheckResult]).
    Raises NoSolution, naming each inconsistent system, if any is.
    """
    t0 = time.perf_counter()
    tensors = _killing_tensors(ctx)
    u = ctx.u
    basis = _ansatz_basis()
    monos = [Polynomial.monomial(e) for e in basis]
    ncols = len(basis)
    # equation per coordinate q (grad m_i = 2 K_i grad V, V = w0/sqrt(u)):
    #   sum_g lam_g (dq(g) u - 1/2 g dq(u))  =  -sum_c K_i[q][c] dc(u)
    # g = q dq(g) / k for k = deg_q(g) >= 1, so each column is one product
    # by a monomial: dq(g) (u - q dq(u) / (2k)), or g (-1/2 dq(u)) if k = 0
    equations = []  # per coordinate: the ncols columns, then both right-hand sides
    grad_u = tuple(u.diff(v) for v in COORDS)
    for qi, (qvar, du) in enumerate(zip(COORDS, grad_u)):
        half_q_du = Polynomial.variable(qvar) * du.scale(HALF)
        factors = (du.scale(-HALF), u - half_q_du, u - half_q_du.scale(HALF))
        polys = [g.diff(qvar) * factors[k] if (k := e[qvar]) else g * factors[0]
                 for e, g in zip(basis, monos)]
        for kt in tensors:
            rhs_poly = Polynomial.zero()
            for kpoly, dcu in zip(kt.K[qi], grad_u):
                rhs_poly = rhs_poly - kpoly * dcu
            if perturb_rhs is not None and qi == 0:
                rhs_poly = rhs_poly + perturb_rhs
            polys.append(rhs_poly)
        equations.append(polys)
    particulars, null_basis = solve_exact_sparse(equations, ncols)
    unique = not null_basis
    recovered = {}
    results = []
    inconsistent = [f"m{idx}" for idx, p in zip((1, 2), particulars) if p is None]
    if inconsistent:
        raise NoSolution(f"scalar ansatz system inconsistent for {' and '.join(inconsistent)}")
    for idx, particular in zip((1, 2), particulars):
        q_poly = Polynomial({e: c for e, c in zip(basis, particular) if c})
        elem = RadicalElement(ctx.ring, Polynomial.zero(), Polynomial.variable(8) * q_poly, 0)
        recovered[idx] = elem
        target = ctx.m1 if idx == 1 else ctx.m2
        diff = elem - target
        # difference must have zero coordinate-gradient (an additive constant)
        grad_zero = all(diff.diff(v).is_zero() for v in COORDS)
        passed = grad_zero and unique
        t1 = time.perf_counter()
        summary = (
            f"solution {'unique' if unique else f'has {len(null_basis)}-dim nullspace'}; "
            f"difference to catalog m{idx} is "
            + ("a constant" if grad_zero else "NOT constant")
        )
        results.append(CheckResult(f"scalar_ansatz.m{idx}", passed, summary, (t1 - t0) * 1e3))
        t0 = t1
    return recovered[1], recovered[2], results


# -- report runner -----------------------------------------------------


def context_fingerprint(ctx: SystemContext) -> str:
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

    ``only`` filters by substring of the check-group name.  The report's
    ``total_ms`` is the wall time of the checks that ran.
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
    results: list[CheckResult] = []
    t0 = time.perf_counter()
    for name, fn in groups:
        if only and only not in name:
            continue
        results.extend(fn())
    total_ms = (time.perf_counter() - t0) * 1e3
    return VerificationReport(results, context_fingerprint(ctx), total_ms)
