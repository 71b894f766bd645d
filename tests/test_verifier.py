"""Bracket engine properties, the identity battery, and mutation sensitivity.

Every verify_* function gets both a pass case (the catalog system) and at
least one mutation case (a deliberately broken input) so that a silent
always-pass regression cannot slip through.
"""

import dataclasses
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadint.algebra import (
    COORDS,
    MOMENTA,
    PZ,
    X,
    Y,
    Z,
    Polynomial,
    generators,
    nullspace_exact,
    solve_exact_sparse,
)
from quadint.catalog import build_characteristics, build_context, extract_killing_tensor
from quadint.radical import RadicalElement
from quadint.verifier import (
    ANSATZ_FACTORS,
    SCAN_FACTORS,
    NoSolution,
    _hyperplane_factors,
    _peel_failure,
    _reduce_stand_ins,
    first_order_integral_scan,
    killing_vector_system,
    poisson_bracket,
    run_report,
    solve_scalar_ansatz,
    verify_factorization,
    verify_functional_independence,
    verify_invariant_coordinate,
    verify_involution,
    verify_killing_commutator,
    verify_m_system,
    verify_ode_reduction,
    verify_rank_R,
)

x, y, z, px, py, pz, a, b, w0 = generators()


@pytest.fixture(scope="module")
def ctx():
    return build_context()


@pytest.fixture(scope="module")
def alt_ctx():
    return build_context(alt_ly=True)


def _all_pass(results):
    return all(r.passed for r in results)


# -- bracket engine properties -----------------------------------------


def _lifted(ctx, *polys):
    return [ctx.ring.from_poly(p) for p in polys]


def test_canonical_bracket_sign(ctx):
    x_, px_ = _lifted(ctx, x, px)
    assert poisson_bracket(x_, px_) == ctx.ring.one()
    assert poisson_bracket(px_, x_) == -ctx.ring.one()


def test_poly_bracket_antisymmetric(ctx):
    f, g = _lifted(ctx, x**2 * px + y * pz, py * pz + z**2)
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)


def test_poly_bracket_bilinear(ctx):
    f, g, h = _lifted(ctx, x * px, y**2 * pz, z * py)
    lhs = poisson_bracket(f + 3 * g, h)
    rhs = poisson_bracket(f, h) + 3 * poisson_bracket(g, h)
    assert lhs == rhs


def test_poly_bracket_leibniz(ctx):
    f, g, h = _lifted(ctx, x * py, z * px + y, pz**2)
    lhs = poisson_bracket(f * g, h)
    rhs = f * poisson_bracket(g, h) + poisson_bracket(f, h) * g
    assert lhs == rhs


def test_poly_bracket_jacobi(ctx):
    # momentum degree <= 2, as in the observables of interest
    f, g, h = _lifted(ctx, px**2 + x * y, x * py - y * px, z * pz + x**2)
    s = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert s.is_zero()


def test_radical_bracket_against_chain_rule(ctx):
    # {p^2/2, s} = -sum_i p_i ds/dq_i with ds/dq_i = -1/2 u_qi s^3
    ring = ctx.ring
    kinetic = ring.from_poly(
        Fraction(1, 2) * (px**2 + py**2 + pz**2)
    )
    s = ring.s()
    br = poisson_bracket(kinetic, s)
    expected = ring.zero()
    mom = (px, py, pz)
    for i, qv in enumerate((X, Y, Z)):
        term = ring.from_poly(mom[i]) * s.diff(qv)
        expected = expected - term
    assert br == expected


def test_radical_bracket_antisymmetric(ctx):
    ring = ctx.ring
    f = RadicalElement(ring, x * px, py, 0)
    g = RadicalElement(ring, z, x * pz, 1)
    assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()


def test_radical_bracket_leibniz(ctx):
    ring = ctx.ring
    f = RadicalElement(ring, px, Polynomial.constant(1), 0)
    g = ring.from_poly(x * y)
    h = ring.s()
    lhs = poisson_bracket(f * g, h)
    rhs = f * poisson_bracket(g, h) + poisson_bracket(f, h) * g
    assert (lhs - rhs).is_zero()


def _bracket_by_definition(F, G):
    """The chain-rule oracle: sum_q F.diff(q) G.diff(p) - F.diff(p) G.diff(q)."""
    out = F.ring.zero()
    for q, p in zip(COORDS, MOMENTA):
        out = out + F.diff(q) * G.diff(p) - F.diff(p) * G.diff(q)
    return out


def _term(pairs, coeff):
    e = [0] * 9
    for v, k in pairs:
        e[v] = min(e[v] + k, 2)
    return coeff * Polynomial.monomial(e)


# up to three terms of degree <= 2 in x, y, z, the momenta and a; zero
# about one time in four
_parts = st.one_of(
    st.just(Polynomial.zero()),
    st.lists(
        st.builds(_term,
                  st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)), max_size=2),
                  st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=3,
    ).map(lambda terms: sum(terms, Polynomial.zero())),
)


@settings(max_examples=40, deadline=None)
@given(_parts, _parts, st.integers(0, 2), _parts, _parts, st.integers(0, 2))
def test_bracket_matches_the_definition(ctx, fa, fb, fm, ga, gb, gm):
    F = RadicalElement(ctx.ring, fa, fb, fm)
    G = RadicalElement(ctx.ring, ga, gb, gm)
    assert poisson_bracket(F, G) == _bracket_by_definition(F, G)


def test_bracket_matches_the_definition_on_a_broken_pair(ctx):
    bad = ctx.X2 + ctx.ring.from_poly(x * px)
    br = poisson_bracket(ctx.X1, bad)
    assert not br.is_zero()
    assert br == _bracket_by_definition(ctx.X1, bad)


# -- involution ---------------------------------------------------------


def test_involution_passes(ctx):
    results = verify_involution(ctx)
    assert len(results) == 3 and _all_pass(results)


def test_involution_mutation_alt_ly(alt_ctx):
    results = verify_involution(alt_ctx)
    assert not any(r.passed for r in results)


def test_involution_alt_ly_summaries(alt_ctx):
    # the bracket's (A, B, m) is over the least power of u its sums need
    assert [r.residual_summary for r in verify_involution(alt_ctx)] == [
        "nonzero residual: |A|=154 |B|=76 m=1",
        "nonzero residual: |A|=88 |B|=48 m=1",
        "nonzero residual: |A|=838 |B|=197 m=1",
    ]


def test_involution_mutation_perturbed_x1(ctx):
    bad = dataclasses.replace(ctx, X1=ctx.X1 + ctx.ring.from_poly(x * px))
    results = verify_involution(bad)
    assert not _all_pass(results)


# -- m system -----------------------------------------------------------


def test_m_system_passes(ctx):
    results = verify_m_system(ctx)
    assert len(results) == 6 and _all_pass(results)


def test_m_system_mutation_perturbed_m1(ctx):
    bad = dataclasses.replace(ctx, m1=ctx.m1 + ctx.ring.from_poly(x**2))
    results = verify_m_system(bad)
    failed = [r for r in results if not r.passed]
    assert failed and all("m1" in r.name for r in failed)


def test_m_system_follows_the_leading_parts(ctx):
    # the gradient coefficients are 2 K_i of the context's own leading parts:
    # a changed X1 leading part no longer matches the catalog m1
    bad = dataclasses.replace(ctx, x1_leading=ctx.x1_leading + x**2 * px**2)
    failed = [r.name for r in verify_m_system(bad) if not r.passed]
    assert failed and all("m1" in name for name in failed)
    try:
        _, _, results = solve_scalar_ansatz(bad)
    except NoSolution as exc:
        assert "m1" in str(exc)
    else:
        assert not results[0].passed


# -- invariant coordinate ----------------------------------------------


def test_invariant_coordinate_passes(ctx):
    results = verify_invariant_coordinate(ctx)
    assert len(results) == 2 and _all_pass(results)


def test_invariant_coordinate_mutation_sphere(ctx):
    bad = dataclasses.replace(ctx, u=x**2 + y**2 + z**2)
    results = verify_invariant_coordinate(bad)
    assert not _all_pass(results)


# -- ODE reduction ------------------------------------------------------


def test_ode_reduction_passes():
    assert verify_ode_reduction().passed


def test_ode_reduction_mutation_wrong_power():
    bad = {Fraction(-1): Fraction(1)}  # v = 1/t does not solve 2tv'' + 3v' = 0
    assert not verify_ode_reduction(bad).passed


def test_ode_reduction_other_solution_branch():
    # the second solution t^0 (constant) also lies in the kernel
    assert verify_ode_reduction({Fraction(0): Fraction(5)}).passed


# -- rank matrix --------------------------------------------------------


def test_rank_R_passes(ctx):
    assert verify_rank_R(ctx).passed


def test_rank_R_mutation_sphere(ctx):
    bad = dataclasses.replace(ctx, u=x**2 + y**2 + z**2)
    assert not verify_rank_R(bad).passed


# -- functional independence -------------------------------------------


def test_functional_independence_passes(ctx):
    assert verify_functional_independence(ctx).passed


def test_functional_independence_mutation_duplicate(ctx):
    res = verify_functional_independence(ctx, x2_leading=ctx.x1_leading)
    assert not res.passed


# -- Killing commutator -------------------------------------------------


def test_killing_commutator_passes(ctx):
    assert verify_killing_commutator(ctx).passed


def test_killing_commutator_mutation_self(ctx):
    kt = extract_killing_tensor(ctx.x1_leading)
    res = verify_killing_commutator(ctx, k1=kt, k2=kt)
    assert not res.passed


# -- first-order integral scan -----------------------------------------


def test_first_order_scan_passes(ctx):
    results = first_order_integral_scan(ctx)
    assert len(results) == 2 and _all_pass(results)


def test_scan_oracle_axisymmetric():
    # w = x^2 + y^2 admits the rotation about z: nullspace contains it
    w = x**2 + y**2
    basis = nullspace_exact(killing_vector_system(w))
    assert len(basis) >= 1
    # some basis vector activates the z-rotation slot (index 5)
    assert any(v[5] != 0 for v in basis)


def test_scan_oracle_z_only():
    # w = z^2 is invariant under x- and y-translations (slots 0 and 1)
    w = z**2
    basis = nullspace_exact(killing_vector_system(w))
    directions = {i for v in basis for i in range(6) if v[i] != 0}
    assert 0 in directions and 1 in directions


def test_first_order_scan_at_half_reports_rank_6(ctx):
    _, half = first_order_integral_scan(ctx)
    assert half.name == "first_order_scan.a=1/2" and half.passed
    assert half.residual_summary.startswith("rank 6 over Q(b)")


def test_scan_mutation_symmetric_potential(ctx):
    # the rotations stay unpinned, so the symbolic run is inconclusive
    sphere = dataclasses.replace(ctx, u=(x**2 + y**2 + z**2) ** 2)
    results = first_order_integral_scan(sphere)
    assert not any(r.passed for r in results)
    assert all(r.residual_summary.startswith("inconclusive: the peel pinned 3 of 6")
               for r in results)
    # sanity: the same system has the rotation algebra as its nullspace
    basis = nullspace_exact(killing_vector_system((x**2 + y**2 + z**2) ** 2))
    assert len(basis) == 3


def test_peel_failure_names_a_pivot_with_a_disallowed_factor():
    allowed = ({0: []}, [6 * a**2 * (a - 1) * b], [])
    assert _peel_failure(allowed, 1, ANSATZ_FACTORS) is None
    third = ({0: []}, [a - Fraction(1, 3)], [])
    assert _peel_failure(third, 1, ANSATZ_FACTORS).startswith("inconclusive: pivot")
    # 2a - 1 is allowed in the scan only
    half = ({0: []}, [4 * a * (2 * a - 1)], [])
    assert _peel_failure(half, 1, ANSATZ_FACTORS).startswith("inconclusive: pivot")
    assert _peel_failure(half, 1, SCAN_FACTORS) is None


def test_peel_failure_reports_a_division_that_is_not_exact():
    solution = solve_exact_sparse([[a * x, x]], 1)
    assert _peel_failure(solution, 1, ANSATZ_FACTORS) == (
        "inconclusive: the peel pinned 0 of 1 unknowns and left 1 rows")


# -- factorization ------------------------------------------------------


def test_factorization_passes(ctx):
    results = verify_factorization(ctx)
    assert [r.name for r in results] == ["factorization.lines", "factorization.hyperplanes"]
    assert _all_pass(results)


def test_factorization_conjugate_pair_subproduct_real():
    factors = _hyperplane_factors()
    # factors come in conjugate pairs: (e1,e2) with (-e1,-e2); the product
    # of a pair is free of the stand-in i, and is the squared distance
    # (y - k)^2 + (c x + s z)^2 to the line +, k = 3 c s b
    prod = _reduce_stand_ins(factors[0] * factors[3])
    assert prod.degree_in(PZ) == 0
    k = 3 * px * py * b
    assert prod == _reduce_stand_ins((y - k) ** 2 + (px * x + py * z) ** 2)


def test_factorization_mutation_wrong_u(ctx):
    bad_u = ctx.u + x**2
    results = verify_factorization(ctx, u_poly=bad_u)
    assert not any(r.passed for r in results)


# -- scalar ansatz ------------------------------------------------------


def test_scalar_ansatz_recovers_catalog(ctx):
    m1r, m2r, results = solve_scalar_ansatz(ctx)
    assert _all_pass(results)
    for rec, target in ((m1r, ctx.m1), (m2r, ctx.m2)):
        diff = rec - target
        assert all(diff.diff(v).is_zero() for v in COORDS)


def _ansatz_equations(ctx, monkeypatch, perturb=None):
    """(equations, ncols) as solve_scalar_ansatz hands them to
    solve_exact_sparse, and the solve's result, consistent or not."""
    import quadint.verifier as verifier

    calls = []

    def recording_solve(equations, ncols):
        out = solve_exact_sparse(equations, ncols)
        calls.append((equations, ncols, out))
        return out

    monkeypatch.setattr(verifier, "solve_exact_sparse", recording_solve)
    try:
        solve_scalar_ansatz(ctx, perturb_rhs=perturb)
    except NoSolution:
        pass
    (call,) = calls
    return call


def test_scalar_ansatz_system_has_full_column_rank(ctx, monkeypatch):
    """138 rows over Q[a, b] in 10 unknowns, 93 of them with one unknown
    at the start; the peel pins all 10 and leaves no row."""
    equations, ncols, (pinned, pivots, left) = _ansatz_equations(ctx, monkeypatch)
    rows = []
    for polys in equations:
        matched = {}
        for i, p in enumerate(polys[:ncols]):
            for mono in p.collect(COORDS):
                matched.setdefault(mono, set()).add(i)
        for p in polys[ncols:]:
            for mono in p.collect(COORDS):
                matched.setdefault(mono, set())
        rows += matched.values()
    assert (len(rows), ncols) == (138, 10)
    assert sum(len(r) == 1 for r in rows) == 93
    assert sorted(pinned) == list(range(10)) and len(pivots) == 10 and left == []
    _, _, results = solve_scalar_ansatz(ctx)
    assert all("solution unique" in r.residual_summary for r in results)


def test_scalar_ansatz_converts_only_the_rows_left_after_the_peel(ctx, monkeypatch):
    """The peel over Q[a, b] leaves no row, so no row is converted to a
    Fraction row: the rational RREF never runs."""
    import quadint.algebra as algebra

    calls, rref = [], algebra._rref

    def recording(matrix):
        calls.append(len(matrix))
        return rref(matrix)

    monkeypatch.setattr(algebra, "_rref", recording)
    _, _, (_, _, left) = _ansatz_equations(ctx, monkeypatch)
    _, _, results = solve_scalar_ansatz(ctx)
    assert _all_pass(results)
    assert left == [] and calls == []


# sha256 of the canonical strings of the equations solve_scalar_ansatz
# hands to solve_exact_sparse, so that a change to how they are built
# shows here first.
_ANSATZ_SYSTEM_SHA256 = {
    "none": "c9e374e1344ed8eb0655c87b9f86544b9c52cf4ae8b2d70125e5d7540cf4572c",
    "x^9": "c7f8972d2e5f7980011aca000ca5923d5c6e2b1762f28f33b4c4a0b619c2ae5b",
    "2/3*x*y*b - 5*w0": "f0f796254afbd21f81a3893de54d29ba60061ae80c13768d67dc3037fb5f6a1a",
}
_PERTURBATIONS = {"none": None, "x^9": x**9, "2/3*x*y*b - 5*w0": Fraction(2, 3) * x * y * b - 5 * w0}


@pytest.mark.parametrize("perturb", sorted(_ANSATZ_SYSTEM_SHA256))
def test_scalar_ansatz_system_is_pinned(ctx, monkeypatch, perturb):
    import hashlib

    equations, ncols, _ = _ansatz_equations(ctx, monkeypatch, _PERTURBATIONS[perturb])
    system = ([[p.canonical_str() for p in polys] for polys in equations], ncols)
    assert hashlib.sha256(repr(system).encode()).hexdigest() == _ANSATZ_SYSTEM_SHA256[perturb]


def test_scalar_ansatz_rhs_monomial_no_column_holds(ctx, monkeypatch):
    """x^8 px^2 added to X1's leading part puts x^8 dx(u), of degree 11
    in q, into m1's right-hand side only; no column holds those
    monomials, so their rows are left with no unknown and a nonzero
    right-hand side for m1 alone: m1 is inconsistent and m2 still solves."""
    bad = dataclasses.replace(ctx, x1_leading=ctx.x1_leading + x**8 * px**2)
    with pytest.raises(NoSolution, match="inconsistent for m1$"):
        solve_scalar_ansatz(bad)
    _, _, (pinned, _, left) = _ansatz_equations(bad, monkeypatch)
    assert len(pinned) == 10 and left
    assert all(not entries and r1 and not r2 for entries, (r1, r2) in left)


def test_scalar_ansatz_stall_is_inconclusive(ctx, monkeypatch):
    """A peel that leaves an unknown unpinned fails both checks as
    inconclusive and recovers no scalar part."""
    import quadint.verifier as verifier

    def stalled_solve(equations, ncols):
        pinned, pivots, left = solve_exact_sparse(equations, ncols)
        del pinned[0]
        return pinned, pivots[1:], left

    monkeypatch.setattr(verifier, "solve_exact_sparse", stalled_solve)
    m1, m2, results = solve_scalar_ansatz(ctx)
    assert m1 is None and m2 is None
    assert [r.residual_summary for r in results] == [
        "inconclusive: the peel pinned 9 of 10 unknowns and left 0 rows"] * 2
    assert not any(r.passed for r in results)


def test_scalar_ansatz_charges_shared_solve_to_m1(ctx):
    t0 = time.perf_counter()
    _, _, results = solve_scalar_ansatz(ctx)
    wall_ms = (time.perf_counter() - t0) * 1e3
    m1, m2 = (r.elapsed_ms for r in results)
    assert 0.9 * wall_ms <= m1 + m2 <= wall_ms
    assert m1 > m2


def test_scalar_ansatz_mutation_inconsistent_rhs(ctx):
    with pytest.raises(NoSolution):
        solve_scalar_ansatz(ctx, perturb_rhs=x**9)


# -- report runner ------------------------------------------------------


def test_run_report_all_pass(ctx):
    report = run_report(ctx)
    assert report.all_passed
    assert len(report.results) == 21
    assert sum(r.elapsed_ms for r in report.results) <= report.total_ms


def test_run_report_deterministic(ctx):
    r1 = run_report(ctx)
    r2 = run_report(ctx)
    assert [c.name for c in r1.results] == [c.name for c in r2.results]
    assert r1.fingerprint == r2.fingerprint


REPORT = [
    ("involution.{H,X1}", True, "residual 0"),
    ("involution.{H,X2}", True, "residual 0"),
    ("involution.{X1,X2}", True, "residual 0"),
    ("m_system.grad_m1_x", True, "residual 0"),
    ("m_system.grad_m1_y", True, "residual 0"),
    ("m_system.grad_m1_z", True, "residual 0"),
    ("m_system.grad_m2_x", True, "residual 0"),
    ("m_system.grad_m2_y", True, "residual 0"),
    ("m_system.grad_m2_z", True, "residual 0"),
    ("invariant_coordinate.x_field", True, "u: residual 0; V: residual 0"),
    ("invariant_coordinate.y_field", True, "u: residual 0; V: residual 0"),
    ("ode_reduction", True, "residual 0"),
    ("rank_R", True, "antisymmetric, annihilates grad u, nonzero, so rank 2"),
    ("functional_independence", True, "determinant nonzero (112 terms)"),
    ("killing_commutator", True, "commutator has 6 nonzero entries"),
    ("first_order_scan.symbolic", True,
     "rank 6 over Q(a, b), empty nullspace; pivots nonzero unless a(a-1)b(2a-1)(a-2) = 0"),
    ("first_order_scan.a=1/2", True,
     "rank 6 over Q(b), empty nullspace; pivots nonzero unless b = 0"),
    ("factorization.lines", True, "residual 0"),
    ("factorization.hyperplanes", True, "residual 0"),
    ("scalar_ansatz.m1", True, "solution unique over Q(a, b), pivots nonzero unless "
                               "a(a-1)b = 0; difference to catalog m1 is a constant"),
    ("scalar_ansatz.m2", True, "solution unique over Q(a, b), pivots nonzero unless "
                               "a(a-1)b = 0; difference to catalog m2 is a constant"),
]


def test_run_report_is_pinned():
    """The report, timings aside, is a fixed list of 21 checks."""
    report = run_report(build_context())
    assert [(r.name, r.passed, r.residual_summary) for r in report.results] == REPORT
    assert report.fingerprint == "70ab71ae33ae0607"


def test_run_report_forms_no_product_with_a_zero_factor(monkeypatch):
    """No Polynomial product in building the context and running the
    report has an empty operand: each check skips its zero factors."""
    zero_factor = []  # per call, whether an operand is empty
    mul = Polynomial.__mul__

    def recording_mul(p, q):
        zero_factor.append(not p or not q)
        return mul(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", recording_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", recording_mul)
    run_report(build_context())
    assert zero_factor and not any(zero_factor)


def test_run_report_builds_the_characteristics_once():
    """invariant_coordinate, rank_R and the fingerprint share one build of
    the characteristic polynomials."""
    build_characteristics.cache_clear()
    run_report(build_context())
    assert build_characteristics.cache_info().misses == 1


def test_a_sphere_u_fails_exactly_the_checks_that_read_u(ctx):
    """replace(ctx, u=...) swaps u for the checks of u itself; the checks
    that work in the ring keep the quartic (SystemContext)."""
    report = run_report(dataclasses.replace(ctx, u=x**2 + y**2 + z**2))
    assert [r.name for r in report.results if not r.passed] == [
        "invariant_coordinate.x_field", "invariant_coordinate.y_field", "rank_R",
        "first_order_scan.symbolic", "first_order_scan.a=1/2",
        "factorization.lines", "factorization.hyperplanes",
    ]
    assert len(report.results) == 21


def test_run_report_only_filter(ctx):
    report = run_report(ctx, only="involution")
    assert len(report.results) == 3
    assert all(r.name.startswith("involution") for r in report.results)


def test_run_report_only_matching_no_group_raises(ctx):
    with pytest.raises(ValueError, match="only = 'nosuchgroup' matches no check group; "
                                         "the groups are involution, m_system, .*, scalar_ansatz$"):
        run_report(ctx, only="nosuchgroup")


def test_run_report_alt_ly_fails(alt_ctx):
    report = run_report(alt_ctx, only="involution")
    assert not report.all_passed


def test_run_report_alt_ly_reports_the_inconsistent_ansatz(alt_ctx):
    report = run_report(alt_ctx)
    assert len(report.results) == 21
    failed = [r.name for r in report.results if not r.passed]
    assert len(failed) == 11
    assert all(name.startswith(("involution", "m_system", "scalar_ansatz")) for name in failed)
    ansatz = [r for r in report.results if r.name.startswith("scalar_ansatz")]
    assert [r.name for r in ansatz] == ["scalar_ansatz.m1", "scalar_ansatz.m2"]
    assert all(not r.passed and "inconsistent" in r.residual_summary for r in ansatz)


def test_report_serialization(ctx):
    report = run_report(ctx, only="ode_reduction")
    d = report.to_dict()
    assert d["checks"][0]["status"] == "pass"
    assert "context_fingerprint" in d
    assert d["total_ms"] == report.total_ms
    text = report.to_text()
    assert "PASS" in text and "1 checks" in text
    assert f"total {report.total_ms:.1f} ms" in text

