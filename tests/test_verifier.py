"""Bracket engine properties, the identity battery, and mutation sensitivity.

Every verify_* function gets both a pass case (the catalog system) and at
least one mutation case (a deliberately broken input) so that a silent
always-pass regression cannot slip through.
"""

import dataclasses
import time
from fractions import Fraction

import pytest

from quadint.algebra import (
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
    Polynomial,
    generators,
    nullspace_exact,
    solve_exact_sparse,
)
from quadint.catalog import build_context, extract_killing_tensor
from quadint.radical import RadicalElement
from quadint.verifier import (
    NoSolution,
    ParamNotPythagorean,
    first_order_integral_scan,
    hyperplane_factors_exact,
    killing_vector_system,
    poisson_bracket,
    poly_poisson_bracket,
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


def test_canonical_bracket_sign():
    assert poly_poisson_bracket(x, px) == Polynomial.constant(1)
    assert poly_poisson_bracket(px, x) == Polynomial.constant(-1)


def test_poly_bracket_antisymmetric():
    f = x**2 * px + y * pz
    g = py * pz + z**2
    assert poly_poisson_bracket(f, g) == -poly_poisson_bracket(g, f)


def test_poly_bracket_bilinear():
    f, g, h = x * px, y**2 * pz, z * py
    lhs = poly_poisson_bracket(f + 3 * g, h)
    rhs = poly_poisson_bracket(f, h) + 3 * poly_poisson_bracket(g, h)
    assert lhs == rhs


def test_poly_bracket_leibniz():
    f, g, h = x * py, z * px + y, pz**2
    lhs = poly_poisson_bracket(f * g, h)
    rhs = f * poly_poisson_bracket(g, h) + poly_poisson_bracket(f, h) * g
    assert lhs == rhs


def test_poly_bracket_jacobi():
    # momentum degree <= 2, as in the observables of interest
    f = px**2 + x * y
    g = x * py - y * px
    h = z * pz + x**2
    s = (
        poly_poisson_bracket(f, poly_poisson_bracket(g, h))
        + poly_poisson_bracket(g, poly_poisson_bracket(h, f))
        + poly_poisson_bracket(h, poly_poisson_bracket(f, g))
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


# -- involution ---------------------------------------------------------


def test_involution_passes(ctx):
    results = verify_involution(ctx)
    assert len(results) == 3 and _all_pass(results)


def test_involution_mutation_alt_ly(alt_ctx):
    results = verify_involution(alt_ctx)
    assert not any(r.passed for r in results)


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


def test_scan_mutation_symmetric_potential(ctx):
    results = first_order_integral_scan(
        ctx, samples=((Fraction(1, 4), Fraction(1)),)
    )
    assert _all_pass(results)
    # sanity: the same machinery reports a nontrivial nullspace for a
    # rotationally symmetric replacement
    w = (x**2 + y**2 + z**2) ** 2
    basis = nullspace_exact(killing_vector_system(w))
    assert len(basis) == 3  # full rotation algebra survives


# -- factorization ------------------------------------------------------


def test_factorization_passes(ctx):
    results = verify_factorization(ctx)
    assert len(results) == 2 and _all_pass(results)


def test_factorization_conjugate_pair_subproduct_real():
    factors = hyperplane_factors_exact(Fraction(9, 25))
    # factors come in conjugate pairs: (e1,e2) with (-e1,-e2)
    prod = factors[0] * factors[3]
    assert prod.is_real()


def test_factorization_rejects_non_pythagorean():
    with pytest.raises(ParamNotPythagorean):
        hyperplane_factors_exact(Fraction(1, 3))


def test_factorization_mutation_wrong_u(ctx):
    bad_u = ctx.u + x**2
    results = verify_factorization(ctx, u_poly=bad_u)
    assert not _all_pass(results)


# -- scalar ansatz ------------------------------------------------------


def test_scalar_ansatz_recovers_catalog(ctx):
    m1r, m2r, results = solve_scalar_ansatz(ctx)
    assert _all_pass(results)
    for rec, target in ((m1r, ctx.m1), (m2r, ctx.m2)):
        diff = rec - target
        assert all(diff.diff(v).is_zero() for v in COORDS)


def test_scalar_ansatz_system_has_full_column_rank(ctx, monkeypatch):
    import quadint.verifier as verifier
    from quadint.algebra import _sparse_rref

    systems = []

    def recording_solve(rows, rhs, ncols):
        systems.append((rows, ncols))
        return solve_exact_sparse(rows, rhs, ncols)

    monkeypatch.setattr(verifier, "solve_exact_sparse", recording_solve)
    _, _, results = solve_scalar_ansatz(ctx)
    (rows, ncols), = systems
    assert (len(rows), ncols) == (3120, 150)
    _, pivots = _sparse_rref(rows, ncols)
    assert pivots == list(range(150))
    assert all("solution unique" in r.residual_summary for r in results)


# sha256 of repr((rows, rhs, ncols)) as solve_scalar_ansatz handed them to
# solve_exact_sparse when the columns were built on packed keys by hand:
# the same rows, entries and right-hand sides, in the same order.
_ANSATZ_SYSTEM_SHA256 = {
    "none": "690c4930f3c3dddc2d611dfb853b6c6934a963b3d2f0db6ce7f70b873e6f0d8f",
    "x^9": "1bc49b732401162eb273d1617f241e37e17910784b97c41db4aa520dd3944996",
    "2/3*x*y*b - 5*w0": "c169d98abb02b618d1af79291f63d2adb1e1d451a750c19f2b9ac7408404661f",
}
_PERTURBATIONS = {"none": None, "x^9": x**9, "2/3*x*y*b - 5*w0": Fraction(2, 3) * x * y * b - 5 * w0}


@pytest.mark.parametrize("perturb", sorted(_ANSATZ_SYSTEM_SHA256))
def test_scalar_ansatz_system_is_pinned(ctx, monkeypatch, perturb):
    import hashlib

    import quadint.verifier as verifier

    digests = []

    def recording_solve(rows, rhs, ncols):
        digests.append(hashlib.sha256(repr((rows, rhs, ncols)).encode()).hexdigest())
        return solve_exact_sparse(rows, rhs, ncols)

    monkeypatch.setattr(verifier, "solve_exact_sparse", recording_solve)
    try:
        solve_scalar_ansatz(ctx, perturb_rhs=_PERTURBATIONS[perturb])
    except NoSolution:
        assert perturb != "none"
    assert digests == [_ANSATZ_SYSTEM_SHA256[perturb]]


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


def test_run_report_only_filter(ctx):
    report = run_report(ctx, only="involution")
    assert len(report.results) == 3
    assert all(r.name.startswith("involution") for r in report.results)


def test_run_report_alt_ly_fails(alt_ctx):
    report = run_report(alt_ctx, only="involution")
    assert not report.all_passed


def test_report_serialization(ctx):
    report = run_report(ctx, only="ode_reduction")
    d = report.to_dict()
    assert d["checks"][0]["status"] == "pass"
    assert "context_fingerprint" in d
    assert d["total_ms"] == report.total_ms
    text = report.to_text()
    assert "PASS" in text and "1 checks" in text
    assert f"total {report.total_ms:.1f} ms" in text

