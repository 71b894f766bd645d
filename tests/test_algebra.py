"""Exact polynomial arithmetic, linear algebra, and Gaussian-rational layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadint.algebra import (
    A,
    B,
    MOMENTA,
    NVARS,
    PX,
    PY,
    PZ,
    W0,
    X,
    Y,
    Z,
    ZERO_EXPS,
    GaussPoly,
    Polynomial,
    gauss_poly_expand,
    generators,
    matrix_rank_exact,
    nullspace_exact,
    rational_sqrt,
    solve_exact_sparse,
)

x, y, z, px, py, pz, a, b, w0 = generators()


# -- strategies --------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
).filter(lambda f: f != 0)

def _sparse_exps(pairs):
    e = [0] * NVARS
    for idx, k in pairs:
        e[idx] = min(e[idx] + k, 2)
    return tuple(e)


exponents = st.lists(
    st.tuples(st.integers(0, NVARS - 1), st.integers(1, 2)), max_size=2
).map(_sparse_exps)

polys = st.lists(st.tuples(exponents, coeffs), min_size=0, max_size=5).map(
    lambda terms: sum(
        (Polynomial.monomial(e, c) for e, c in terms), Polynomial.zero()
    )
)

rational_points = st.fixed_dictionaries(
    {i: st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
     for i in range(NVARS)}
)


# -- basic arithmetic --------------------------------------------------


def test_difference_of_squares():
    assert (x + y) * (x - y) == x**2 - y**2


def test_additive_inverse():
    p = 3 * x**2 * y - Fraction(1, 2) * z + 7
    assert (p + (-p)).is_zero()


def test_binomial_expansion_leading_quartic():
    expanded = (a - 1) ** 2 * x**4
    assert expanded == a**2 * x**4 - 2 * a * x**4 + x**4


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (5, 3)])
def test_power_makes_no_product_by_one(n, products, monkeypatch):
    """p**n squares p up to the highest power it needs and multiplies the
    powers it needs together, never starting from the constant 1: p**5 is
    p * (p**2)**2, three products."""
    p = x + 2 * y - 1
    expected = Polynomial.constant(1)
    for _ in range(n):
        expected = expected * p
    made = []
    mul = Polynomial.__mul__

    def counting(self, other):
        made.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert p**n == expected
    assert len(made) == products
    assert all(f != Polynomial.constant(1) for pair in made for f in pair)


def test_no_stored_zero_coefficients():
    p = x + y - x - y
    assert p.terms == {}
    assert p.is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p


def _double_loop_product(p, q):
    """Reference product: every cross term, merged in loop order."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(k1 + k2 for k1, k2 in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(ZERO_EXPS), exponents),
    st.one_of(st.just(Fraction(1)), coeffs),
    polys,
    st.booleans(),
)
def test_one_term_product_matches_double_loop(exps, coeff, q, mono_left):
    mono = Polynomial.monomial(exps, coeff)
    p, r = (mono, q) if mono_left else (q, mono)
    prod = p * r
    ref = _double_loop_product(p, r)
    assert list(prod.terms.items()) == list(ref.items())
    assert all(type(c) is Fraction for c in prod.terms.values())
    assert prod.terms is not q.terms


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, NVARS - 1), st.integers(0, NVARS - 1))
def test_schwarz_symmetry(p, v, w):
    assert p.diff(v).diff(w) == p.diff(w).diff(v)


def test_partial_derivative_basics():
    assert (x**2 * y).diff(X) == 2 * x * y
    assert Polynomial.constant(5).diff(PX).is_zero()


def test_partial_momentum_of_pure_coordinate():
    assert (x**3 + y * z).diff(PY).is_zero()


# -- evaluation --------------------------------------------------------


def test_eval_exact_simple():
    p = x**2 + y**2
    assert p.eval_exact({X: 3, Y: 4}) == 25


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        (x + y).eval_exact({X: 1})


@settings(max_examples=40, deadline=None)
@given(polys, polys, rational_points)
def test_eval_is_ring_homomorphism(p, q, pt):
    assert (p * q).eval_exact(pt) == p.eval_exact(pt) * q.eval_exact(pt)
    assert (p + q).eval_exact(pt) == p.eval_exact(pt) + q.eval_exact(pt)


@settings(max_examples=40, deadline=None)
@given(polys, rational_points)
def test_eval_float_matches_exact(p, pt):
    exact = p.eval_exact(pt)
    approx = p.eval_float({i: float(v) for i, v in pt.items()})
    scale = max(abs(float(exact)), 1.0)
    assert abs(approx - float(exact)) <= 1e-12 * scale


def test_specialize_partial_substitution():
    p = a * x**2 + b * y
    q = p.specialize({A: Fraction(1, 4), B: 2})
    assert q == Fraction(1, 4) * x**2 + 2 * y


# -- collect -----------------------------------------------------------


def test_collect_momenta_linear():
    p = px * x + py * y
    groups = p.collect(MOMENTA)
    key_px = tuple(1 if i == PX else 0 for i in range(NVARS))
    key_py = tuple(1 if i == PY else 0 for i in range(NVARS))
    assert groups[key_px] == x
    assert groups[key_py] == y


def test_collect_pure_coordinate():
    p = x**2 + y * z
    groups = p.collect(MOMENTA)
    assert list(groups) == [tuple([0] * NVARS)]
    assert groups[tuple([0] * NVARS)] == p


def test_collect_kinetic_term():
    kin = Fraction(1, 2) * (px**2 + py**2 + pz**2)
    groups = kin.collect(MOMENTA)
    assert len(groups) == 3
    for coeff in groups.values():
        assert coeff == Polynomial.constant(Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(polys)
def test_collect_reassembles(p):
    groups = p.collect(MOMENTA)
    total = sum(
        (Polynomial.monomial(mono) * coeff for mono, coeff in groups.items()),
        Polynomial.zero(),
    )
    assert total == p


# -- exact division ----------------------------------------------------


def test_divide_exact_roundtrip():
    p = (x**2 + y * z + 3) * (a * x - b)
    q = p.divide_exact(a * x - b)
    assert q == x**2 + y * z + 3


def test_divide_exact_fails_cleanly():
    assert (x**2 + 1).divide_exact(x + 1) is None


# -- linear algebra ----------------------------------------------------


def test_nullspace_identity_empty():
    assert nullspace_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_nullspace_rank_deficient():
    basis = nullspace_exact([[1, 1], [2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_nullspace_zero_row():
    basis = nullspace_exact([[0, 0]])
    assert len(basis) == 2


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(max_denominator=5, min_value=-5, max_value=5),
                 min_size=4, max_size=4),
        min_size=1, max_size=5,
    )
)
def test_nullspace_properties(matrix):
    basis = nullspace_exact(matrix)
    ncols = 4
    rank = matrix_rank_exact(matrix)
    assert rank + len(basis) == ncols
    for v in basis:
        for row in matrix:
            assert sum(Fraction(r) * c for r, c in zip(row, v)) == 0


def _apply(rows, vec):
    return [sum((c * vec[j] for j, c in row.items()), Fraction(0)) for row in rows]


small_fracs = st.fractions(max_denominator=4, min_value=-4, max_value=4)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=2, max_size=2),
)
def test_solve_multi_rhs_matches_single_solves(matrix, solutions):
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    rhs = [_apply(rows, xk) for xk in solutions]
    particulars, basis = solve_exact_sparse(rows, rhs, 4)
    for b, particular in zip(rhs, particulars):
        (single,), single_basis = solve_exact_sparse(rows, [b], 4)
        assert particular == single
        assert _apply(rows, particular) == b
        assert basis == single_basis
    assert len(basis) == 4 - matrix_rank_exact(matrix)


def test_solve_multi_rhs_inconsistent_first_consistent_second():
    # x0 = b[0], 0 = b[1]: b1 = (0, 1) is inconsistent, b2 = (3, 0) is not
    rows = [{0: Fraction(1)}, {}]
    b1 = [Fraction(0), Fraction(1)]
    b2 = [Fraction(3), Fraction(0)]
    particulars, basis = solve_exact_sparse(rows, [b1, b2], 2)
    assert particulars == [None, [3, 0]]
    assert basis == [[0, 1]]


def test_solve_multi_rhs_second_in_span_of_first_is_inconsistent():
    # b2 = 2 b1 lies in span(A, b1) but not in the column space of A, so
    # its column is no pivot yet is nonzero in b1's pivot row
    rows = [{0: Fraction(1)}, {}]
    b1 = [Fraction(0), Fraction(1)]
    b2 = [Fraction(0), Fraction(2)]
    particulars, _ = solve_exact_sparse(rows, [b1, b2], 2)
    assert particulars == [None, None]
    assert solve_exact_sparse(rows, [b2], 2)[0] == [None]


# -- Gaussian rationals ------------------------------------------------


def test_gauss_conjugate_product_real():
    f = GaussPoly(x, y)           # x + i y
    g = f.conjugate()             # x - i y
    prod = f * g
    assert prod.is_real()
    assert prod.re == x**2 + y**2


def test_gauss_real_factors():
    f1 = GaussPoly(x - 1)
    f2 = GaussPoly(x + 1)
    prod = gauss_poly_expand([f1, f2])
    assert prod.is_real()
    assert prod.re == x**2 - 1


def test_gauss_conjugation_involution():
    f = GaussPoly(x + y, z - 2)
    assert f.conjugate().conjugate() == f


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 25)) == Fraction(3, 5)
    assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)
    assert rational_sqrt(Fraction(1, 3)) is None
    assert rational_sqrt(Fraction(0)) == 0
