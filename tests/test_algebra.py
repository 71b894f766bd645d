"""Exact polynomial arithmetic and linear algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadint.algebra import (
    A,
    B,
    MAX_DEGREE,
    MOMENTA,
    NVARS,
    PX,
    PY,
    X,
    Y,
    VARS,
    ZERO_EXPS,
    Polynomial,
    _collect,
    _rref,
    generators,
    matrix_rank_exact,
    nullspace_exact,
    pack,
    solve_exact_sparse,
    unpack,
)
from quadint.catalog import build_context
from quadint.verifier import run_report

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


def _assert_matches_double_loop(p, q):
    """p * q has the terms of the double loop over the smaller factor
    (p on a tie) outermost, in the same order, all Fraction."""
    prod = p * q
    ref = _double_loop_product(*sorted((p, q), key=lambda f: len(f.terms)))
    assert list(prod.terms.items()) == list(ref.items())
    assert all(type(c) is Fraction for c in prod.terms.values())
    return prod


multi_term_polys = st.lists(
    st.tuples(exponents, coeffs), min_size=2, max_size=5, unique_by=lambda t: t[0]
).map(lambda terms: Polynomial(dict(terms)))


@settings(max_examples=40, deadline=None)
@given(multi_term_polys, multi_term_polys)
def test_multi_term_product_matches_double_loop(p, q):
    _assert_matches_double_loop(p, q)
    _assert_matches_double_loop(q, p)


def test_multi_term_product_mixed_denominators():
    p = Fraction(1, 2) * x + Fraction(2, 3) * y + 5 * z * a
    q = Fraction(3, 4) * x - Fraction(1, 6) * y * b
    prod = _assert_matches_double_loop(p, q)
    assert prod.coefficient((2, 0, 0, 0, 0, 0, 0, 0, 0)) == Fraction(3, 8)
    assert prod.coefficient((0, 2, 0, 0, 0, 0, 0, 1, 0)) == Fraction(-1, 9)


def test_multi_term_product_cancels_terms_to_zero():
    # the xy terms cancel: (x/2 + y/3)(x/4 - y/6) = x^2/8 - y^2/18
    prod = _assert_matches_double_loop(
        Fraction(1, 2) * x + Fraction(1, 3) * y, Fraction(1, 4) * x - Fraction(1, 6) * y
    )
    assert prod == Fraction(1, 8) * x**2 - Fraction(1, 18) * y**2
    # x and x^3 cancel; x^2 cancels after two cross terms and the third
    # brings it back, at the end of the term order
    prod = _assert_matches_double_loop(1 + x + x**2, 1 - x + x**2)
    assert list(prod.terms) == [ZERO_EXPS, (2,) + ZERO_EXPS[1:], (4,) + ZERO_EXPS[1:]]
    assert prod == 1 + x**2 + x**4


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


def test_eval_float_rounds_a_cancelling_sum_once():
    """x^2 - y^2 at x = 1 + 2^-30, y = 1 is exactly 2^-29 + 2^-60, which
    binary64 holds; a float sum of the rounded terms loses the 2^-60."""
    value = (x**2 - y**2).eval_float({X: 1 + 2**-30, Y: 1.0})
    assert value == 2**-29 + 2**-60


@pytest.mark.parametrize("bad, error", [(math.inf, OverflowError), (-math.inf, OverflowError),
                                        (math.nan, ValueError),
                                        (1e200, OverflowError)])  # a value beyond binary64
def test_eval_float_raises_on_a_non_finite_coordinate_or_value(bad, error):
    with pytest.raises(error):
        (x**2 - y**2).eval_float({X: bad, Y: 1.0})


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


@settings(max_examples=80, deadline=None)
@given(polys, st.one_of(st.just(frozenset(MOMENTA)),
                        st.frozensets(st.integers(0, NVARS - 1), min_size=1, max_size=4)))
def test_collect_reassembles(p, subset):
    """p splits into monomials on the subset times groups free of it, and
    the packed keys of ``_collect`` are the tuple keys of ``collect``."""
    groups = p.collect(subset)
    total = Polynomial.zero()
    for mono, group in groups.items():
        assert all(k == 0 for v, k in enumerate(mono) if v not in subset)
        assert not group.variables() & subset
        total = total + Polynomial.monomial(mono) * group
    assert total == p
    assert _collect(p, subset) == {pack(mono): g for mono, g in groups.items()}


# -- packed form --------------------------------------------------------


def _grlex(e):
    """Graded lexicographic order, written out: total degree first, then
    the exponents from x to w0."""
    return (sum(e), e)


@st.composite
def bounded_exponents(draw, max_degree=MAX_DEGREE):
    """Nine exponents of total degree at most max_degree, often at it."""
    d = draw(st.one_of(st.integers(0, max_degree), st.just(max_degree)))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=NVARS - 1, max_size=NVARS - 1)))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, d]))


any_exponents = st.one_of(bounded_exponents(), bounded_exponents(max_degree=3))


def test_mapping_constructor_drops_zero_coefficients():
    p = Polynomial({ZERO_EXPS: Fraction(0), (1,) + ZERO_EXPS[1:]: 0})
    assert p.is_zero()
    assert p == Polynomial.zero()
    assert Polynomial({ZERO_EXPS: Fraction(0), (1,) + ZERO_EXPS[1:]: 2}) == 2 * x


@pytest.mark.parametrize("exps", [
    (1, 0, 0),
    ZERO_EXPS + (0,),
    (-1,) + ZERO_EXPS[1:],
    (0.5,) + ZERO_EXPS[1:],
    (MAX_DEGREE, 1) + ZERO_EXPS[2:],
])
def test_mapping_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        Polynomial({exps: 1})


@pytest.mark.parametrize("coeff", [0.5, 1.0, "1"])
def test_mapping_constructor_rejects_inexact_coefficient(coeff):
    with pytest.raises(TypeError):
        Polynomial({ZERO_EXPS: coeff})


def test_mapping_constructor_puts_coefficients_over_one_denominator():
    p = Polynomial({(1,) + ZERO_EXPS[1:]: Fraction(1, 2), ZERO_EXPS: Fraction(-2, 3)})
    assert p == Fraction(1, 2) * x - Fraction(2, 3)
    assert (p._numerators, p._denominator) == ({pack((1,) + ZERO_EXPS[1:]): 3, 0: -4}, 6)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_results_are_in_lowest_terms(p, q):
    """Every result holds nonzero numerators over a positive denominator
    coprime to their gcd, the form that equality compares."""
    results = [p + q, p - q, p * q, -p, p.diff(X), p.scale(Fraction(-4, 3)),
               p.specialize({A: Fraction(2, 3), X: Fraction(-3, 4)}),
               *p.collect(MOMENTA[:2] + (A,)).values()]
    for r in results:
        assert r._denominator > 0 and all(r._numerators.values())
        assert math.gcd(r._denominator, *r._numerators.values()) == 1


@settings(max_examples=100, deadline=None)
@given(any_exponents)
def test_pack_unpack_roundtrip(e):
    assert unpack(pack(e)) == e


@settings(max_examples=200, deadline=None)
@given(any_exponents, any_exponents)
def test_key_order_is_grlex_order(e1, e2):
    assert (pack(e1) < pack(e2)) == (_grlex(e1) < _grlex(e2))
    assert (pack(e1) == pack(e2)) == (e1 == e2)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_sorted_and_leading_terms_follow_grlex(p):
    ref = sorted(p.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)
    assert p.sorted_terms() == ref


def _merged(p_terms, q_terms):
    """Reference sum on the terms view: q's terms merged into a copy of
    p's in q's order, a term that cancels deleted, as p + q merges."""
    out = dict(p_terms)
    for e, c in q_terms.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _negated(terms):
    return {e: -c for e, c in terms.items()}


def _assert_canonical_with_terms(r, terms):
    """r holds ``terms``, in that order, over a positive denominator in
    lowest terms and with no stored zero."""
    assert list(r.terms.items()) == list(terms.items())
    assert r._denominator > 0 and all(r._numerators.values())
    assert math.gcd(r._denominator, *r._numerators.values()) == 1


@st.composite
def subtraction_pairs(draw):
    """(p, q) where q is drawn fresh, is p itself (full cancellation), or
    is p plus or minus a fresh polynomial (partial cancellation), with
    coefficients over mixed denominators."""
    p, r = draw(polys), draw(polys)
    q = draw(st.sampled_from([r, p, p + r, p - r, r - p]))
    return p, q


@settings(max_examples=150, deadline=None)
@given(subtraction_pairs())
def test_subtraction_equals_adding_the_negation(pq):
    """p - q is p + (-q) term for term and in the same term order; so are
    q - p and both sums."""
    p, q = pq
    _assert_canonical_with_terms(p - q, _merged(p.terms, _negated(q.terms)))
    _assert_canonical_with_terms(q - p, _merged(q.terms, _negated(p.terms)))
    _assert_canonical_with_terms(p + q, _merged(p.terms, q.terms))
    assert p - q == p + (-q) and (p - p).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys, st.one_of(st.integers(-5, 5), coeffs))
def test_scalar_minus_polynomial_equals_adding_the_negation(p, k):
    """k - p and p - k, for an int or Fraction k (0 included), are
    k + (-p) and p + (-k), term for term and in order."""
    const = {ZERO_EXPS: Fraction(k)} if k else {}
    _assert_canonical_with_terms(k - p, _merged(const, _negated(p.terms)))
    _assert_canonical_with_terms(p - k, _merged(p.terms, _negated(const)))


@settings(max_examples=60, deadline=None)
@given(polys.filter(bool))
def test_a_zero_operand_gives_the_other_operand(p):
    """For nonzero p, p + 0, 0 + p and p - 0 are p itself and 0 - p is -p,
    for the shared zero, a fresh Polynomial() and the int 0 alike."""
    for zero in (Polynomial.zero(), Polynomial(), 0):
        assert p + zero is p and zero + p is p and p - zero is p
        _assert_canonical_with_terms(zero - p, _negated(p.terms))


def test_every_zero_is_the_shared_zero_and_stays_empty():
    """Polynomial.zero(), a zero constant or monomial and a product with
    a zero factor are one object.  After the exact battery, which hands it
    out as the zeros it forms, it is still the empty polynomial over 1,
    equal to a fresh Polynomial(): no step wrote into it."""
    run_report(build_context())
    zero = Polynomial.zero()
    assert zero == Polynomial() and zero.terms == {}
    assert (zero._numerators, zero._denominator) == ({}, 1)
    assert Polynomial.constant(0) is zero
    assert Polynomial.monomial((1,) + ZERO_EXPS[1:], Fraction(0)) is zero
    assert x * zero is zero and zero * 3 is zero


def _reference_canonical_str(p):
    """canonical_str written out on the terms view: terms in descending
    graded lex order, each as str of its Fraction coefficient and then
    the variables it holds, ``v`` or ``v^k``."""
    if not p.terms:
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), key=lambda t: _grlex(t[0]), reverse=True):
        factors = [str(Fraction(c))]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(VARS[i])
            elif k > 1:
                factors.append(f"{VARS[i]}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


@settings(max_examples=150, deadline=None)
@given(polys, st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_canonical_str_matches_the_fraction_rendering(p, k):
    """canonical_str, which writes coefficients from the packed
    numerators, equals the Fraction rendering, on polynomials with
    negative coefficients and non-unit denominators, scaled by k (0
    included, giving the zero polynomial)."""
    for q in (p, p.scale(k), -p, p + Fraction(1, 7)):
        assert q.canonical_str() == _reference_canonical_str(q)


def _grlex_divide(p, q):
    """Reference division on the Fraction view, leading terms by _grlex:
    {exponent tuple: Fraction} of the quotient, or None."""
    terms = q.terms
    de = max(terms, key=_grlex)
    rem, quot = p.terms, {}
    while rem:
        le = max(rem, key=_grlex)
        qe = tuple(k1 - k2 for k1, k2 in zip(le, de))
        if min(qe) < 0:
            return None
        qc = quot[qe] = rem[le] / terms[de]
        for e2, c2 in terms.items():
            e = tuple(k1 + k2 for k1, k2 in zip(qe, e2))
            s = rem.get(e, 0) - qc * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quot


@settings(max_examples=60, deadline=None)
@given(polys, polys.filter(bool), polys)
def test_divide_exact_matches_grlex_division(p, q, r):
    for num in (p * q, p * q + r):
        ref = _grlex_divide(num, q)
        got = num.divide_exact(q)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert list(got.terms.items()) == list(ref.items())


@settings(max_examples=100, deadline=None)
@given(bounded_exponents(), bounded_exponents())
def test_product_past_max_degree_raises_and_never_carries(e1, e2):
    m1, m2 = Polynomial.monomial(e1, 3), Polynomial.monomial(e2, -1)
    if sum(e1) + sum(e2) > MAX_DEGREE:
        for f, g in ((m1, m2), (m1 + 1, m2 - x), (m2 + y, m1 * 1)):
            with pytest.raises(OverflowError):
                f * g
    else:
        e = tuple(k1 + k2 for k1, k2 in zip(e1, e2))
        assert (m1 * m2).terms == {e: -3}
        assert unpack(pack(e1) + pack(e2)) == e


def test_max_degree_bounds_powers():
    top = x**MAX_DEGREE
    assert top.terms == {(MAX_DEGREE,) + ZERO_EXPS[1:]: 1}
    with pytest.raises(OverflowError):
        top * y
    with pytest.raises(OverflowError):
        (top + 1) * (y - 1)
    with pytest.raises(OverflowError):
        w0 ** (MAX_DEGREE + 1)


nonzero_big = st.integers(-(2**80), 2**80).filter(bool)
big_denominators = st.integers(1, 2**80)


@settings(max_examples=300, deadline=None)
@given(nonzero_big, big_denominators, nonzero_big, big_denominators)
def test_float_bridge_is_float_of_fraction(n1, d1, n2, d2):
    """Each coefficient enters binary64 as its numerator over the common
    denominator, rounded once: the same float as float(Fraction), with
    both above 2**53."""
    p = Fraction(n1, d1) * x + Fraction(n2, d2) * y
    for c in p._numerators.values():
        assert repr(c / p._denominator) == repr(float(Fraction(c, p._denominator)))
    assert repr(p.eval_float({X: 1.0, Y: 0.0})) == repr(float(Fraction(n1, d1)))
    assert repr(p.eval_float({X: 0.0, Y: 1.0})) == repr(float(Fraction(n2, d2)))


# -- exact division ----------------------------------------------------


def test_divide_exact_roundtrip():
    p = (x**2 + y * z + 3) * (a * x - b)
    q = p.divide_exact(a * x - b)
    assert q == x**2 + y * z + 3


def test_divide_exact_fails_cleanly():
    assert (x**2 + 1).divide_exact(x + 1) is None


def test_divide_exact_by_a_divisor_with_content():
    """Division runs on the divisor's primitive part: 2x + 1 for 4x + 2.
    x + 1 has x divisible by x but 1 not an integer multiple of 2 at that
    step, which already decides it."""
    assert (x + 1).divide_exact(2 * x + 1) is None
    assert (x**2 + x * y + 1).divide_exact(2 * x + 1) is None
    num = Fraction(1, 3) * (2 * x + 1) * (x - 5 * y)
    assert num.divide_exact(4 * x + 2) == Fraction(1, 6) * (x - 5 * y)


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


def _equations(rows, rhs, ncols):
    """Sparse rows over ncols unknowns and right-hand sides aligned with
    them, as polynomial equations for solve_exact_sparse: even rows go to
    the first equation and odd rows to the second, row 2k + e as the
    coefficient of x**k in equation e, so that equation's rows keep their
    order."""
    equations = [[{} for _ in range(ncols + len(rhs))] for _ in range(2)]
    for i, row in enumerate(rows):
        exps = (i // 2,) + ZERO_EXPS[1:]
        columns = equations[i % 2]
        for j, v in row.items():
            columns[j][exps] = v
        for k, b in enumerate(rhs):
            columns[ncols + k][exps] = b[i]
    return [[Polynomial(terms) for terms in columns] for columns in equations]


def _solve(rows, rhs, ncols):
    return solve_exact_sparse(_equations(rows, rhs, ncols), ncols)


small_fracs = st.fractions(max_denominator=4, min_value=-4, max_value=4)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=2, max_size=2),
)
def test_solve_multi_rhs_matches_single_solves(matrix, solutions):
    """The peel pins the same unknowns with both right-hand sides as with
    each alone, each to its value in the solution that made the
    right-hand side: a pinned unknown is forced.  No row is inconsistent."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    rhs = [_apply(rows, xk) for xk in solutions]
    pinned, pivots, left = _solve(rows, rhs, 4)
    for k, (b, xk) in enumerate(zip(rhs, solutions)):
        single, single_pivots, single_left = _solve(rows, [b], 4)
        assert {j: v[k] for j, v in pinned.items()} == {j: v[0] for j, v in single.items()}
        assert pivots == single_pivots
        assert [e for e, _ in left] == [e for e, _ in single_left]
        assert all(v[k] == xk[j] for j, v in pinned.items())
    assert all(entries for entries, _ in left)
    if len(pinned) == 4:
        assert matrix_rank_exact(matrix) == 4


def test_solve_multi_rhs_inconsistent_first_consistent_second():
    # x0 = b[0], 0 = b[1]: b1 = (0, 1) is inconsistent, b2 = (3, 0) is not;
    # x1 is in no row, so it is never pinned
    rows = [{0: Fraction(1)}, {}]
    b1 = [Fraction(0), Fraction(1)]
    b2 = [Fraction(3), Fraction(0)]
    pinned, pivots, left = _solve(rows, [b1, b2], 2)
    assert pinned == {0: [0, 3]} and pivots == [1]
    assert left == [({}, [1, 0])]


def test_solve_multi_rhs_second_in_span_of_first_is_inconsistent():
    # b2 = 2 b1 lies in span(A, b1) but not in the column space of A: the
    # row 0 = b[1] is nonzero for both
    rows = [{0: Fraction(1)}, {}]
    b1 = [Fraction(0), Fraction(1)]
    b2 = [Fraction(0), Fraction(2)]
    _, _, left = _solve(rows, [b1, b2], 2)
    assert left == [({}, [1, 2])]
    assert _solve(rows, [b2], 2)[2] == [({}, [2])]


def test_solve_rhs_monomial_no_column_holds_is_left_inconsistent():
    # x0 * x = 3x + y has no solution: no column holds y, so the row of y
    # has no unknown and a nonzero right-hand side; x0 * x = 2x solves
    equation = [x, 3 * x + y, 2 * x]
    pinned, pivots, left = solve_exact_sparse([equation], 1)
    assert pinned == {0: [3, 2]} and pivots == [1]
    assert left == [({}, [1, 0])]
    assert solve_exact_sparse([equation[:1] + equation[2:]], 1) == ({0: [2]}, [1], [])


def test_solve_pins_over_the_parameters_by_exact_division():
    """Rows are matched over x, y, z, so entries are polynomials in a, b.
    The row of y pins c1 = b by its pivot a - 1; substituted into the row
    of x, it leaves a c0 = a^2, which pins c0 = a."""
    equation = [a * x, b * x + (a - 1) * y, (a**2 + b**2) * x + (a - 1) * b * y]
    assert solve_exact_sparse([equation], 2) == ({1: [b], 0: [a]}, [a - 1, a], [])


def test_solve_leaves_a_row_whose_division_is_not_exact():
    # a c0 = 1 has no polynomial solution: the row stays, c0 is not pinned
    assert solve_exact_sparse([[a * x, x]], 1) == ({}, [], [({0: a}, [1])])
    # a homogeneous row always divides: c0 = 0
    assert solve_exact_sparse([[a * x + b * y]], 1) == ({0: []}, [a], [])


@st.composite
def degenerate_matrices(draw):
    """Rows drawn at random plus duplicated, scaled, all-zero and
    dependent (combination) rows, and sparse rows: unit rows, duplicate
    unit rows in one column, and chains of two-entry rows that collapse
    to one entry one after another once a unit row removes their last
    column.  Shuffled, with ncols and a right-hand side whose entry on an
    all-zero row may be nonzero: a unit row in the augmented column."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(small_fracs, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=5))
    rows = list(base)

    def sparse(entries):
        r = [Fraction(0)] * ncols
        for c, v in entries.items():
            r[c] = v
        return r

    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ("duplicate", "scaled", "zero", "dependent", "unit", "unit twice", "chain")))
        r1, r2 = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        column = st.integers(0, ncols - 1)
        if kind == "duplicate":
            rows.append(list(r1))
        elif kind == "scaled":
            k = draw(coeffs)
            rows.append([k * v for v in r1])
        elif kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "dependent":
            k = draw(small_fracs)
            rows.append([v1 + k * v2 for v1, v2 in zip(r1, r2)])
        elif kind == "unit":
            rows.append(sparse({draw(column): draw(coeffs)}))
        elif kind == "unit twice":
            c = draw(column)
            rows += [sparse({c: draw(coeffs)}), sparse({c: draw(coeffs)})]
        else:  # c_0 - c_1, ..., c_(n-1) - c_n and a unit row in c_n
            chain = draw(st.permutations(range(ncols)))[: draw(st.integers(1, ncols))]
            rows += [sparse({c0: draw(coeffs), c1: draw(coeffs)})
                     for c0, c1 in zip(chain, chain[1:])]
            rows.append(sparse({chain[-1]: draw(coeffs)}))
    rhs = [Fraction(i % 3) for i in range(len(rows))]
    for _ in range(draw(st.integers(0, 2))):
        rows.append([Fraction(0)] * ncols)
        rhs.append(draw(coeffs))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols, [rhs[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(degenerate_matrices(), st.lists(small_fracs, min_size=6, max_size=6))
def test_rref_matches_dense_gauss_jordan(matrix_ncols_rhs, solution):
    # sympy's RREF as the oracle: the reduced form is unique
    from sympy import Matrix

    matrix, ncols, maybe = matrix_ncols_rhs
    ref, ref_pivots = Matrix(matrix).rref()
    ref_pivots = list(ref_pivots)
    ref_rows = [{j: Fraction(int(v.p), int(v.q)) for j, v in enumerate(ref.row(i)) if v}
                for i in range(len(ref_pivots))]
    reduced, pivots = _rref(matrix)
    assert pivots == ref_pivots
    assert [{j: v for j, v in enumerate(row) if v} for row in reduced] == ref_rows
    # nullspace_exact: one vector per free column, read off the reduced rows
    ref_basis = []
    for fc in range(ncols):
        if fc in ref_pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(ref_rows, ref_pivots):
            vec[pc] = -row.get(fc, Fraction(0))
        ref_basis.append(vec)
    assert nullspace_exact(matrix) == ref_basis
    # solve_exact_sparse: a consistent right-hand side pins the solution's
    # own values, and a row left with no unknown but a nonzero right side
    # is an inconsistency that the RREF of [A | b] confirms
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    consistent = _apply(rows, solution[:ncols])
    pinned, _, left = _solve(rows, [consistent, maybe], ncols)
    assert all(v[0] == solution[j] for j, v in pinned.items())
    assert not any(not entries and r[0] for entries, r in left)
    inconsistent = any(not entries and r[1] for entries, r in left)
    augmented = [list(r) + [bi] for r, bi in zip(matrix, maybe)]
    if inconsistent:
        assert ncols in Matrix(augmented).rref()[1]
    if any(not any(r) and bi for r, bi in zip(matrix, maybe)):
        assert inconsistent  # 0 = b_i != 0


@settings(max_examples=30, deadline=None)
@given(degenerate_matrices())
def test_nullspace_and_rank_leave_their_matrix_unmodified(matrix_ncols_rhs):
    matrix, _, _ = matrix_ncols_rhs
    before = [list(r) for r in matrix]
    nullspace_exact(matrix)
    matrix_rank_exact(matrix)
    assert matrix == before


def test_rref_reduces_a_chain_of_two_entry_rows():
    """x2 = 0 turns x1 - x2 into x1 = 0 and then x0 + x1 into x0 = 0 and
    x1 + 2 x3 into x3 = 0, and the last row into x4 = 0; the second unit
    row in column 2 is left empty."""
    rows = [[1, 1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 3, 0, 0], [0, 0, -5, 0, 0],
            [0, 1, 0, 2, 0], [2, 0, 0, 1, Fraction(1, 2)]]
    before = [list(r) for r in rows]
    assert _rref(rows) == ([[int(i == j) for j in range(5)] for i in range(5)], [0, 1, 2, 3, 4])
    assert rows == before


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        nullspace_exact([[0.5]])
    with pytest.raises(TypeError):
        matrix_rank_exact([[0.5]])

