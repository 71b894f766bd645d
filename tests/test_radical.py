"""The ring extension by s = u^(-1/2): closure, calculus, numeric bridge."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from quadint.algebra import NVARS, PX, W0, X, Y, Z, Polynomial, generators
from quadint.catalog import build_u
from quadint.radical import (
    ContextMismatch,
    RadicalElement,
    RingContext,
    SingularPoint,
)

x, y, z, px, py, pz, a, b, w0 = generators()


@pytest.fixture(scope="module")
def ring():
    return RingContext(build_u())


# small random elements: polynomial parts with few terms, low degree
coeffs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
).filter(lambda f: f != 0)
exponents = st.tuples(*[st.integers(0, 1) for _ in range(NVARS)]).filter(
    lambda e: sum(e) <= 2
)
small_polys = st.lists(st.tuples(exponents, coeffs), min_size=0, max_size=3).map(
    lambda terms: sum(
        (Polynomial.monomial(e, c) for e, c in terms), Polynomial.zero()
    )
)


def elements(ring):
    return st.tuples(small_polys, small_polys, st.integers(0, 1)).map(
        lambda t: RadicalElement(ring, t[0], t[1], t[2])
    )


def test_embedding_and_identities(ring):
    assert ring.from_poly(0).is_zero()
    one = ring.from_poly(1)
    s = ring.s()
    assert (one * s) == s
    assert (one * ring.from_poly(x + y)) == ring.from_poly(x + y)


def test_s_squared_is_inverse_u(ring):
    s = ring.s()
    ss = s * s
    # s*s = 1/u: representation (1, 0, 1)
    assert ss.A == Polynomial.constant(1) and ss.B.is_zero() and ss.m == 1
    assert (ss * ring.from_poly(ring.u) - 1).is_zero()


def test_additive_inverse_random(ring):
    f = RadicalElement(ring, x * y - 3, 2 * z, 1)
    assert (f + (-f)).is_zero()


def test_zero_test_and_equality(ring):
    assert RadicalElement(ring, Polynomial(), Polynomial(), 7).is_zero()
    # (u, 0, 1) == (1, 0, 0): one power of u cancels
    assert RadicalElement(ring, ring.u, Polynomial(), 1) == ring.one()
    # s itself is not zero: irrational over the rational function field
    assert not ring.s().is_zero()


def test_add_multiplies_only_the_operand_with_the_lower_exponent(ring, monkeypatch):
    """An add lifts only the operand whose u-exponent is below the common
    one; an operand already over u^m is summed as it is."""
    low = RadicalElement(ring, x + y, z, 0)
    high = RadicalElement(ring, x * y, px, 1)
    expected = [(low + low).A, (low + high).A, (low + high).B]
    products = []
    mul = Polynomial.__mul__

    def counting(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    same = low + low
    assert products == []
    mixed = low + high
    assert [same.A, mixed.A, mixed.B] == expected
    assert same.m == 0 and mixed.m == 1
    assert products and all(f is not high.A and f is not high.B
                            for pair in products for f in pair)


def test_context_mismatch_rejected(ring):
    other = RingContext(build_u())
    with pytest.raises(ContextMismatch):
        ring.s() * other.s()


@pytest.mark.parametrize("seed", range(3))
def test_mul_commutative_associative(ring, seed):
    import random

    rnd = random.Random(seed)

    def rand_poly():
        p = Polynomial.zero()
        for _ in range(rnd.randint(0, 3)):
            e = [0] * NVARS
            e[rnd.randrange(NVARS)] = rnd.randint(0, 2)
            p = p + Polynomial.monomial(e, Fraction(rnd.randint(-5, 5)))
        return p

    f = RadicalElement(ring, rand_poly(), rand_poly(), rnd.randint(0, 1))
    g = RadicalElement(ring, rand_poly(), rand_poly(), rnd.randint(0, 1))
    h = RadicalElement(ring, rand_poly(), rand_poly(), rnd.randint(0, 1))
    assert (f * g) == (g * f)
    assert ((f * g) * h) == (f * (g * h))


def test_leibniz_rule(ring):
    f = RadicalElement(ring, x**2 + z, y, 0)
    g = RadicalElement(ring, y * z, Polynomial.constant(2), 1)
    for v in (X, Y, Z, PX):
        lhs = (f * g).diff(v)
        rhs = f.diff(v) * g + f * g.diff(v)
        assert lhs == rhs


def test_schwarz_symmetry(ring):
    f = RadicalElement(ring, x * y + pz, z**2, 1)
    for v, w in ((X, Y), (X, Z), (Y, Z), (X, PX)):
        assert f.diff(v).diff(w) == f.diff(w).diff(v)


def test_chain_rule_on_s(ring):
    ds = ring.s().diff(X)
    expected = RadicalElement(
        ring, Polynomial.zero(), Fraction(-1, 2) * ring.u.diff(X), 1
    )
    assert ds == expected


def test_diff_polynomial_part(ring):
    f = ring.from_poly(x**2)
    assert f.diff(X) == ring.from_poly(2 * x)


def test_momentum_derivative_keeps_denominator(ring):
    f = RadicalElement(ring, px * x, px**2, 1)
    df = f.diff(PX)
    assert df.A == x and df.B == 2 * px and df.m == 1


# -- numeric bridge ----------------------------------------------------

POINT = {X: 0.0, Y: 0.0, Z: 0.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.25, 7: 1.0,
         W0: -1.0}


def test_potential_value_at_origin(ring):
    # V = w0 * s; u(origin) = 729/256 at a=1/4, b=1, so V = -16/27
    V = RadicalElement(ring, Polynomial.zero(), w0, 0)
    val = V.eval_float(POINT)
    assert val == pytest.approx(-16 / 27, rel=1e-14)


def test_u_value_at_origin(ring):
    assert ring.u.eval_float(POINT) == pytest.approx(729 / 256, rel=1e-14)


def test_singular_point_raises(ring):
    # on a singular line u = 0: x = -z/sqrt(3), y = 3*sqrt(3)/4 at a=1/4, b=1
    pt = dict(POINT)
    pt[X], pt[Y], pt[Z] = -1.0 / 3**0.5, 3 * 3**0.5 / 4, 1.0
    # u vanishes on the line; float rounding leaves O(1e-16) residue
    with pytest.raises(SingularPoint):
        ring.s().eval_float(pt, u_floor=1e-12)


def test_derivative_matches_finite_difference(ring):
    V = RadicalElement(ring, Polynomial.zero(), w0, 0)
    dV = V.diff(X)
    h = 1e-5
    for xval in (0.1, -0.3, 0.7):
        pt = dict(POINT)
        pt[X] = xval
        lo, hi = dict(pt), dict(pt)
        lo[X] -= h
        hi[X] += h
        fd = (V.eval_float(hi) - V.eval_float(lo)) / (2 * h)
        assert dV.eval_float(pt) == pytest.approx(fd, rel=1e-6)


def test_eval_float_multiplicative(ring):
    import random

    rnd = random.Random(11)
    f = RadicalElement(ring, x + 2 * y, z, 0)
    g = RadicalElement(ring, y * z, Polynomial.constant(3), 1)
    for _ in range(10):
        pt = dict(POINT)
        pt[X], pt[Y], pt[Z] = (rnd.uniform(-0.5, 0.5) for _ in range(3))
        if ring.u.eval_float(pt) <= 0.1:
            continue
        lhs = (f * g).eval_float(pt)
        rhs = f.eval_float(pt) * g.eval_float(pt)
        assert lhs == pytest.approx(rhs, rel=1e-10)
