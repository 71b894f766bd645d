"""Transcription spot checks for the system catalog."""

import math
from fractions import Fraction

import pytest

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
    Polynomial,
    generators,
)
from quadint.catalog import (
    NonQuadratic,
    ParamDomain,
    angular_momenta,
    build_characteristics,
    build_context,
    build_u,
    extract_killing_tensor,
    singular_lines,
)

x, y, z, px, py, pz, a, b, w0 = generators()


@pytest.fixture(scope="module")
def ctx():
    return build_context()


def _exps(**kw):
    e = [0] * NVARS
    names = dict(x=X, y=Y, z=Z, px=PX, py=PY, pz=PZ, a=A, b=B, w0=W0)
    for k, v in kw.items():
        e[names[k]] = v
    return tuple(e)


# -- u -----------------------------------------------------------------


def test_u_at_origin_symbolic(ctx):
    expected = 81 * a**2 * (1 - a) ** 2 * b**4
    assert ctx.u.specialize({X: 0, Y: 0, Z: 0}) == expected


def test_u_at_origin_reference_parameters(ctx):
    val = ctx.u.eval_exact({i: 0 for i in range(6)} | {A: Fraction(1, 4), B: 1, W0: 0})
    assert val == Fraction(729, 256)


def test_u_y_cubed_derivative_coefficient(ctx):
    # d/dy of (a z^2 + y^2)^2 contributes 4 y^3
    du = ctx.u.diff(Y)
    assert du.coefficient(_exps(y=3)) == 4


def test_u_momentum_free(ctx):
    assert all(ctx.u.degree_in(v) == 0 for v in MOMENTA)


def test_u_parity_symmetry(ctx):
    # invariant under (x, y, z, b) -> (-x, -y, -z, -b)
    flipped = Polynomial(
        {
            tuple(e): c * (-1) ** (e[X] + e[Y] + e[Z] + e[B])
            for e, c in ctx.u.terms.items()
        }
    )
    assert flipped == ctx.u


def test_u_mirror_a_to_one_minus_a_swaps_x_and_z(ctx):
    """u(a; x, y, z) == u(1 - a; z, y, x) with a and b symbolic: the
    family for a in (1/2, 1) is the x <-> z mirror of the one in (0, 1/2)."""
    images = {X: z, Y: y, Z: x, A: 1 - a, B: b}
    mirrored = Polynomial.zero()
    for e, coeff in ctx.u.terms.items():
        term = Polynomial.constant(coeff)
        for v, image in images.items():
            term = term * image ** e[v]
        mirrored = mirrored + term
    assert set(ctx.u.variables()) == set(images)
    assert mirrored == ctx.u


def test_u_is_a_difference_of_squares_symbolic(ctx):
    # the numeric evaluator's factored form rests on this identity, for
    # every (a, b)
    p = y**2 + (1 - a) * x**2 + a * z**2 + 9 * a * (1 - a) * b**2
    assert ctx.u == p**2 - 4 * a * (1 - a) * (3 * b * y - x * z) ** 2


def _reduce_squares(poly, squares):
    """poly with each power v**n of a stand-in v replaced by
    squares[v]**(n // 2) * v**(n % 2)."""
    out = Polynomial.zero()
    for e, coeff in poly.terms.items():
        term = Polynomial.constant(coeff)
        rest = list(e)
        for v, square in squares.items():
            term = term * square ** (e[v] // 2)
            rest[v] = e[v] % 2
        out = out + term * Polynomial.monomial(rest)
    return out


def test_u_is_the_product_of_squared_line_distances(ctx):
    """u = F+ F- with F+- = (y -+ k)^2 + (c x +- s z)^2, when c^2 = 1 - a,
    s^2 = a and k = 3 c s b (so k^2 = 9 a (1 - a) b^2).  c^2 + s^2 = 1, so
    F+- is the squared distance to the line F+- = 0."""
    c, s = px, py              # stand-ins: u has no momenta
    squares = {PX: 1 - a, PY: a}
    k = 3 * c * s * b
    f_plus = (y - k) ** 2 + (c * x + s * z) ** 2
    f_minus = (y + k) ** 2 + (c * x - s * z) ** 2
    assert _reduce_squares(f_plus * f_minus, squares) == ctx.u
    assert _reduce_squares(k**2, squares) == 9 * a * (1 - a) * b**2
    assert _reduce_squares(c**2 + s**2, squares) == Polynomial.constant(1)


def test_u_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    xs, ys, zs, as_, bs = sympy.symbols("x y z a b")
    ref = sympy.expand(
        (as_ - 1) ** 2 * xs**4
        + (as_ * zs**2 + ys**2) ** 2
        + 2 * (1 - as_) * xs**2 * (ys**2 - as_ * zs**2)
        + 6 * as_ * bs * (as_ - 1)
        * (3 * ((xs**2 - zs**2) * as_ - xs**2 + ys**2) * bs - 4 * xs * ys * zs)
        + 81 * as_**2 * (1 - as_) ** 2 * bs**4
    )
    ours = sympy.S(0)
    for e, c in build_u().terms.items():
        ours += (
            sympy.Rational(c.numerator, c.denominator)
            * xs ** e[X] * ys ** e[Y] * zs ** e[Z] * as_ ** e[A] * bs ** e[B]
        )
    assert sympy.expand(ours - ref) == 0


# -- observables -------------------------------------------------------


def test_x2_leading_pz2_constant_coefficient(ctx):
    # the coordinate-free part of the pz^2 coefficient is 9 a^2 b^2
    assert ctx.x2_leading.coefficient(_exps(pz=2, a=2, b=2)) == 9


def test_h_with_zero_w0_is_free_kinetic(ctx):
    kinetic = ctx.H.A
    assert kinetic == Fraction(1, 2) * (px**2 + py**2 + pz**2)
    assert ctx.H.B == w0  # potential part carries w0 linearly


def test_m1_value_at_origin(ctx):
    # m1(0) = 2 w0 / (3a) for b > 0 (exact at a=1/4, b=1, w0=-1)
    pt = {i: 0.0 for i in range(6)} | {A: 0.25, B: 1.0, W0: -1.0}
    val = ctx.m1.eval_float(pt)
    assert val == pytest.approx(2 * (-1.0) / (3 * 0.25), rel=1e-13)


def test_x1_x2_scalar_parts_momentum_free(ctx):
    for v in MOMENTA:
        for m in (ctx.m1, ctx.m2):
            assert m.A.degree_in(v) == 0 and m.B.degree_in(v) == 0
        assert ctx.m1_numerator.degree_in(v) == 0
        assert ctx.m2_numerator.degree_in(v) == 0


def test_angular_momenta_standard_definitions():
    lx, ly, lz = angular_momenta()
    assert lx == y * pz - z * py
    assert ly == z * px - x * pz
    assert lz == x * py - y * px


# -- characteristics ---------------------------------------------------


def test_characteristics_nonzero_symbolically():
    n1, d1, n2, d2 = build_characteristics()
    for p in (n1, d1, n2, d2):
        assert not p.is_zero()


def test_n2_y_cubed_coefficient_is_one():
    _, _, n2, _ = build_characteristics()
    assert n2.coefficient(_exps(y=3)) == 1


def test_d1_on_x_y_zero():
    _, d1, _, _ = build_characteristics()
    restricted = d1.specialize({X: 0, Y: 0})
    expected = a * (9 * (a - 1) * a * b**2 * z - a * z**3)
    assert restricted == expected


# -- Killing tensors ---------------------------------------------------


def test_extract_from_kinetic():
    kin = Fraction(1, 2) * (px**2 + py**2 + pz**2)
    kt = extract_killing_tensor(kin)
    for i in range(3):
        for j in range(3):
            expected = Polynomial.constant(Fraction(1, 2)) if i == j else Polynomial.zero()
            assert kt.K[i][j] == expected


def test_extract_from_lz_squared():
    _, _, lz = angular_momenta()
    kt = extract_killing_tensor(lz**2)
    assert kt.K[0][0] == y**2
    assert kt.K[1][1] == x**2
    assert kt.K[0][1] == -x * y


def test_k2_zz_entry(ctx):
    kt = extract_killing_tensor(ctx.x2_leading)
    assert kt.K[2][2] == a * x**2 + 9 * a**2 * b**2


def test_extract_rejects_non_quadratic():
    with pytest.raises(NonQuadratic):
        extract_killing_tensor(px**3)


def test_killing_tensor_symmetry(ctx):
    for lead in (ctx.x1_leading, ctx.x2_leading):
        kt = extract_killing_tensor(lead)
        for i in range(3):
            for j in range(3):
                assert kt.K[i][j] == kt.K[j][i]


# -- leading parts commute as polynomials ------------------------------


def test_leading_parts_pairwise_commute(ctx):
    from quadint.verifier import poisson_bracket

    kin = ctx.H.A
    for f, g in ((kin, ctx.x1_leading), (kin, ctx.x2_leading),
                 (ctx.x1_leading, ctx.x2_leading)):
        assert poisson_bracket(ctx.ring.from_poly(f), ctx.ring.from_poly(g)).is_zero()


# -- singular lines ----------------------------------------------------


def test_singular_lines_reference_parameters():
    lines = singular_lines(0.25, 1.0)
    offsets = sorted(line.point[1] for line in lines)
    expect = 3 * (3**0.5) / 4
    assert offsets[1] == pytest.approx(expect, rel=1e-14)
    assert offsets[0] == pytest.approx(-expect, rel=1e-14)


def test_singular_lines_pythagorean_exact():
    lines = singular_lines(Fraction(9, 25), Fraction(1))
    ys = sorted(line.point[1] for line in lines)
    assert ys == [Fraction(-36, 25), Fraction(36, 25)]
    assert isinstance(ys[0], Fraction)


def test_singular_lines_lie_in_zero_set(ctx):
    import numpy as np

    for a_val, b_val in ((0.25, 1.0), (0.36, 1.0), (0.5, -2.0)):
        for line in singular_lines(a_val, b_val):
            p0 = np.array([float(v) for v in line.point])
            d = np.array([float(v) for v in line.direction])
            for t in np.linspace(-3, 3, 10):
                q = p0 + t * d
                val = ctx.u.eval_float(
                    {X: q[0], Y: q[1], Z: q[2], A: a_val, B: b_val}
                )
                scale = max(1.0, np.linalg.norm(q)) ** 4
                assert abs(val) < 1e-9 * scale


def test_singular_lines_exact_at_pythagorean(ctx):
    a_val, b_val = Fraction(9, 25), Fraction(2)
    for line in singular_lines(a_val, b_val):
        for t in (Fraction(-2), Fraction(0), Fraction(3, 7)):
            q = [p + t * d for p, d in zip(line.point, line.direction)]
            val = ctx.u.eval_exact(
                {X: q[0], Y: q[1], Z: q[2], A: a_val, B: b_val}
            )
            assert val == 0


def test_param_domain_guards():
    singular_lines(0.7, 1.0)
    singular_lines(math.nextafter(1.0, 0), 1.0)  # the largest double below 1
    for a_val in (1.0, Fraction(1), 1.3, 0.0):
        with pytest.raises(ParamDomain):
            singular_lines(a_val, 1.0)
    with pytest.raises(ParamDomain):
        singular_lines(0.25, 0.0)
    with pytest.raises(ParamDomain):
        singular_lines(-0.1, 1.0)
    for b_val in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParamDomain):
            singular_lines(0.25, b_val)
