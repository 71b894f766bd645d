"""Closed-form objects of the quadratically integrable, non-separable
system: the invariant quartic u, the potential V = w0/sqrt(u), the
Hamiltonian, both quadratic integrals with their scalar parts, the
characteristic numerators/denominators, the Killing tensors, and the
two singular lines.

All formulas are transcribed here once, with parameters a, b, w0 kept
symbolic; every downstream identity check runs against this single
transcription.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MOMENTA, Polynomial, generators
from .radical import RadicalElement, RingContext

x, y, z, px, py, pz, a, b, w0 = generators()

HALF = Fraction(1, 2)


class ParamDomain(Exception):
    """Parameters outside 0 < a < 1, b != 0 and finite."""


class NonQuadratic(Exception):
    """Observable has no pure momentum-quadratic leading part."""


def build_u() -> Polynomial:
    """The invariant quartic annihilated by both characteristic fields."""
    return (
        (a - 1) ** 2 * x**4
        + (a * z**2 + y**2) ** 2
        + 2 * (1 - a) * x**2 * (y**2 - a * z**2)
        + 6 * a * b * (a - 1) * (3 * ((x**2 - z**2) * a - x**2 + y**2) * b - 4 * x * y * z)
        + 81 * a**2 * (1 - a) ** 2 * b**4
    )


def angular_momenta(alt_ly: bool = False):
    """Standard right-handed angular momenta l = q x p.

    ``alt_ly`` swaps in the variant l_y = z*py - x*pz (which breaks the
    so(3) relations); kept only as a debugging cross-check.
    """
    lx = y * pz - z * py
    ly = (z * py - x * pz) if alt_ly else (z * px - x * pz)
    lz = x * py - y * px
    return lx, ly, lz


def build_x1_leading(alt_ly: bool = False) -> Polynomial:
    lx, ly, lz = angular_momenta(alt_ly)
    return (
        lx**2 + ly**2 + lz**2
        + 2 * b * (lx * px - (3 * a - 1) * ly * py - 2 * lz * pz)
        + 3 * b**2 * (
            (1 - 4 * a) * px**2
            - (3 * a**2 - 2 * a - 1) * py**2
            + 2 * (a - 1) * pz**2
        )
    )


def build_x2_leading(alt_ly: bool = False) -> Polynomial:
    lx, ly, lz = angular_momenta(alt_ly)
    return (
        a * ly**2 + lz**2
        + 6 * a * b * lx * px
        + 9 * a * b**2 * (a * pz**2 + py**2)
    )


def build_m1_numerator() -> Polynomial:
    """m1 = (this polynomial) * w0 / sqrt(u)."""
    return 2 * (x**2 + y**2 + z**2 + 3 * b**2 * (1 - a))


def build_m2_numerator() -> Polynomial:
    """m2 = (this polynomial) * w0 / sqrt(u)."""
    return x**2 + y**2 + a * (x**2 + z**2) + 9 * a * b**2 * (a + 1)


@functools.cache
def build_characteristics() -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """Numerators and denominators of the two characteristic ratios
    grad_x V / grad_z V = N1/D1 and grad_y V / grad_z V = N2/D2.

    Signs are fixed so that the y^3 coefficient of N2 is +1; with this
    convention D2 = -D1.  Built once per process: the report's checks and
    its fingerprint share the four polynomials, which are immutable.
    """
    n1 = (1 - a) * (
        9 * a * (a - 1) * b**2 * x
        - 6 * a * b * y * z
        + a * x * (x**2 + z**2)
        - x * (x**2 + y**2)
    )
    d1 = a * (
        9 * a * (a - 1) * b**2 * z
        + 6 * (a - 1) * b * x * y
        - a * z * (x**2 + z**2)
        + z * (x**2 - y**2)
    )
    n2 = (
        9 * a * (a - 1) * b**2 * y
        + 6 * a * (1 - a) * b * x * z
        + a * y * (z**2 - x**2)
        + y * (x**2 + y**2)
    )
    d2 = -d1
    return n1, d1, n2, d2


@dataclass(frozen=True)
class SystemContext:
    """Immutable bundle of all exact system objects (a, b, w0 symbolic).

    u is held twice, by design: as ``u`` and as ``ring.u``.  The checks of
    u itself read ``u``: the u part of invariant_coordinate, rank_R,
    first_order_scan, factorization and the fingerprint.  Everything that
    works in the ring reads ``ring``: the RadicalElements H, X1, X2, V, m1,
    m2 (involution, m_system, the V part of invariant_coordinate) and the
    scalar ansatz (``ring.u``, ``ring.du``).  ode_reduction,
    functional_independence and killing_commutator read neither.  So
    ``dataclasses.replace(ctx, u=...)`` swaps u under the first group only,
    which is how the mutation tests reach them.
    """

    u: Polynomial
    ring: RingContext
    H: RadicalElement
    X1: RadicalElement
    X2: RadicalElement
    V: RadicalElement
    m1: RadicalElement
    m2: RadicalElement
    x1_leading: Polynomial
    x2_leading: Polynomial
    m1_numerator: Polynomial
    m2_numerator: Polynomial


def build_context(alt_ly: bool = False) -> SystemContext:
    u = build_u()
    ring = RingContext(u)
    kinetic = HALF * (px**2 + py**2 + pz**2)
    # V = w0 * s, s = u^(-1/2)
    V = RadicalElement(ring, Polynomial.zero(), w0, 0)
    H = RadicalElement(ring, kinetic, w0, 0)
    x1l = build_x1_leading(alt_ly)
    x2l = build_x2_leading(alt_ly)
    m1n = w0 * build_m1_numerator()
    m2n = w0 * build_m2_numerator()
    m1 = RadicalElement(ring, Polynomial.zero(), m1n, 0)
    m2 = RadicalElement(ring, Polynomial.zero(), m2n, 0)
    X1 = RadicalElement(ring, x1l, m1n, 0)
    X2 = RadicalElement(ring, x2l, m2n, 0)
    return SystemContext(
        u=u, ring=ring, H=H, X1=X1, X2=X2, V=V, m1=m1, m2=m2,
        x1_leading=x1l, x2_leading=x2l,
        m1_numerator=m1n, m2_numerator=m2n,
    )


# -- Killing tensors ---------------------------------------------------


@dataclass(frozen=True)
class KillingTensor:
    """Symmetric 3x3 matrix K of polynomial entries with
    X_leading = sum_ij K[i][j] p_i p_j."""

    K: tuple[tuple[Polynomial, ...], ...]

    def commutator(self, other: "KillingTensor"):
        """K1 @ K2 - K2 @ K1 as a 3x3 polynomial matrix (Euclidean metric)."""
        def matmul(P, Q):
            return [
                [
                    sum((P[i][k] * Q[k][j] for k in range(3) if P[i][k] and Q[k][j]),
                        Polynomial.zero())
                    for j in range(3)
                ]
                for i in range(3)
            ]

        pq = matmul(self.K, other.K)
        qp = matmul(other.K, self.K)
        return [[pq[i][j] - qp[i][j] for j in range(3)] for i in range(3)]


def extract_killing_tensor(leading: Polynomial) -> KillingTensor:
    """Momentum-quadratic coefficients of an observable's leading part."""
    groups = leading.collect(MOMENTA)
    K = [[Polynomial.zero() for _ in range(3)] for _ in range(3)]
    for mono, coeff in groups.items():
        pdegs = [mono[v] for v in MOMENTA]
        if sum(pdegs) != 2:
            raise NonQuadratic(
                f"momentum degree {sum(pdegs)} term in quadratic leading part"
            )
        idx = [i for i, d in enumerate(pdegs) for _ in range(d)]
        i, j = idx
        if i == j:
            K[i][i] = K[i][i] + coeff
        else:
            half_c = coeff.scale(HALF)
            K[i][j] = K[i][j] + half_c
            K[j][i] = K[j][i] + half_c
    return KillingTensor(tuple(tuple(row) for row in K))


# -- singular lines ----------------------------------------------------


@dataclass(frozen=True)
class SingularLine:
    """A line where u vanishes: y = eps k and c x + eps s z = 0, for
    (c, s, k) = ``line_constants(a, b)`` and eps = 1 or -1
    (``singular_lines`` gives eps = 1 first).

    ``point`` is (0, eps k, 0) and ``direction`` the unnormalized
    (slope, 0, 1) with slope -eps s/c, all floats.
    """

    point: tuple[float, float, float]
    direction: tuple[float, float, float]


def _check_param_domain(a_val, b_val):
    if not 0 < a_val < 1:  # false for nan
        raise ParamDomain(f"a = {a_val} outside (0, 1)")
    if b_val == 0 or not -math.inf < b_val < math.inf:
        raise ParamDomain(f"b = {b_val} must be finite and nonzero")


def line_constants(a_val, b_val) -> tuple[float, float, float]:
    """(c, s, k) = (sqrt(1-a), sqrt(a), 3 sqrt(a(1-a)) b) in binary64, so
    that u = F+ F- with F+- = (y -+ k)^2 + (c x +- s z)^2, the squared
    distance to singular line +- (tests/test_catalog.py checks the identity
    exactly).  Both the plotted lines and the numeric kernels take their
    constants from here."""
    _check_param_domain(a_val, b_val)
    a_f, b_f = float(a_val), float(b_val)
    return math.sqrt(1.0 - a_f), math.sqrt(a_f), 3.0 * math.sqrt(a_f * (1.0 - a_f)) * b_f


def singular_lines(a_val, b_val) -> tuple[SingularLine, SingularLine]:
    """The two real lines along which the potential blows up."""
    c, s, k = line_constants(a_val, b_val)
    return tuple(SingularLine(point=(0.0, eps * k, 0.0), direction=(-eps * s / c, 0.0, 1.0))
                 for eps in (1.0, -1.0))
