"""Ring extension by s = u^(-1/2), localized at u.

Elements are (A + B*s) / u^m with A, B polynomials and m >= 0.  Because
u is squarefree and not a perfect square (the factorization checks write
it, with a and b symbolic, as a product of four distinct complex linear
factors), s is irrational over the rational function field, so
an element is zero iff A = 0 and B = 0 — no division ever needed for
the zero test.  Representations are not unique: (A, B, m) ~ (A*u, B*u,
m+1); equality cross-multiplies to a common power of u.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MOMENTA, NVARS, Polynomial, Scalar

_ZERO = Polynomial.zero()


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q, or the zero polynomial with no product formed if either is
    zero: an element's A or B, or a derivative of one, is often zero."""
    return p * q if p and q else _ZERO


class SingularPoint(Exception):
    """Numeric evaluation hit the zero set of u."""


class ContextMismatch(Exception):
    """Operands belong to different ring contexts."""


class RingContext:
    """Shared, immutable context: the quartic u and its gradient."""

    def __init__(self, u: Polynomial):
        if u.is_zero():
            raise ValueError("u must be nonzero")
        if any(u.degree_in(v) for v in MOMENTA):
            raise ValueError("u must be momentum-free")
        self.u = u
        self.du = tuple(u.diff(v) for v in range(NVARS))

    def from_poly(self, p: Polynomial | Scalar) -> "RadicalElement":
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(p)
        return RadicalElement(self, p, _ZERO, 0)

    def s(self) -> "RadicalElement":
        """The radical generator u^(-1/2) itself."""
        return RadicalElement(self, _ZERO, Polynomial.constant(1), 0)

    def zero(self) -> "RadicalElement":
        return RadicalElement(self, _ZERO, _ZERO, 0)

    def one(self) -> "RadicalElement":
        return self.from_poly(1)


class RadicalElement:
    """(A + B*s) / u^m in a fixed ring context."""

    __slots__ = ("ring", "A", "B", "m")

    def __init__(self, ring: RingContext, A: Polynomial, B: Polynomial, m: int):
        if m < 0:
            raise ValueError("denominator exponent must be nonnegative")
        self.ring = ring
        self.A = A
        self.B = B
        self.m = m

    def _check(self, other: "RadicalElement"):
        if self.ring is not other.ring:
            raise ContextMismatch("operands from different ring contexts")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        m = max(self.m, other.m)
        A1, B1 = self._over(m)
        A2, B2 = other._over(m)
        return RadicalElement(self.ring, A1 + A2, B1 + B2, m)

    __radd__ = __add__

    def _over(self, m: int):
        """(A, B) of this element written over u^m, m >= self.m: the
        element's own polynomials, which are immutable, when m == self.m."""
        if m == self.m:
            return self.A, self.B
        f = self.ring.u ** (m - self.m)
        return _mul(self.A, f), _mul(self.B, f)

    def __neg__(self):
        return RadicalElement(self.ring, -self.A, -self.B, self.m)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        u = self.ring.u
        A1, B1, A2, B2 = self.A, self.B, other.A, other.B
        if B1.is_zero() and B2.is_zero():
            return RadicalElement(self.ring, _mul(A1, A2), _ZERO, self.m + other.m)
        if B1.is_zero() or B2.is_zero():
            return RadicalElement(
                self.ring, _mul(A1, A2), _mul(A1, B2) + _mul(A2, B1), self.m + other.m
            )
        # s^2 = 1/u: clear it by one extra power of u in the denominator
        return RadicalElement(
            self.ring,
            _mul(_mul(A1, A2), u) + B1 * B2,
            _mul(_mul(A1, B2) + _mul(A2, B1), u),
            self.m + other.m + 1,
        )

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, RadicalElement):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.ring.from_poly(other)
        return NotImplemented

    # -- calculus -----------------------------------------------------

    def diff(self, v: int) -> "RadicalElement":
        """Formal partial derivative.

        Where d u/dv is zero (every momentum: RingContext admits only a
        momentum-free u) s is constant; otherwise the chain rule
        d(s)/dv = -(1/2) (d u/dv) s / u applies, and the u^(-m) prefactor
        contributes -m (d u/dv) / u.
        """
        dA = self.A.diff(v)
        dB = self.B.diff(v)
        du = self.ring.du[v]
        if du.is_zero():
            return RadicalElement(self.ring, dA, dB, self.m)
        u = self.ring.u
        m = self.m
        if m == 0 and self.B.is_zero():
            return RadicalElement(self.ring, dA, _ZERO, 0)
        newA = _mul(dA, u) - _mul(self.A.scale(m), du)
        newB = _mul(dB, u) - _mul(self.B.scale(Fraction(2 * m + 1, 2)), du)
        return RadicalElement(self.ring, newA, newB, m + 1)

    def grad_coords(self):
        from .algebra import COORDS

        return tuple(self.diff(v) for v in COORDS)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- numeric bridge -----------------------------------------------

    def eval_float(self, point, u_floor: float = 1e-300) -> float:
        uval = self.ring.u.eval_float(point)
        if uval <= u_floor:
            raise SingularPoint(f"u = {uval!r} at evaluation point")
        val = self.A.eval_float(point)
        if self.B:
            val += self.B.eval_float(point) / uval**0.5
        if self.m:
            val /= uval**self.m
        return val

    def __repr__(self):
        return f"RadicalElement(A={self.A!r}, B={self.B!r}, m={self.m})"
