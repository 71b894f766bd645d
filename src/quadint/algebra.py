"""Sparse exact multivariate polynomial arithmetic over rationals.

Everything lives in a fixed nine-variable alphabet, in this order:

    x, y, z, px, py, pz, a, b, w0

Coordinates and momenta are dynamical variables; a, b, w0 are system
parameters carried symbolically so that identity checks are generic in
the parameters.  Coefficients are ``fractions.Fraction`` throughout; no
floating point enters except through the dedicated ``eval_float`` bridge.
A product of two multi-term polynomials is computed on integers: each
factor is put over the lcm of its denominators, the cross terms are
merged as ints, and each output coefficient is made a ``Fraction`` once.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

VARS = ("x", "y", "z", "px", "py", "pz", "a", "b", "w0")
NVARS = len(VARS)
X, Y, Z, PX, PY, PZ, A, B, W0 = range(NVARS)
COORDS = (X, Y, Z)
MOMENTA = (PX, PY, PZ)

ZERO_EXPS = (0,) * NVARS
_ZERO = Fraction(0)

Scalar = int | Fraction


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded lexicographic sort key (higher key = larger monomial)."""
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial: map from exponent tuple to Fraction.

    Zero coefficients are never stored, so structural equality of the
    term maps is semantic equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.terms: dict[tuple[int, ...], Fraction] = dict(terms) if terms else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial({ZERO_EXPS: c} if c else None)

    @staticmethod
    def variable(v: int) -> "Polynomial":
        exps = tuple(1 if i == v else 0 for i in range(NVARS))
        return Polynomial({exps: Fraction(1)})

    @staticmethod
    def monomial(exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        c = _as_fraction(coeff)
        if not c:
            return Polynomial()
        return Polynomial({tuple(exps): c})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        """Exact product.  When one factor is a single term (the smaller
        one, ``self`` on a tie) the other's exponents are shifted and its
        coefficients scaled with no merge, since a shift cannot make two
        monomials equal; a zero shift and a coefficient of 1 are skipped,
        so the constant 1 gives a copy.  Otherwise each factor is put over
        the lcm of its denominators and the cross terms are merged on
        integers, in a double loop over the smaller factor outermost; a
        sum is 0 exactly when the rational sum is, so the terms and their
        order are those of the same loop on ``Fraction``.  The result's
        term order is the other factor's in the single-term case, as that
        loop gives."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial()
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            (e1, c1), = small.items()
            if e1 != ZERO_EXPS:
                big = {tuple(map(int.__add__, e1, e)): c for e, c in big.items()}
            if c1 != 1:
                big = {e: c1 * c for e, c in big.items()}
            return Polynomial(big)
        small, d1 = _over_lcm(small)
        big, d2 = _over_lcm(big)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(map(int.__add__, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        d = d1 * d2
        if d == 1:
            return Polynomial({e: Fraction(c) for e, c in out.items()})
        return Polynomial({e: Fraction(c, d) for e, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Polynomial.constant(1)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: Scalar) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return Polynomial()
        return Polynomial({e: c * v for e, v in self.terms.items()})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def degree_in(self, v: int) -> int:
        return max((e[v] for e in self.terms), default=0)

    def variables(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- calculus -----------------------------------------------------

    def diff(self, v: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            k = e[v]
            if k == 0:
                continue
            de = list(e)
            de[v] = k - 1
            out[tuple(de)] = c * k
        return Polynomial(out)

    # -- evaluation / substitution ------------------------------------

    def eval_exact(self, point: Mapping[int, Scalar]) -> Fraction:
        missing = self.variables() - set(point)
        if missing:
            names = ", ".join(VARS[i] for i in sorted(missing))
            raise ValueError(f"point does not assign: {names}")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= _as_fraction(point[i]) ** k
            total += v
        return total

    def eval_float(self, point: Mapping[int, float]) -> float:
        """binary64 evaluation, one product per term, Neumaier-compensated sum."""
        s = 0.0
        comp = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for i, k in enumerate(e):
                if k:
                    v *= point[i] ** k
            t = s + v
            if abs(s) >= abs(v):
                comp += (s - t) + v
            else:
                comp += (v - t) + s
            s = t
        return s + comp

    def specialize(self, assignments: Mapping[int, Scalar]) -> "Polynomial":
        """Substitute exact rational values for a subset of the variables."""
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            v = c
            ne = list(e)
            for i, val in assignments.items():
                k = e[i]
                if k:
                    v *= _as_fraction(val) ** k
                    ne[i] = 0
            if not v:
                continue
            key = tuple(ne)
            s = out.get(key)
            if s is None:
                out[key] = v
            else:
                s = s + v
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial(out)

    def collect(self, subset: Iterable[int]) -> dict[tuple[int, ...], "Polynomial"]:
        """Split p = sum of (monomial in subset) * (polynomial in the rest).

        Keys are full-width exponent tuples supported on ``subset``.
        """
        subset = set(subset)
        groups: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            key = tuple(k if i in subset else 0 for i, k in enumerate(e))
            rest = tuple(0 if i in subset else k for i, k in enumerate(e))
            groups.setdefault(key, {})[rest] = c
        return {k: Polynomial(v) for k, v in groups.items()}

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return q with self == q * divisor, or None if not divisible.

        Single-divisor multivariate division in graded lex order; the
        remainder is zero iff the divisor divides self exactly, so a
        failure at any step is a definitive "not divisible".
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        de, dc = divisor.leading_term()
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], Fraction] = {}
        while rem:
            le = max(rem, key=grlex_key)
            lc = rem[le]
            qe = tuple(map(int.__sub__, le, de))
            if any(k < 0 for k in qe):
                return None
            qc = lc / dc
            quot[qe] = qc
            # rem -= (qc * x^qe) * divisor
            for e2, c2 in divisor.terms.items():
                e = tuple(map(int.__add__, qe, e2))
                s = rem.get(e, Fraction(0)) - qc * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Polynomial(quot)

    # -- display ------------------------------------------------------

    def canonical_str(self) -> str:
        """Deterministic rendering; used for fingerprints and debugging."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(VARS[i])
                elif k > 1:
                    factors.append(f"{VARS[i]}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        s = self.canonical_str()
        if len(s) > 120:
            s = s[:117] + "..."
        return f"Polynomial({s})"


def _over_lcm(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer numerators of ``terms`` over the lcm d of their
    denominators, and d."""
    dens = [c.denominator for c in terms.values()]
    d = math.lcm(*dens)
    if d == 1:
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (d // dc) for (e, c), dc in zip(terms.items(), dens)}, d


def _coerce(obj) -> "Polynomial":
    if isinstance(obj, Polynomial):
        return obj
    if isinstance(obj, (int, Fraction)):
        return Polynomial.constant(obj)
    return NotImplemented


def generators() -> tuple[Polynomial, ...]:
    """The nine variables as polynomials, in alphabet order."""
    return tuple(Polynomial.variable(i) for i in range(NVARS))


# -- Gaussian-rational polynomials ------------------------------------


class GaussPoly:
    """Polynomial with Gaussian-rational coefficients, stored as re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re: Polynomial | None = None, im: Polynomial | None = None):
        self.re = re if re is not None else Polynomial()
        self.im = im if im is not None else Polynomial()

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        return GaussPoly(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        return GaussPoly(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussPoly") -> "GaussPoly":
        return GaussPoly(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussPoly":
        return GaussPoly(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"GaussPoly(re={self.re!r}, im={self.im!r})"


def gauss_poly_expand(factors: Iterable[GaussPoly]) -> GaussPoly:
    """Exact expanded product of Gaussian-rational polynomial factors."""
    out = GaussPoly(Polynomial.constant(1))
    for f in factors:
        out = out * f
    return out


# -- exact linear algebra ---------------------------------------------


def _eliminate(r: dict[int, Fraction], row: dict[int, Fraction], pc: int):
    """r - r[pc] * row for a pivot row with row[pc] == 1: column pc and
    every entry that cancels are left out."""
    f = r[pc]
    out = dict(r)
    del out[pc]
    for c, v in row.items():
        if c == pc:
            continue
        s = out.get(c)
        if s is None:
            out[c] = -f * v
        else:
            s -= f * v
            if s:
                out[c] = s
            else:
                del out[c]
    return out


def _sparse_rref(rows: list[dict[int, Fraction]], ncols: int):
    """Reduced row echelon form over the rationals, rows as sparse dicts.

    Returns (reduced_rows, pivot_cols); reduced rows are pivot-normalized
    and fully back-substituted, in pivot-column order.  The next pivot
    row is a shortest remaining row (the first of them in input order),
    taken from a length heap whose stale entries are skipped; its pivot
    is its leftmost entry.  An index from each column to the rows that
    hold it, remaining and reduced alike, lets a pivot visit only the
    rows it eliminates from.  The reduced form is unique, so the choice
    of pivot rows changes only fill-in and time.
    """
    live = {i: dict(r) for i, r in enumerate(rows) if r}
    holders: dict[int, set[int]] = {}
    for i, r in live.items():
        for c in r:
            holders.setdefault(c, set()).add(i)
    heap = [(len(r), i) for i, r in live.items()]
    heapq.heapify(heap)
    done: dict[int, dict[int, Fraction]] = {}
    pivots: list[int] = []
    while live:  # every live row has an entry of its current length
        n, i = heapq.heappop(heap)
        row = live.get(i)
        if row is None or len(row) != n:
            continue  # eliminated since it was pushed
        del live[i]
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: v * inv for c, v in row.items()}
        for j in holders[pc] - {i}:
            old = live.get(j)
            is_live = old is not None
            if not is_live:
                old = done[j]  # back-substitute into a reduced row
            new = _eliminate(old, row, pc)
            for c in row:
                if c in old:
                    if c not in new:
                        holders[c].discard(j)
                elif c in new:
                    holders[c].add(j)
            if not is_live:
                done[j] = new
            elif new:
                live[j] = new
                heapq.heappush(heap, (len(new), j))
            else:
                del live[j]
        done[i] = row
        pivots.append(pc)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    reduced = list(done.values())  # in pivot order: back-substitution keeps a key's place
    return [reduced[k] for k in order], [pivots[k] for k in order]


def _row_dicts(matrix: Sequence[Sequence[Scalar]]) -> list[dict[int, Fraction]]:
    return [{j: _as_fraction(v) for j, v in enumerate(r) if v} for r in matrix]


def _free_basis(reduced, pivots, ncols: int) -> list[list[Fraction]]:
    """One nullspace vector per free (non-pivot) column below ncols of a
    reduced system from _sparse_rref."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def nullspace_exact(matrix: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an exact rational matrix.

    One basis vector per free column; M @ v == 0 exactly for each.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    return _free_basis(*_sparse_rref(_row_dicts(matrix), ncols), ncols)


def matrix_rank_exact(matrix: Sequence[Sequence[Scalar]]) -> int:
    if not matrix:
        return 0
    _, pivots = _sparse_rref(_row_dicts(matrix), len(matrix[0]))
    return len(pivots)


def solve_exact_sparse(
    rows: list[dict[int, Fraction]],
    rhs: list[list[Fraction]],
    ncols: int,
):
    """Solve A x = b_k exactly for sparse rational rows A and each
    right-hand side b_k in ``rhs`` (each a list aligned with ``rows``),
    with one elimination.

    Returns (particular_solutions, nullspace_basis): one particular
    solution per right-hand side, with every free unknown 0, or None where
    A x = b_k is inconsistent, and the nullspace of A.  b_k is carried in
    augmented column ncols + k, as -b_k, and is consistent when that
    column is no pivot and is 0 in every row whose pivot is another
    right-hand-side column: such a row reads 0 = a combination of the
    b_j, so a nonzero entry means b_k lies outside the column space of A
    even when its column is no pivot.  A pivot column is the leftmost
    entry of its row, so the pivots below ncols are those of A alone.
    """
    aug = []
    for i, row in enumerate(rows):
        r = dict(row)
        for k, b in enumerate(rhs):
            if b[i]:
                r[ncols + k] = -b[i]  # A x - b_k = 0, unknown x_(ncols+k) fixed to 1
        if r:
            aug.append(r)
    reduced, pivots = _sparse_rref(aug, ncols + len(rhs))
    n_a = sum(pc < ncols for pc in pivots)
    rhs_rows = reduced[n_a:]
    reduced, pivots = reduced[:n_a], pivots[:n_a]
    particulars = []
    for k in range(ncols, ncols + len(rhs)):
        if any(k in r for r in rhs_rows):
            particulars.append(None)
            continue
        particular = [_ZERO] * ncols
        for row, pc in zip(reduced, pivots):
            if k in row:
                particular[pc] = -row[k]
        particulars.append(particular)
    return particulars, _free_basis(reduced, pivots, ncols)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
