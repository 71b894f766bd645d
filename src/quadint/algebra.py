"""Sparse exact multivariate polynomial arithmetic over rationals.

Everything lives in a fixed nine-variable alphabet, in this order:

    x, y, z, px, py, pz, a, b, w0

Coordinates and momenta are dynamical variables; a, b, w0 are system
parameters carried symbolically so that identity checks are generic in
the parameters.  A polynomial is packed: one ``int`` key per monomial,
each with an ``int`` numerator over one common denominator in lowest
terms.  A key holds each exponent in a ``FIELD_BITS``-wide field, x
highest, under a field for the total degree, so int order on keys is
graded lex order and a product's key is the sum of the keys.  A product
of total degree above ``MAX_DEGREE`` raises ``OverflowError`` rather than
carry between fields.  Ring operations run on ints; ``Fraction`` appears
where a coefficient is handed out and in the exact linear algebra.  The
packed form is private to this module: other modules build a linear
system by coefficient matching (``coefficient_rows``), one row per
monomial, without reading keys or numerators.  Floats
enter only through ``eval_float``, whose n / d is rounded once, as
``float(Fraction(n, d))`` is.
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

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1
_SHIFTS = tuple(FIELD_BITS * (NVARS - 1 - v) for v in range(NVARS))
_UNITS = tuple(1 << FIELD_BITS * NVARS | 1 << s for s in _SHIFTS)  # key of each variable
_KEY_LIMIT = 1 << FIELD_BITS * (NVARS + 1)

Scalar = int | Fraction


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def pack(exps: Sequence[int]) -> int:
    """Key of the monomial with exponents ``exps``: nine non-negative ints
    of total degree at most MAX_DEGREE, else ValueError."""
    exps = tuple(exps)
    ok = len(exps) == NVARS and all(isinstance(k, int) and k >= 0 for k in exps)
    if not ok or sum(exps) > MAX_DEGREE:
        raise ValueError(f"{NVARS} ints >= 0 of sum <= {MAX_DEGREE} expected, got {exps!r}")
    key = sum(exps)
    for k in exps:
        key = key << FIELD_BITS | k
    return key


def unpack(key: int) -> tuple[int, ...]:
    """Exponent tuple of a monomial key."""
    return tuple(key >> s & MAX_DEGREE for s in _SHIFTS)


class Polynomial:
    """Immutable sparse polynomial: read-only ``numerators`` maps each
    monomial's key to a nonzero int, over a positive ``denominator``
    coprime to their gcd, so the form is canonical.  A key (see ``pack``)
    has a FIELD_BITS-wide field per exponent under one for the total
    degree; a product past MAX_DEGREE raises OverflowError.  ``terms``,
    the {exponent tuple: Fraction} view in the same term order, is built
    on each access; operations keep the term order that view's loop gives.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        """From {exponent tuple: int or Fraction}; zeros are dropped."""
        pairs = [(pack(e), _ratio(c)) for e, c in terms.items()] if terms else ()
        # over the lcm of lowest-terms denominators, numerators and d are coprime
        d = math.lcm(*(den for _, (_, den) in pairs))
        self.numerators = {e: n * (d // den) for e, (n, den) in pairs if n}
        self.denominator = d

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {unpack(e): Fraction(c, self.denominator) for e, c in self.numerators.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        n, d = _ratio(c)
        return _reduced({0: n}, d) if n else Polynomial()

    @staticmethod
    def variable(v: int) -> "Polynomial":
        return _reduced({_UNITS[v]: 1}, 1)

    @staticmethod
    def monomial(exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        n, d = _ratio(coeff)
        return _reduced({pack(exps): n}, d) if n else Polynomial()

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.denominator, other.denominator
        d = d1 if d1 == d2 else math.lcm(d1, d2)
        f1, f2 = d // d1, d // d2
        out = {e: c * f1 for e, c in self.numerators.items()} if f1 != 1 else dict(self.numerators)
        for e, c in other.numerators.items():
            s = out.get(e, 0) + c * f2
            if s:
                out[e] = s
            else:
                del out[e]
        return _reduced(out, d)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _reduced({e: -c for e, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other) -> "Polynomial":
        """Exact product on ints: a cross term's key is the sum of the
        keys, its numerator the product of the numerators, over the product
        of the denominators, reduced once.  A single-term factor shifts the
        other's keys with no merge; otherwise the cross terms merge in a
        double loop over the smaller factor (``self`` on a tie) outermost.
        Raises OverflowError past MAX_DEGREE."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        small, big = self.numerators, other.numerators
        if not small or not big:
            return Polynomial()
        # a key sum reaches _KEY_LIMIT exactly when the degrees sum past MAX_DEGREE
        if max(small) + max(big) >= _KEY_LIMIT:
            raise OverflowError(f"product of total degree above {MAX_DEGREE}")
        if len(small) > len(big):
            small, big = big, small
        d = self.denominator * other.denominator
        if len(small) == 1:
            (e1, c1), = small.items()
            return _reduced({e1 + e: c1 * c for e, c in big.items()}, d)
        out: dict[int, int] = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _reduced(out, d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Polynomial.constant(1)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: Scalar) -> "Polynomial":
        n, d = _ratio(c)
        out = {e: n * v for e, v in self.numerators.items()} if n else {}
        return _reduced(out, self.denominator * d)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def __len__(self) -> int:  # the number of terms; also gives bool()
        return len(self.numerators)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self):
        return hash((frozenset(self.numerators.items()), self.denominator))

    def degree_in(self, v: int) -> int:
        return max((e >> _SHIFTS[v] & MAX_DEGREE for e in self.numerators), default=0)

    def variables(self) -> set[int]:
        return {v for v in range(NVARS) if self.degree_in(v)}

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.numerators.get(pack(exps), 0), self.denominator)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded lexicographic order, i.e. key order."""
        c, d = self.numerators, self.denominator
        return [(unpack(e), Fraction(c[e], d)) for e in sorted(c, reverse=True)]

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.numerators)
        return unpack(e), Fraction(self.numerators[e], self.denominator)

    # -- calculus -----------------------------------------------------

    def diff(self, v: int) -> "Polynomial":
        s, unit = _SHIFTS[v], _UNITS[v]
        out = {e - unit: c * k for e, c in self.numerators.items() if (k := e >> s & MAX_DEGREE)}
        return _reduced(out, self.denominator)

    # -- evaluation / substitution ------------------------------------

    def eval_exact(self, point: Mapping[int, Scalar]) -> Fraction:
        missing = self.variables() - set(point)
        if missing:
            names = ", ".join(VARS[i] for i in sorted(missing))
            raise ValueError(f"point does not assign: {names}")
        out, d = self._substitute(point)
        return Fraction(out.get(0, 0), d)

    def eval_float(self, point: Mapping[int, float]) -> float:
        """binary64 evaluation, one product per term, Neumaier-compensated sum."""
        s = 0.0
        comp = 0.0
        for e, c in self.numerators.items():
            v = c / self.denominator
            for i, sh in enumerate(_SHIFTS):
                k = e >> sh & MAX_DEGREE
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
        return _reduced(*self._substitute(assignments))

    def _substitute(self, assignments: Mapping[int, Scalar]) -> tuple[dict[int, int], int]:
        """Unreduced numerators and denominator of self with n_v / d_v for
        each assigned v, over self.denominator * prod(d_v ** deg_v(self))."""
        subs, d = [], self.denominator
        for v, val in assignments.items():
            m = self.degree_in(v)
            if m:
                n, dv = _ratio(val)
                subs.append((_SHIFTS[v], _UNITS[v], [n**k * dv ** (m - k) for k in range(m + 1)]))
                d *= dv**m
        out: dict[int, int] = {}
        for e, c in self.numerators.items():
            for sh, unit, powers in subs:
                k = e >> sh & MAX_DEGREE
                c *= powers[k]
                e -= k * unit
            if c:
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return out, d

    def collect(self, subset: Iterable[int]) -> dict[tuple[int, ...], "Polynomial"]:
        """Split p = sum of (monomial in subset) * (polynomial in the rest).

        Keys are full-width exponent tuples supported on ``subset``.
        """
        fields = [(_SHIFTS[v], _UNITS[v]) for v in set(subset)]
        groups: dict[int, dict[int, int]] = {}
        for e, c in self.numerators.items():
            key = sum((e >> s & MAX_DEGREE) * unit for s, unit in fields)
            groups.setdefault(key, {})[e - key] = c
        return {unpack(k): _reduced(g, self.denominator) for k, g in groups.items()}

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return q with self == q * divisor, or None if not divisible.

        Graded lex division of the numerators by the divisor's primitive
        part P.  If P divides them over the rationals the quotient is
        integral (Gauss's lemma), so a leading monomial or coefficient that
        P's does not divide is a definitive "not divisible".
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        g = math.gcd(*divisor.numerators.values())
        prim = {e: c // g for e, c in divisor.numerators.items()}
        de = max(prim)
        rem = dict(self.numerators)
        quot: dict[int, int] = {}
        while rem:
            le = max(rem)
            qc, r = divmod(rem[le], prim[de])
            if r or any((le >> s & MAX_DEGREE) < (de >> s & MAX_DEGREE) for s in _SHIFTS):
                return None
            qe = le - de
            quot[qe] = qc
            # rem -= (qc * x^qe) * P
            for e2, c2 in prim.items():
                e = qe + e2
                s = rem.get(e, 0) - qc * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        # self / divisor = (quot * P / self.denominator) / (g * P / divisor.denominator)
        return _reduced({e: c * divisor.denominator for e, c in quot.items()}, self.denominator * g)

    # -- display ------------------------------------------------------

    def canonical_str(self) -> str:
        """Deterministic rendering; used for fingerprints and debugging."""
        if not self.numerators:
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


def _reduced(numerators: dict[int, int], denominator: int) -> Polynomial:
    """Packed nonzero numerators over a positive denominator, reduced."""
    if denominator != 1 and (g := math.gcd(denominator, *numerators.values())) != 1:
        numerators = {e: c // g for e, c in numerators.items()}
        denominator //= g
    p = object.__new__(Polynomial)
    p.numerators = numerators
    p.denominator = denominator
    return p


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


def coefficient_rows(polys: Sequence[Polynomial]) -> dict[int, dict[int, Fraction]]:
    """Coefficient matching: for each monomial some ``polys[i]`` holds,
    the sparse row {i: its coefficient in polys[i]}, i ascending, rows in
    ascending graded lex order.  A row's key is an opaque label of its
    monomial, for lookup and order only.  Equal coefficients share one
    Fraction: a system repeats few values."""
    rows: dict[int, dict[int, Fraction]] = {}
    shared: dict[tuple[int, int], Fraction] = {}
    for i, p in enumerate(polys):
        d = p.denominator
        for e, c in p.numerators.items():
            row = rows.get(e)
            if row is None:
                rows[e] = row = {}
            f = shared.get((c, d))
            if f is None:
                f = shared[c, d] = Fraction(c, d)
            row[i] = f
    return {e: rows[e] for e in sorted(rows)}


def _row_dicts(matrix: Sequence[Sequence[Scalar]]) -> list[dict[int, Fraction]]:
    return [{j: Fraction(*_ratio(v)) for j, v in enumerate(r) if v} for r in matrix]


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
