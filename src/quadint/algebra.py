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
where a coefficient is handed out, and in ``nullspace_exact`` and
``matrix_rank_exact``, a dense Gauss-Jordan for small rational matrices.
The packed form is private to this module: other modules read a
polynomial's ``terms`` or hand ``solve_exact_sparse`` polynomial
equations, which it matches over x, y, z into rows with polynomial
entries in the parameters, without reading keys or numerators.  Floats
enter only through ``eval_float``, whose n / d is rounded once, as
``float(Fraction(n, d))`` is.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

VARS = ("x", "y", "z", "px", "py", "pz", "a", "b", "w0")
NVARS = len(VARS)
X, Y, Z, PX, PY, PZ, A, B, W0 = range(NVARS)
COORDS = (X, Y, Z)
MOMENTA = (PX, PY, PZ)

ZERO_EXPS = (0,) * NVARS

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


# -- exact linear algebra ---------------------------------------------


def _rref(matrix: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of an exact rational matrix by plain
    Gauss-Jordan on a Fraction copy: columns left to right, the first
    nonzero row at or below the current one as pivot row.  Returns the
    nonzero reduced rows, pivot-normalized and fully back-substituted, and
    their pivot columns, ascending."""
    m = [[Fraction(*_ratio(v)) for v in row] for row in matrix]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        pivot = m[r] = [v * inv for v in m[r]]
        for i, row in enumerate(m):
            if i != r and (f := row[c]):
                m[i] = [v - f * w for v, w in zip(row, pivot)]
        pivots.append(c)
    return m[: len(pivots)], pivots


def nullspace_exact(matrix: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an exact rational matrix.

    One basis vector per free column; M @ v == 0 exactly for each.
    """
    if not matrix:
        return []
    reduced, pivots = _rref(matrix)
    ncols = len(matrix[0])
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for row, pc in zip(reduced, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
    return basis


def matrix_rank_exact(matrix: Sequence[Sequence[Scalar]]) -> int:
    return len(_rref(matrix)[1])


def solve_exact_sparse(equations: Sequence[Sequence[Polynomial]], ncols: int):
    """Peel sum_j c_j P_j = R_k for every right-hand side k at once, with
    unknowns c_j in the field of rational functions of the parameters
    (every variable but x, y, z).

    Each equation lists the columns P_0 .. P_(ncols-1) and then R_0, R_1,
    ...; the c_j are shared.  Matching the coefficients of each monomial
    in x, y, z gives one row, with polynomial entries in the parameters.
    A row with one unknown c_j, entry p, pins c_j = r_k / p for every k
    when each division is exact (``divide_exact``): c_j is substituted
    into every row that holds it, and rows left with one unknown are
    pinned in turn, in the order they reach one unknown.  A pinned value is
    forced by its row whatever the others hold, since p != 0.  A row whose
    division is not exact stays.

    Returns (pinned, pivots, left): {j: [c_j for each k]}; the entry p of
    each pinned unknown, in pin order; and every row that is not 0 = 0
    after the peel, as ({j: entry}, [r_k for each k]).  A row left with
    unknowns is where the peel stalled; a row left with none and a
    nonzero r_k makes right-hand side k inconsistent.
    """
    rows: list[tuple[dict[int, Polynomial], list[Polynomial]]] = []
    for eq in equations:
        matched: dict[tuple[int, ...], dict[int, Polynomial]] = {}
        for i, p in enumerate(eq):
            for mono, coeff in p.collect(COORDS).items():
                matched.setdefault(mono, {})[i] = coeff
        for row in matched.values():
            rows.append(({j: c for j, c in row.items() if j < ncols},
                         [row.get(k, Polynomial()) for k in range(ncols, len(eq))]))
    holders: dict[int, set[int]] = {}
    for i, (entries, _) in enumerate(rows):
        for j in entries:
            holders.setdefault(j, set()).add(i)
    pinned: dict[int, list[Polynomial]] = {}
    pivots: list[Polynomial] = []
    peel = deque(i for i, (entries, _) in enumerate(rows) if len(entries) == 1)
    while peel:
        entries, rhs = rows[peel.popleft()]
        if len(entries) != 1:
            continue  # emptied since it was pushed
        (j, p), = entries.items()
        values = [r.divide_exact(p) for r in rhs]
        if None in values:
            continue
        pinned[j] = values
        pivots.append(p)
        for h in holders.pop(j):
            entries_h, rhs_h = rows[h]
            c = entries_h.pop(j)
            rhs_h[:] = [r - c * v if v else r for r, v in zip(rhs_h, values)]
            if len(entries_h) == 1:
                peel.append(h)
    left = [(entries, rhs) for entries, rhs in rows if entries or any(rhs)]
    return pinned, pivots, left


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
