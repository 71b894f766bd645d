"""Butcher's order conditions for the stored Runge-Kutta pairs, checked
exactly in Fractions of the stored doubles over the rooted trees up to
order 9 (Butcher, Numerical Methods for Ordinary Differential Equations,
2nd ed., ch. 3; Hairer, Norsett & Wanner, Solving ODEs I, II.2).

A weight row w meets the condition of a tree t if w . Phi(t) = 1/gamma(t),
and a row of difference weights E = B - B' vanishes on t if E . Phi(t) = 0.
A claimed order must hold to 2^-48, well above the rounding of the stored
doubles, and the next order must miss by far more, so that a miscopied
digit fails.
"""

import functools
from fractions import Fraction

import pytest

from quadint.dynamics import DOP853, DP54

MAX_ORDER = 9
# rooted trees per order 1..9 (OEIS A000081)
TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286)
TOL = Fraction(1, 2**48)
MISS = 1e-6
TABLEAUX = {"DP54": DP54, "DOP853": DOP853}


def _grafts(tree):
    """Every tree of one node more than ``tree``, a sorted tuple of its
    root's subtrees: a leaf on the root or on a node of a subtree."""
    yield tuple(sorted((*tree, ())))
    for i, child in enumerate(tree):
        for grown in _grafts(child):
            yield tuple(sorted((*tree[:i], grown, *tree[i + 1:])))


@functools.cache
def _trees():
    """The rooted trees by order: _trees()[r - 1] holds those of order r."""
    levels = [{()}]
    for _ in range(MAX_ORDER - 1):
        levels.append({g for tree in levels[-1] for g in _grafts(tree)})
    return [sorted(level) for level in levels]


def _gamma(tree) -> int:
    """The density gamma(t): the order of t times the density of each
    subtree."""
    out = _order(tree)
    for child in tree:
        out *= _gamma(child)
    return out


def _order(tree) -> int:
    return 1 + sum(_order(child) for child in tree)


class _Weights:
    """The elementary weights Phi(t) of a tableau's stage matrix A, whose
    rows are the tableau's rows, the solution's (FSAL) stage included."""

    def __init__(self, tableau):
        self.a = [[Fraction(c) for c in row] for row in tableau.rows]
        self.n = len(self.a)
        self._phi = {}

    def phi(self, tree):
        """Phi_i(t) = prod over subtrees t_k of (A Phi(t_k))_i."""
        if tree not in self._phi:
            out = [Fraction(1)] * self.n
            for child in tree:
                inner = self.phi(child)
                out = [o * sum(a * v for a, v in zip(row, inner)) for o, row in zip(out, self.a)]
            self._phi[tree] = out
        return self._phi[tree]

    def worst(self, weights, order, target):
        """max |w . Phi(t) - target(t)| over the trees of one order, for a
        weight row w on the first len(w) stages."""
        w = [Fraction(c) for c in weights]
        return max(abs(sum(c * p for c, p in zip(w, self.phi(t))) - target(t))
                   for t in _trees()[order - 1])


@functools.cache
def _weights(name):
    return _Weights(TABLEAUX[name])


def _solution(tree):
    return Fraction(1, _gamma(tree))


def _difference(tree):
    return 0


def test_tree_counts():
    assert tuple(map(len, _trees())) == TREE_COUNTS
    assert all(_order(t) == r for r, level in enumerate(_trees(), 1) for t in level)


@pytest.mark.parametrize("name, order", [("DP54", 5), ("DOP853", 8)])
def test_solution_weights_meet_their_order_and_miss_the_next(name, order):
    assert TABLEAUX[name].order == order
    weights, b = _weights(name), TABLEAUX[name].rows[-1]
    for r in range(1, order + 1):
        assert weights.worst(b, r, _solution) <= TOL, r
    assert weights.worst(b, order + 1, _solution) > MISS


@pytest.mark.parametrize("name, row, order", [("DP54", 0, 4), ("DOP853", 0, 5), ("DOP853", 1, 3)],
                         ids=["DP54-E", "DOP853-E5", "DOP853-E3"])
def test_error_rows_vanish_through_the_embedded_order(name, row, order):
    weights, e = _weights(name), TABLEAUX[name].error[row]
    for r in range(1, order + 1):
        assert weights.worst(e, r, _difference) <= TOL, r
    assert weights.worst(e, order + 1, _difference) > MISS


def test_dp54_error_row_needs_its_fsal_stage():
    # DP54's E weighs the 7th stage, evaluated at the solution, by -1/40:
    # without it the row does not even vanish on the order-1 tree
    e = DP54.error[0]
    assert len(e) == len(DP54.rows) and e[-1] == -1 / 40
    assert float(_weights("DP54").worst(e[:-1], 1, _difference)) == pytest.approx(1 / 40)
