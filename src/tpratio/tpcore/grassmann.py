"""Brackets of a square matrix, and the symmetries of the 2n-gon on them.

The bracket (Plücker coordinate) of a rank-``n`` index set is the minor
that `minor_address` reads off it: labels ``<= n`` are rows, and a label
``e > n`` drops column ``2n+1-e``.  So the bracket of ``{n+1, ..., 2n}`` is
the empty minor, 1, and that of ``{1, ..., n}`` is ``det A``.  The tests
check this against the maximal minors of ``A`` stacked on an antidiagonal
sign block, the ``2n x n`` point of the positive Grassmannian.

The rotation and mirror are bracket relabellings: `shift_matrix` and
`reverse_matrix` return the matrix whose bracket at each index set is the
input's at the set rotated one step back (`cyclic_shift` by -1), or
mirrored, over one common positive bracket.  So the base bracket stays 1,
and the factor cancels from every `RatioExpr`, whose two sides hold
equally many brackets.

`ratio_value` multiplies a ratio out from any source of bracket values,
reading each distinct bracket once by `IndexSet.mask`.  `eval_ratio` feeds
it `plucker_eval`, the one reader of a single minor, which takes `det` of
the sub-grid `minor_address` names; a caller that reads many ratios off
one matrix feeds it `bracket_table`, the table of every bracket at once,
keyed by `IndexSet.mask`: the one Laplace expansion of all minors, which
`tpratio.tpcore.witnesses` takes over `Fraction` and
`tpratio.polycheck.symbolic_bracket` over polynomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable

from ..combinatorics import (
    IndexSet,
    RatioExpr,
    base_set,
    cyclic_shift,
    minor_address,
    minor_to_plucker,
    reversal,
)
from ..errors import InvalidInput
from .matrices import TPMatrix, det, require_tp


def plucker_eval(matrix: TPMatrix, alpha: IndexSet) -> Fraction:
    """Bracket of ``alpha``: `det` of the rows and kept columns
    `minor_address` names, read straight off the entries."""
    if alpha.rank != matrix.rank:
        raise InvalidInput(f"bracket rank {alpha.rank} vs matrix rank {matrix.rank}")
    rows, cols = minor_address(alpha)
    entries = matrix.entries
    return det([[entries[r - 1][c - 1] for c in cols] for r in rows])


def bracket_table(grid, zero, one) -> dict:
    """Every bracket of the square ``grid`` over any ring whose elements
    support ``+``, ``-`` and ``*``, keyed by `IndexSet.mask`: rows are the
    low ``n`` bits, and a dropped column ``c`` is bit ``2n - c``.

    The minors are built in increasing size by Laplace expansion along
    their first row, each from the minors one size smaller, which the table
    already holds; the base set is the empty minor, ``one``.  Over
    `Fraction` it serves the falsifier's rung tables, over polynomials
    `tpratio.polycheck.symbolic_bracket`; `plucker_eval` reads the same
    values one at a time."""
    n = len(grid)
    base = (1 << 2 * n) - (1 << n)  # every column dropped
    bit = [1 << (2 * n - 1 - c) for c in range(n)]  # column c's dropped label
    table = {base: one}
    for k in range(1, n + 1):
        col_sets = [(cols, base - sum(bit[c] for c in cols))
                    for cols in itertools.combinations(range(n), k)]
        for rows in itertools.combinations(range(n), k):
            first = grid[rows[0]]
            rest = sum(1 << r for r in rows[1:])
            for cols, dropped in col_sets:
                value = zero
                for j, c in enumerate(cols):
                    term = first[c] * table[rest | dropped | bit[c]]
                    value = value - term if j & 1 else value + term
                table[rest | 1 << rows[0] | dropped] = value
    return table


def ratio_value(ratio: RatioExpr, bracket: Callable[[IndexSet], Fraction]) -> Fraction:
    """Exact value of the product-of-brackets quotient, with ``bracket``
    giving each bracket's value; a bracket repeated in the ratio is read
    once, keyed by `IndexSet.mask`.  Each side's integer numerators and
    denominators are multiplied out in one pass, and one `Fraction` is
    reduced at the end."""
    value: dict[int, Fraction] = {}
    sides = []
    for side in (ratio.numerator, ratio.denominator):
        top = bottom = 1
        for s in side:
            v = value.get(s.mask)
            if v is None:
                v = value[s.mask] = bracket(s)
            top *= v.numerator
            bottom *= v.denominator
        sides.append((top, bottom))
    (up, up_den), (down, down_den) = sides
    if down == 0:
        raise InvalidInput(f"denominator of {ratio} vanishes on this matrix")
    return Fraction(up * down_den, up_den * down)


def eval_ratio(matrix: TPMatrix, ratio: RatioExpr) -> Fraction:
    """Exact value of the ratio on ``matrix``, one `plucker_eval` per
    distinct bracket; see `ratio_value`."""
    return ratio_value(ratio, lambda s: plucker_eval(matrix, s))


def _relabelled(matrix: TPMatrix, relabel: Callable[[IndexSet], IndexSet]) -> TPMatrix:
    """The matrix whose bracket at each index set is ``matrix``'s at its
    relabelling, over ``matrix``'s at the relabelled base set.  Entry
    ``(i, j)`` is the bracket of the one-by-one minor ``(i|j)``."""
    n = matrix.rank
    scale = plucker_eval(matrix, relabel(base_set(n)))
    at = lambda i, j: plucker_eval(matrix, relabel(minor_to_plucker(n, (i,), (j,))))
    return TPMatrix(
        n, tuple(tuple(at(i, j) / scale for j in range(1, n + 1)) for i in range(1, n + 1))
    )


def shift_matrix(matrix: TPMatrix) -> TPMatrix:
    """The matrix whose bracket at the rotated index set is a fixed positive
    multiple of the input's bracket at the original index set.  The input
    must be totally positive, and so the output is (tested, not re-checked)."""
    require_tp(matrix, "shift_matrix")
    return _relabelled(matrix, lambda alpha: cyclic_shift(alpha, -1))


def reverse_matrix(matrix: TPMatrix) -> TPMatrix:
    """The matrix whose bracket at the mirrored index set is a fixed positive
    multiple of the input's bracket at the original index set.  The input
    must be totally positive, and so the output is (tested, not re-checked)."""
    require_tp(matrix, "reverse_matrix")
    return _relabelled(matrix, reversal)
