"""Embedding totally positive matrices into the positive Grassmannian.

An ``n x n`` matrix ``A`` is stacked on top of a fixed ``n x n`` sign block
(antidiagonal ``+1, -1, +1, ...`` read from the top-right corner) to give a
``2n x n`` representative whose maximal minors ("brackets") are indexed by
rank-``n`` index sets.  With this sign block:

* the bracket of ``{n+1, ..., 2n}`` is exactly 1,
* the bracket of ``{1, ..., n}`` is ``det A``, and
* every bracket equals the minor of ``A`` addressed by `plucker_to_minor`,
  which is the bridge the whole library leans on (and pins down the sign
  convention; the test suite checks it exhaustively for ranks 2 to 4).

The rotation and mirror constructions (`shift_matrix`, `reverse_matrix`)
permute representative rows, restandardize the lower block, and return the
new upper block; they rescale every bracket by one common positive factor,
so ratios passing the counting screen are left invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..combinatorics import IndexSet, RatioExpr
from ..errors import InvalidInput
from .matrices import Grid, TPMatrix, det, inverse, mat_mul, require_tp


def sign_block(rank: int) -> Grid:
    """Rows n+1..2n of the standard representative: row r has its only
    nonzero, ``(-1)**(r-1)``, in column ``n+1-r``."""
    n = rank
    rows = []
    for r in range(1, n + 1):
        row = [Fraction(0)] * n
        row[n - r] = Fraction((-1) ** (r - 1))
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class GrassmannRep:
    """A ``2n x n`` matrix whose lower block is the standard sign block."""

    rank: int
    rows: Grid

    def __post_init__(self):
        n = self.rank
        if len(self.rows) != 2 * n or any(len(r) != n for r in self.rows):
            raise InvalidInput(f"representative is not {2 * n} x {n}")

    def bracket(self, alpha: IndexSet) -> Fraction:
        if alpha.rank != self.rank:
            raise InvalidInput(
                f"index set rank {alpha.rank} vs representative rank {self.rank}"
            )
        return det([self.rows[e - 1] for e in alpha.elements])


def grassmann_embed(matrix: TPMatrix) -> GrassmannRep:
    return GrassmannRep(matrix.rank, matrix.entries + sign_block(matrix.rank))


def plucker_eval(matrix: TPMatrix, alpha: IndexSet) -> Fraction:
    """Bracket of ``alpha``; equals the minor addressed by `plucker_to_minor`."""
    return grassmann_embed(matrix).bracket(alpha)


def eval_ratio(matrix: TPMatrix, ratio: RatioExpr) -> Fraction:
    """Exact value of the product-of-brackets quotient; a bracket repeated
    in the ratio is evaluated once.  The brackets' integer numerators and
    denominators are multiplied out separately, and one `Fraction` is
    reduced at the end."""
    rep = grassmann_embed(matrix)
    value = {s: rep.bracket(s) for s in {*ratio.numerator, *ratio.denominator}}
    down = math.prod(value[s].numerator for s in ratio.denominator)
    if down == 0:
        raise InvalidInput(f"denominator of {ratio} vanishes on this matrix")
    down *= math.prod(value[s].denominator for s in ratio.numerator)
    up = math.prod(value[s].numerator for s in ratio.numerator)
    up *= math.prod(value[s].denominator for s in ratio.denominator)
    return Fraction(up, down)


def _restandardize(rank: int, moved_rows: Grid) -> TPMatrix:
    """Right-multiply so the lower block returns to the standard sign block,
    then read off the upper block."""
    n = rank
    lower = moved_rows[n:]
    transform = mat_mul(inverse(lower), sign_block(n))
    fixed = mat_mul(moved_rows, transform)
    assert fixed[n:] == sign_block(n)
    return TPMatrix(n, fixed[:n])


def shift_matrix(matrix: TPMatrix) -> TPMatrix:
    """The matrix whose bracket at the rotated index set is a fixed positive
    multiple of the input's bracket at the original index set."""
    require_tp(matrix, "shift_matrix")
    n = matrix.rank
    rep = grassmann_embed(matrix)
    sign = Fraction((-1) ** (n - 1))
    moved = (tuple(sign * x for x in rep.rows[2 * n - 1]),) + rep.rows[: 2 * n - 1]
    result = _restandardize(n, moved)
    require_tp(result, "shift_matrix output")
    return result


def reverse_matrix(matrix: TPMatrix) -> TPMatrix:
    """The matrix whose bracket at the mirrored index set is a fixed positive
    multiple of the input's bracket at the original index set."""
    require_tp(matrix, "reverse_matrix")
    n = matrix.rank
    rep = grassmann_embed(matrix)
    moved = tuple(reversed(rep.rows))
    result = _restandardize(n, moved)
    require_tp(result, "reverse_matrix output")
    return result
