"""Exact rational matrices, minors, and total-positivity checks.

Everything in this module is exact and no floating point appears anywhere.
Entries are `fractions.Fraction`; the one kernel inside, `det`, runs over
Python ints.  `verify_tp` hands it the initial minors' blocks, and
`grassmann.plucker_eval` the sub-grid an index set names, a determinant
of at most ``n x n`` and often much smaller.  `det` clears one
denominator per row and runs Bareiss's fraction-free elimination, so
every division is exact and no gcd is paid until the one `Fraction` it
returns.
`network_matrix` multiplies the planar network out with
`tpratio.tpcore.network.network_product`, the one routine that multiplies
layers, over `Fraction`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..budgets import MAX_MAGNITUDE
from ..combinatorics import check_rank
from ..errors import BudgetExceeded, InvalidInput, NotTotallyPositive
from .network import NetworkParams, chips, flat_weights, network_product

Row = tuple[Fraction, ...]
Grid = tuple[Row, ...]


def as_grid(rows: Sequence[Sequence]) -> Grid:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Bareiss elimination over ints, with row swaps.

    Each row is cleared by the lcm of its denominators, and the product of
    those lcms is the scale the integer determinant is divided by.  Step
    ``k`` replaces every entry below and right of the pivot by the 2 x 2
    minor with the pivot, divided exactly by the previous pivot, so the
    last pivot is the determinant of the cleared rows."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work, scale = [], 1
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    sign, previous = 1, 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if work[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot_row = work[k]
        pivot = pivot_row[k]
        for row in work[k + 1 :]:
            lead = row[k]
            row[k + 1 :] = [
                (pivot * x - lead * y) // previous
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        previous = pivot
    return Fraction(sign * work[-1][-1], scale)


@dataclass(frozen=True)
class TPMatrix:
    """A square matrix of exact rationals.  Total positivity is a property
    to verify (`verify_tp`), not an assumption baked into the type."""

    rank: int
    entries: Grid

    def __post_init__(self):
        check_rank(self.rank)
        if len(self.entries) != self.rank or any(
            len(r) != self.rank for r in self.entries
        ):
            raise InvalidInput(f"entries are not {self.rank} x {self.rank}")

    @classmethod
    def of(cls, rows: Sequence[Sequence]) -> "TPMatrix":
        grid = as_grid(rows)
        return cls(len(grid), grid)


def verify_tp(matrix: TPMatrix) -> bool:
    """Total positivity via the n^2 initial minors.

    An initial minor has contiguous rows and columns, one of which starts
    at index 1; positivity of all of them is equivalent to positivity of
    every minor (Gasca and Peña, 1992).  The tests hold this to the
    definition, every minor positive, up to rank 4.
    """
    n = matrix.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            size = min(i, j)
            if det([row[j - size : j] for row in matrix.entries[i - size : i]]) <= 0:
                return False
    return True


def network_matrix(params: NetworkParams) -> TPMatrix:
    """The matrix of the weighted planar network; totally positive whenever
    all weights are positive (which `NetworkParams` enforces)."""
    n = params.rank
    layers = chips(n, flat_weights(params))
    return TPMatrix(n, network_product(n, layers, Fraction(0), Fraction(1)))


def random_network(rank: int, seed: int, magnitude: int = 3) -> NetworkParams:
    """Deterministic dyadic weights: each is 2**e with e drawn uniformly
    from [-magnitude, magnitude] by `random.Random(seed)`, in the order
    lower (staircase order), diagonal, upper."""
    if magnitude < 1:
        raise InvalidInput("magnitude must be at least 1")
    if magnitude > MAX_MAGNITUDE:
        raise BudgetExceeded(f"magnitude is budgeted to {MAX_MAGNITUDE}")
    rng = random.Random(seed)
    k = rank * (rank - 1) // 2
    dyadic = lambda e: Fraction(2**e) if e >= 0 else Fraction(1, 2**-e)
    draw = lambda count: tuple(
        dyadic(rng.randint(-magnitude, magnitude)) for _ in range(count)
    )
    return NetworkParams(rank, draw(k), draw(rank), draw(k))


def random_tp(rank: int, seed: int, magnitude: int = 3) -> TPMatrix:
    """A reproducible totally positive matrix; see `random_network`."""
    return network_matrix(random_network(rank, seed, magnitude))


def require_tp(matrix: TPMatrix, context: str) -> None:
    if not verify_tp(matrix):
        raise NotTotallyPositive(f"{context}: matrix is not totally positive")
