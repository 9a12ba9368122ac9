"""Exact rational matrices, minors, and total-positivity checks.

Everything in this module is exact and no floating point appears anywhere.
Entries are `int` or `fractions.Fraction` (`network.is_exact`).  A matrix
clears its rows once, on first use: `TPMatrix.cleared` holds each row times
the lcm of its denominators, and those lcms.  The one numeric minor kernel,
`det`, takes such integer rows and runs Bareiss's fraction-free
elimination over Python ints, so every division is exact and no gcd is
paid.  `verify_tp` hands it the initial minors' blocks of a matrix's
integer rows, and `grassmann.plucker_eval` the integer sub-grid an index
set names, so a matrix read for many minors clears its denominators once.
`network_matrix` multiplies the planar network out with
`tpratio.tpcore.network.network_product`, the one routine that multiplies
layers, over `Fraction`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from ..budgets import MAX_MAGNITUDE
from ..combinatorics import check_rank
from ..errors import BudgetExceeded, InvalidInput, NotTotallyPositive
from .network import NetworkParams, chips, exact, flat_weights, is_exact, network_product

Row = tuple[Fraction, ...]
Grid = tuple[Row, ...]
IntGrid = tuple[tuple[int, ...], ...]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of integer rows by Bareiss elimination, with row
    swaps; an entry that is not exactly an `int` raises `InvalidInput`.

    Step ``k`` replaces the rows below the pivot by their 2 x 2 minors
    with it, divided exactly by the previous pivot, so the last pivot is
    the determinant.  ``rows`` are not modified."""
    if not {type(x) for row in rows for x in row} <= {int}:
        raise InvalidInput("det takes integer rows; clear rational rows first (TPMatrix.cleared)")
    if not rows:
        return 1
    work = list(rows)
    sign, previous = 1, 1
    while len(work) > 1:
        if work[0][0] == 0:
            swap = next((r for r in range(1, len(work)) if work[r][0] != 0), None)
            if swap is None:
                return 0
            work[0], work[swap] = work[swap], work[0]
            sign = -sign
        pivot, *tail = work[0]
        work = [
            [(pivot * x - row[0] * y) // previous for x, y in zip(row[1:], tail)]
            for row in work[1:]
        ]
        previous = pivot
    return sign * work[0][0]


@dataclass(frozen=True)
class TPMatrix:
    """A square matrix of exact rationals, each an `int` or a `Fraction`.
    Total positivity is a property to verify (`verify_tp`), not an
    assumption baked into the type."""

    rank: int
    entries: Grid

    def __post_init__(self):
        check_rank(self.rank)
        if len(self.entries) != self.rank or any(
            len(r) != self.rank for r in self.entries
        ):
            raise InvalidInput(f"entries are not {self.rank} x {self.rank}")
        if not all(is_exact(x) for row in self.entries for x in row):
            raise InvalidInput("matrix entries must each be an int or a Fraction")

    @classmethod
    def of(cls, rows: Sequence[Sequence]) -> "TPMatrix":
        grid = tuple(tuple(exact(x) for x in row) for row in rows)
        return cls(len(grid), grid)

    @cached_property
    def cleared(self) -> tuple[IntGrid, tuple[int, ...]]:
        """The rows as ints, each times the lcm of its denominators, and
        those lcms: the integer rows `det` takes, built on first use and
        shared by every minor read off this matrix."""
        rows, lcms = [], []
        for row in self.entries:
            lcm = math.lcm(*(x.denominator for x in row))
            rows.append(tuple([x.numerator * (lcm // x.denominator) for x in row]))
            lcms.append(lcm)
        return tuple(rows), tuple(lcms)


def verify_tp(matrix: TPMatrix) -> bool:
    """Total positivity via the n^2 initial minors.

    An initial minor has contiguous rows and columns, one of which starts
    at index 1; positivity of all of them is equivalent to positivity of
    every minor (Gasca and Peña, 1992).  Each is `det` of a block of the
    matrix's integer rows (`TPMatrix.cleared`), whose row lcms are
    positive, so its sign is the minor's.  The tests hold this to the
    definition, every minor positive, up to rank 6.
    """
    n = matrix.rank
    rows = matrix.cleared[0]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            size = min(i, j)
            if det([row[j - size : j] for row in rows[i - size : i]]) <= 0:
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
    lower (staircase order), diagonal, upper.  ``seed`` must be an `int`."""
    check_rank(rank)
    if type(seed) is not int:  # exactly int: None draws from OS entropy, True and 1.0 as 1
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    if type(magnitude) is not int:  # exactly int: True would draw with magnitude 1
        raise InvalidInput(f"magnitude must be an integer, got {magnitude!r}")
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
