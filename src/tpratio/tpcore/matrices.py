"""Exact rational matrices, minors, and total-positivity checks.

Everything in this module is exact: entries are `fractions.Fraction`, and
no floating point appears anywhere.  Matrices are small (rank <= 4 in all
driving use cases), so determinants use plain fraction-exact elimination.
Network matrices come from `tpratio.tpcore.network.network_product`, the
one routine that multiplies out the planar network, here over `Fraction`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..combinatorics import MinorSpec, all_minor_specs
from ..budgets import MAX_MAGNITUDE
from ..errors import BudgetExceeded, InvalidInput, NotTotallyPositive
from .network import NetworkParams, flat_weights, network_product

Row = tuple[Fraction, ...]
Grid = tuple[Row, ...]


def as_grid(rows: Sequence[Sequence]) -> Grid:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a: Grid, b: Grid) -> Grid:
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for i in range(rows)
    )


def identity_grid(n: int) -> Grid:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction elimination with row swaps."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = [list(r) for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        pv = work[col][col]
        result *= pv
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] / pv
                for c in range(col, n):
                    work[r][c] -= factor * work[col][c]
    return sign * result


def inverse(rows: Grid) -> Grid:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    work = [list(r) + list(identity_grid(n)[i]) for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


@dataclass(frozen=True)
class TPMatrix:
    """A square matrix of exact rationals.  Total positivity is a property
    to verify (`verify_tp`), not an assumption baked into the type."""

    rank: int
    entries: Grid

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInput(f"rank must be positive, got {self.rank}")
        if len(self.entries) != self.rank or any(
            len(r) != self.rank for r in self.entries
        ):
            raise InvalidInput(f"entries are not {self.rank} x {self.rank}")

    @classmethod
    def of(cls, rows: Sequence[Sequence]) -> "TPMatrix":
        grid = as_grid(rows)
        return cls(len(grid), grid)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]


def minor(matrix: TPMatrix, spec: MinorSpec) -> Fraction:
    """Exact minor; the empty row/column selection has value 1."""
    if spec.rank != matrix.rank:
        raise InvalidInput(f"minor rank {spec.rank} vs matrix rank {matrix.rank}")
    if spec.size == 0:
        return Fraction(1)
    sub = [
        [matrix.entries[r - 1][c - 1] for c in spec.cols] for r in spec.rows
    ]
    return det(sub)


def verify_tp(matrix: TPMatrix) -> bool:
    """Total positivity via the n^2 initial minors.

    An initial minor has contiguous rows and columns, one of which starts
    at index 1; positivity of all of them is equivalent to positivity of
    every minor.  For rank <= 3 the full set of minors is cross-checked to
    guard the criterion itself.
    """
    n = matrix.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            size = min(i, j)
            rows = tuple(range(i - size + 1, i + 1))
            cols = tuple(range(j - size + 1, j + 1))
            if minor(matrix, MinorSpec(n, rows, cols)) <= 0:
                return False
    if n <= 3:
        for spec in all_minor_specs(n):
            if spec.size and minor(matrix, spec) <= 0:
                return False
    return True


def network_matrix(params: NetworkParams) -> TPMatrix:
    """The matrix of the weighted planar network; totally positive whenever
    all weights are positive (which `NetworkParams` enforces)."""
    n = params.rank
    grid = network_product(n, flat_weights(params), Fraction(0), Fraction(1))
    return TPMatrix(n, grid)


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
    draw = lambda count: tuple(
        Fraction(2) ** rng.randint(-magnitude, magnitude) for _ in range(count)
    )
    return NetworkParams(rank, draw(k), draw(rank), draw(k))


def random_tp(rank: int, seed: int, magnitude: int = 3) -> TPMatrix:
    """A reproducible totally positive matrix; see `random_network`."""
    return network_matrix(random_network(rank, seed, magnitude))


def require_tp(matrix: TPMatrix, context: str) -> None:
    if not verify_tp(matrix):
        raise NotTotallyPositive(f"{context}: matrix is not totally positive")
