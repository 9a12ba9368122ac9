"""The planar-network parameterization of totally positive matrices.

A totally positive ``n x n`` matrix is the product of elementary lower
bidiagonal factors, a positive diagonal, and elementary upper bidiagonal
factors.  The lower factors follow the staircase wire order

    1, 2, 1, 3, 2, 1, ..., n-1, ..., 1

(``n(n-1)/2`` factors), the upper factors are the transposes of the same
product, so the full matrix is ``E(l) * diag(d) * E(u)^T``.  Transposing the
matrix swaps the roles of the ``l`` and ``u`` parameters.

The weights have one flat order, ``L(1..K) < D(1..n) < U(1..K)``
(`flat_weights`, `variable_names`).  `chips` turns flat weights into the
layer sequence, and `network_product` multiplies it out over any ring, one
column operation per layer: `tpratio.tpcore.matrices.network_matrix` runs it
over `Fraction` and `tpratio.polycheck.symbolic_network_matrix` over
polynomials.  `tpratio.tpcore.lgv` reads the same layers through
`chip_entries` and sums path families instead, an independent oracle for
the product's minors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import InvalidInput, NonPositiveWeight


def staircase_word(rank: int) -> tuple[int, ...]:
    """Wire indices of the lower bidiagonal factors, in product order."""
    return tuple(
        itertools.chain.from_iterable(range(m, 0, -1) for m in range(1, rank))
    )


@dataclass(frozen=True)
class NetworkParams:
    """Strictly positive weights of one planar network.

    ``lower`` and ``upper`` each hold ``n(n-1)/2`` rationals, indexed by the
    staircase word; ``diag`` holds the ``n`` diagonal weights.
    """

    rank: int
    lower: tuple[Fraction, ...]
    diag: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.rank
        k = n * (n - 1) // 2
        if len(self.lower) != k or len(self.upper) != k or len(self.diag) != n:
            raise InvalidInput(
                f"need {k} lower, {n} diagonal, {k} upper weights for rank {n}"
            )
        for w in flat_weights(self):
            if w <= 0:
                raise NonPositiveWeight(f"network weight {w} is not positive")

    @classmethod
    def of(cls, rank, lower, diag, upper) -> "NetworkParams":
        as_fr = lambda seq: tuple(Fraction(w) for w in seq)
        return cls(rank, as_fr(lower), as_fr(diag), as_fr(upper))


def all_ones_params(rank: int) -> NetworkParams:
    k = rank * (rank - 1) // 2
    one = Fraction(1)
    return NetworkParams(rank, (one,) * k, (one,) * rank, (one,) * k)


@dataclass(frozen=True)
class Chip:
    """One layer of the network: a lower or upper slant on ``wire``, or the
    diagonal layer.  ``weights`` holds the slant weight or all diagonal
    weights."""

    kind: str  # "lower" | "diag" | "upper"
    wire: int  # slant between wire and wire+1; 0 for the diagonal layer
    weights: tuple


def chips(rank: int, weights: Sequence) -> list[Chip]:
    """The network as an ordered list of layers, leftmost first, from weights
    in the flat order of `flat_weights`."""
    word = staircase_word(rank)
    flat = iter(weights)
    lower = [Chip("lower", w, (next(flat),)) for w in word]
    diag = Chip("diag", 0, tuple(next(flat) for _ in range(rank)))
    upper = [Chip("upper", w, (next(flat),)) for w in word]
    return [*lower, diag, *reversed(upper)]


def chip_entries(chip: Chip, rank: int):
    """Nonzero entries of the chip's transfer matrix as ((row, col), weight),
    1-based.  Row is the incoming wire, column the outgoing wire."""
    one = Fraction(1)
    if chip.kind == "diag":
        return [((a, a), chip.weights[a - 1]) for a in range(1, rank + 1)]
    entries = [((a, a), one) for a in range(1, rank + 1)]
    k = chip.wire
    if chip.kind == "lower":
        entries.append(((k + 1, k), chip.weights[0]))
    else:
        entries.append(((k, k + 1), chip.weights[0]))
    return entries


def network_product(rank: int, weights: Sequence, zero, one) -> tuple[tuple, ...]:
    """The network matrix over any ring whose elements support ``+`` and
    ``*``, from weights in the flat order of `flat_weights`.

    Each layer is an elementary bidiagonal factor, so right-multiplying the
    running grid by it is one column operation: a lower slant on wire ``w``
    adds weight times column ``w+1`` into column ``w``, an upper slant adds
    weight times column ``w`` into column ``w+1``, and the diagonal layer
    scales the columns.
    """
    grid = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    for chip in chips(rank, weights):
        if chip.kind == "diag":
            for row in grid:
                row[:] = [x * d for x, d in zip(row, chip.weights)]
            continue
        w = chip.wire - 1  # 0-based column of the slant's wire
        dst, src = (w, w + 1) if chip.kind == "lower" else (w + 1, w)
        weight = chip.weights[0]
        for row in grid:
            row[dst] = row[dst] + row[src] * weight
    return tuple(tuple(row) for row in grid)


def flat_weights(params: NetworkParams) -> tuple[Fraction, ...]:
    """The weights in the flat order of `variable_names`: lower (staircase
    order), diagonal, upper."""
    return (*params.lower, *params.diag, *params.upper)


def variable_names(rank: int) -> tuple[str, ...]:
    """Symbolic weight names in the fixed order L(1..K) < D(1..n) < U(1..K)."""
    k = rank * (rank - 1) // 2
    return tuple(
        [f"L{s + 1}" for s in range(k)]
        + [f"D{s + 1}" for s in range(rank)]
        + [f"U{s + 1}" for s in range(k)]
    )
