"""The planar-network parameterization of totally positive matrices.

A totally positive ``n x n`` matrix is the product of elementary lower
bidiagonal factors, a positive diagonal, and elementary upper bidiagonal
factors.  The lower factors follow the staircase wire order

    1, 2, 1, 3, 2, 1, ..., n-1, ..., 1

(``n(n-1)/2`` factors), the upper factors are the transposes of the same
product, so the full matrix is ``E(l) * diag(d) * E(u)^T``.  Transposing the
matrix swaps the roles of the ``l`` and ``u`` parameters.

The same chip sequence drives three consumers: exact matrix construction
(`tpratio.tpcore.matrices`), the non-intersecting path-family oracle
(`tpratio.tpcore.lgv`), and the symbolic-weight matrices
(`tpratio.polycheck`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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
        for w in (*self.lower, *self.diag, *self.upper):
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
    weights: tuple[Fraction, ...]


def chips(params: NetworkParams) -> list[Chip]:
    """The network as an ordered list of layers, leftmost first."""
    word = staircase_word(params.rank)
    out = [Chip("lower", w, (params.lower[s],)) for s, w in enumerate(word)]
    out.append(Chip("diag", 0, params.diag))
    out.extend(
        Chip("upper", w, (params.upper[s],))
        for s, w in reversed(list(enumerate(word)))
    )
    return out


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


def variable_names(rank: int) -> tuple[str, ...]:
    """Symbolic weight names in the fixed order L(1..K) < D(1..n) < U(1..K)."""
    k = rank * (rank - 1) // 2
    return tuple(
        [f"L{s + 1}" for s in range(k)]
        + [f"D{s + 1}" for s in range(rank)]
        + [f"U{s + 1}" for s in range(k)]
    )
