"""Index-set combinatorics for ratios of Plücker coordinates.

Conventions used throughout the library:

* A rank-``n`` index set is an ``n``-element subset of ``{1, ..., 2n}``; it
  names one Plücker coordinate (maximal minor) of a ``2n x n`` matrix.
* The index set is the one address of a minor ``(rows | cols)`` of an
  ``n x n`` matrix, by the encoding ``rows ∪ {2n+1-c : c not in cols}``:
  `minor_to_plucker` encodes (and validates) minor notation, and
  `minor_address` decodes it.  The base set ``{n+1, ..., 2n}`` is the
  empty minor, of value 1 by convention.
* An arc is a run of consecutive labels on the ``2n``-gon.  Arcs are the
  intervals over which the majorization condition quantifies; restricting to
  arcs of length at most ``n`` loses nothing because the condition transfers
  to complements (`check_condition_m`).
* The ``4n`` rotations and mirrors of the ``2n``-gon act on ratios
  (`orientations`); the screens, boundedness and the generator set are invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .errors import InvalidInput


def _check_rank(rank) -> None:
    if type(rank) is not int or rank < 1:  # exactly int: 2.0 and True would hash as 2 and 1
        raise InvalidInput(f"rank must be a positive integer, got {rank!r}")


@dataclass(frozen=True, order=True)
class IndexSet:
    """A size-``rank`` subset of ``{1, ..., 2*rank}``, kept sorted."""

    rank: int
    elements: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        elems = self.elements
        _check_rank(n)
        if type(elems) is not tuple:  # hashed and compared with other index sets
            raise InvalidInput(f"elements must be a tuple, got {elems!r}")
        if len(elems) != n:
            raise InvalidInput(f"rank {n} set needs {n} elements, got {elems!r}")
        for e in elems:
            if type(e) is not int:  # exactly int: no float, bool or Fraction label
                raise InvalidInput(f"elements must be integers: {elems!r}")
            if not 1 <= e <= 2 * n:
                raise InvalidInput(f"elements outside [1, {2 * n}]: {elems!r}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise InvalidInput(f"elements must be strictly increasing: {elems!r}")

    @classmethod
    def of(cls, rank: int, elements: Iterable[int]) -> "IndexSet":
        return cls(rank, tuple(sorted(elements)))

    @cached_property
    def mask(self) -> int:
        m = 0
        for e in self.elements:
            m |= 1 << (e - 1)
        return m

    def __contains__(self, item: int) -> bool:
        return item in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.elements) + "]"


def base_set(rank: int) -> IndexSet:
    """The index set {n+1, ..., 2n}, whose Plücker coordinate is always 1."""
    return IndexSet(rank, tuple(range(rank + 1, 2 * rank + 1)))


def all_index_sets(rank: int) -> list[IndexSet]:
    """All rank-``rank`` index sets in lexicographic order."""
    universe = range(1, 2 * rank + 1)
    return [IndexSet(rank, c) for c in itertools.combinations(universe, rank)]


def minor_to_plucker(rank: int, rows: Iterable[int], cols: Iterable[int]) -> IndexSet:
    """Encode the minor ``(rows | cols)`` of a ``rank x rank`` matrix as its
    index set, after sorting both sets, which must have equal size and
    distinct labels in ``[1, rank]``.

    The rows survive unchanged; each column *not* selected contributes the
    mirrored label ``2n+1-c``.  The result always has exactly ``n`` elements.
    """
    rows, cols = tuple(sorted(rows)), tuple(sorted(cols))
    if len(rows) != len(cols):
        raise InvalidInput(f"row set {rows!r} and column set {cols!r} differ in size")
    for label, seq in (("rows", rows), ("cols", cols)):
        if any(not 1 <= e <= rank for e in seq):
            raise InvalidInput(f"{label} outside [1, {rank}]: {seq!r}")
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise InvalidInput(f"{label} must be strictly increasing: {seq!r}")
    mirrored = (2 * rank + 1 - c for c in range(1, rank + 1) if c not in cols)
    return IndexSet.of(rank, itertools.chain(rows, mirrored))


def minor_address(alpha: IndexSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows and kept columns, increasing, of the minor ``alpha`` names:
    its labels ``e <= n`` are the rows, and a label ``e > n`` drops column
    ``2n+1-e``, which is bit ``2n-c`` of `IndexSet.mask` for column ``c``."""
    n = alpha.rank
    mask = alpha.mask
    rows = tuple(e for e in alpha.elements if e <= n)
    return rows, tuple(c for c in range(1, n + 1) if not mask >> (2 * n - c) & 1)


def cyclic_shift(alpha: IndexSet, steps: int = 1) -> IndexSet:
    """Rotate every element ``steps`` steps around the 2n-gon (2n wraps to
    1); a negative count rotates back."""
    n2 = 2 * alpha.rank
    return IndexSet.of(alpha.rank, ((e - 1 + steps) % n2 + 1 for e in alpha))


def reversal(alpha: IndexSet) -> IndexSet:
    """Mirror every element: ``e`` becomes ``2n+1-e``.  An involution."""
    n2 = 2 * alpha.rank
    return IndexSet.of(alpha.rank, (n2 + 1 - e for e in alpha))


@dataclass(frozen=True)
class RatioExpr:
    """A ratio of products of Plücker coordinates.

    Numerator and denominator are sequences of index sets of one common
    rank and of equal length; `RatioExpr.of` pads the shorter side with
    the base set {n+1, ..., 2n} (the coordinate that is identically 1).
    """

    rank: int
    numerator: tuple[IndexSet, ...]
    denominator: tuple[IndexSet, ...]

    def __post_init__(self):
        n = self.rank
        _check_rank(n)
        if type(self.numerator) is not tuple or type(self.denominator) is not tuple:
            raise InvalidInput("numerator and denominator must be tuples of index sets")
        for s in (*self.numerator, *self.denominator):
            if type(s) is not IndexSet:
                raise InvalidInput(f"ratio terms must be index sets, got {s!r}")
            if s.rank != n:
                raise InvalidInput(f"mixed ranks: expected {n}, got {s.rank}")
        if len(self.numerator) != len(self.denominator):
            raise InvalidInput("numerator and denominator lengths differ; use RatioExpr.of")

    @classmethod
    def of(
        cls,
        rank: int,
        numerator: Iterable[IndexSet],
        denominator: Iterable[IndexSet],
    ) -> "RatioExpr":
        _check_rank(rank)  # before `base_set` builds the pad
        num = list(numerator)
        den = list(denominator)
        pad = base_set(rank)
        while len(num) < len(den):
            num.append(pad)
        while len(den) < len(num):
            den.append(pad)
        if not num:
            num = [pad]
            den = [pad]
        return cls(rank, tuple(num), tuple(den))

    @property
    def p(self) -> int:
        """Number of index sets on each side."""
        return len(self.numerator)

    def canonical(self) -> "RatioExpr":
        """Same ratio with both sides sorted; the form used in reports."""
        return RatioExpr(
            self.rank, tuple(sorted(self.numerator)), tuple(sorted(self.denominator))
        )

    def __str__(self) -> str:
        num = "".join(str(s) for s in self.numerator)
        den = "".join(str(s) for s in self.denominator)
        return f"{num}/{den}"


def cyclic_shift_ratio(ratio: RatioExpr, steps: int = 1) -> RatioExpr:
    """Rotate every index set of the ratio ``steps`` steps (`cyclic_shift`)."""
    return RatioExpr(
        ratio.rank,
        tuple(cyclic_shift(s, steps) for s in ratio.numerator),
        tuple(cyclic_shift(s, steps) for s in ratio.denominator),
    )


def reversal_ratio(ratio: RatioExpr) -> RatioExpr:
    """Apply the mirror map to every index set of the ratio."""
    return RatioExpr(
        ratio.rank,
        tuple(reversal(s) for s in ratio.numerator),
        tuple(reversal(s) for s in ratio.denominator),
    )


def orientations(ratio: RatioExpr):
    """The ratio's ``4n`` images under the rotations and mirrors of the
    2n-gon, lazily, as ``(rotation, mirrored, image)`` for every rotation,
    unmirrored first: the ratio rotated ``rotation`` steps, then mirrored
    if asked, with one shift per rotation and one mirror per image.  Its
    value on ``M`` is the given ratio's on `reverse_matrix` (if mirrored)
    then ``(2n - rotation) mod 2n`` times `shift_matrix` of ``M``: those
    scale every bracket by one common factor, which cancels."""
    for rotation in range(2 * ratio.rank):
        yield rotation, False, ratio
        yield rotation, True, reversal_ratio(ratio)
        ratio = cyclic_shift_ratio(ratio)


@dataclass(frozen=True)
class ExponentVector:
    """Sparse integer vector over the rank-n index sets.

    A ratio maps to +1 per numerator occurrence and -1 per denominator
    occurrence; products of ratios add componentwise.  Entries with value
    zero are never stored, so the zero vector is the empty tuple.
    """

    rank: int
    entries: tuple[tuple[IndexSet, int], ...]

    def __post_init__(self):
        entries = self.entries
        _check_rank(self.rank)
        if type(entries) is not tuple or any(type(e) is not tuple or len(e) != 2 for e in entries):
            raise InvalidInput("entries must be a tuple of (index set, exponent) pairs")
        keys = [k for k, _ in entries]
        if any(type(k) is not IndexSet or k.rank != self.rank for k in keys):
            raise InvalidInput(f"entries must be index sets of rank {self.rank}")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvalidInput("entries must be strictly increasing by index set")
        for _, v in entries:
            if type(v) is not int:  # exactly int: no float, bool or Fraction exponent
                raise InvalidInput("entries must be integers")
            if v == 0:
                raise InvalidInput("zero entries must be omitted")

    @classmethod
    def zero(cls, rank: int) -> "ExponentVector":
        return cls(rank, ())

    @classmethod
    def from_counts(cls, rank: int, counts: dict[IndexSet, int]) -> "ExponentVector":
        return cls(rank, tuple(sorted((k, v) for k, v in counts.items() if v != 0)))

    @classmethod
    def of_ratio(cls, ratio: RatioExpr) -> "ExponentVector":
        counts: dict[IndexSet, int] = {}
        for s in ratio.numerator:
            counts[s] = counts.get(s, 0) + 1
        for s in ratio.denominator:
            counts[s] = counts.get(s, 0) - 1
        return cls.from_counts(ratio.rank, counts)

    def as_dict(self) -> dict[IndexSet, int]:
        return dict(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries


@dataclass(frozen=True, order=True)
class Arc:
    """A run of ``length`` consecutive labels on the 2n-gon, starting at ``start``."""

    rank: int
    start: int
    length: int

    def __post_init__(self):
        n2 = 2 * self.rank
        if not 1 <= self.start <= n2:
            raise InvalidInput(f"start outside [1, {n2}]: {self.start}")
        if not 1 <= self.length <= n2 - 1:
            raise InvalidInput(f"length outside [1, {n2 - 1}]: {self.length}")

    @cached_property
    def members(self) -> tuple[int, ...]:
        n2 = 2 * self.rank
        return tuple(sorted((self.start - 1 + k) % n2 + 1 for k in range(self.length)))

    @cached_property
    def mask(self) -> int:
        m = 0
        for e in self.members:
            m |= 1 << (e - 1)
        return m

    def complement(self) -> "Arc":
        n2 = 2 * self.rank
        start = (self.start - 1 + self.length) % n2 + 1
        return Arc(self.rank, start, n2 - self.length)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


@cache
def arcs_up_to_half(rank: int) -> tuple[Arc, ...]:
    """All arcs of length 1..n in lexicographic (start, length) order.

    Longer arcs are redundant for the majorization condition because it
    transfers from an arc to its complement.  Built once per rank, so each
    arc's members and mask are computed once.
    """
    return tuple(
        Arc(rank, start, length)
        for start in range(1, 2 * rank + 1)
        for length in range(1, rank + 1)
    )


@dataclass(frozen=True)
class St0Verdict:
    """Outcome of the per-index counting screen."""

    holds: bool
    witness: int | None = None
    numerator_count: int | None = None
    denominator_count: int | None = None


def check_st0(ratio: RatioExpr) -> St0Verdict:
    """Check that every index appears equally often on both sides.

    Returns the first failing index (smallest) with its two counts.
    """
    for i in range(1, 2 * ratio.rank + 1):
        fn = sum(1 for s in ratio.numerator if i in s)
        fd = sum(1 for s in ratio.denominator if i in s)
        if fn != fd:
            return St0Verdict(False, i, fn, fd)
    return St0Verdict(True)


def degree_gap(x: Sequence[int], y: Sequence[int]) -> int | None:
    """The least ``k >= 1`` at which ``sum(min(x_i, k))`` exceeds
    ``sum(min(y_i, k))``, or None when there is no such ``k``.

    Read ``x`` and ``y`` as the numerator's and denominator's intersection
    profiles on an arc of length ``s`` that leads the 2n-gon.  On the
    family ``witness_family(n, s, k, t)`` each bracket obeys the degree law

        deg_t bracket(alpha) = min(k, |alpha ∩ {1..s}|),

    so the two sums are the ``t``-degrees of the two sides, and a gap at
    ``k`` drives the ratio to infinity on that family.  Each sum is also
    the ``k``-th prefix sum of the conjugate partition, whose ``k``-th part
    counts the parts that reach ``k``, and conjugation reverses
    majorization: when the totals agree, ``x`` majorizes ``y`` exactly
    when there is no gap (`check_condition_m`)."""
    gap = 0  # sum(min(x_i, k)) - sum(min(y_i, k)), grown by the k-th parts
    for k in range(1, max((*x, *y), default=0) + 1):
        for a in x:
            gap += a >= k
        for b in y:
            gap -= b >= k
        if gap > 0:
            return k
    return None


def m_vector(sets: Sequence[IndexSet], arc: Arc) -> tuple[int, ...]:
    """Intersection sizes |s ∩ arc| over the sequence, sorted descending."""
    return tuple(sorted(((s.mask & arc.mask).bit_count() for s in sets), reverse=True))


@dataclass(frozen=True)
class ConditionMVerdict:
    """Outcome of the arc-majorization screen, with the first failing arc."""

    holds: bool
    witness: Arc | None = None
    m_numerator: tuple[int, ...] | None = None
    m_denominator: tuple[int, ...] | None = None


def check_condition_m(ratio: RatioExpr) -> ConditionMVerdict:
    """For every arc of length <= n, the numerator intersection profile must
    majorize the denominator profile: the totals agree and there is no
    `degree_gap`.

    The witness on failure is the lexicographically first failing arc,
    ordered by (start, length).
    """
    for arc in arcs_up_to_half(ratio.rank):
        mn = m_vector(ratio.numerator, arc)
        md = m_vector(ratio.denominator, arc)
        if mn != md and (sum(mn) != sum(md) or degree_gap(mn, md) is not None):
            return ConditionMVerdict(False, arc, mn, md)
    return ConditionMVerdict(True)
