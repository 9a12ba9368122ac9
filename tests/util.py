"""Shared test helpers: enumerations and independent oracles.

Everything here is deliberately written against the problem statement, not
against the library internals, so the tests keep their value as oracles:
the degree fitter uses divided differences, ratio enumeration works from
raw index counting, exponent bookkeeping is redone with dictionaries,
determinants use plain `Fraction` elimination, polynomials are dicts keyed
by exponent tuples, majorization compares prefix sums, brackets and their symmetries are read
off the ``2n x n`` representative, brackets of a network matrix are summed
over path families, cone certificates are re-checked against every
coordinate of every generator, and two-over-two boundedness is decided by
Temperley-Lieb matchings.  Orbits and moved cone certificates are the
exception: they read the library's rotations and mirrors (`orientations`,
`cyclic_shift`, `reversal`), which `test_combinatorics.py` tests.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tpratio.combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    all_index_sets,
    cyclic_shift,
    minor_address,
    orientations,
    reversal,
)
from tpratio.conelab import InCone, Outside
from tpratio.errors import InvalidInput
from tpratio.factorizer import basic_ratios_all
from tpratio.tpcore import NetworkParams, TPMatrix
from tpratio.tpcore.network import chips, flat_weights

RANK4_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "rank4_pool.tsv"


def st0_pairs_by_profile(rank: int):
    """Unordered index-set pairs grouped by their index-count profile.

    Two pairs in the same group give an ST0 ratio; pairs from different
    groups never do.
    """
    groups: dict[tuple[int, ...], list[tuple[IndexSet, IndexSet]]] = defaultdict(list)
    for pair in itertools.combinations_with_replacement(all_index_sets(rank), 2):
        counts = [0] * (2 * rank)
        for s in pair:
            for e in s:
                counts[e - 1] += 1
        groups[tuple(counts)].append(pair)
    return groups


def st0_ratios(rank: int) -> list[RatioExpr]:
    """Every two-over-two ST0 ratio, up to reordering within each side."""
    out = []
    for group in st0_pairs_by_profile(rank).values():
        for num, den in itertools.product(group, group):
            out.append(RatioExpr.of(rank, num, den))
    return out


def random_st0_ratio(rank: int, rng: random.Random) -> RatioExpr | None:
    """A random two-over-two ST0 ratio, or None when the drawn numerator
    pool admits no denominator split."""
    labels = list(range(1, 2 * rank + 1))
    a1 = IndexSet.of(rank, rng.sample(labels, rank))
    a2 = IndexSet.of(rank, rng.sample(labels, rank))
    pool = sorted((*a1.elements, *a2.elements))
    splits = st0_splits(pool)
    if not splits:
        return None
    chosen = rng.choice(splits)
    b1 = IndexSet.of(rank, [pool[i] for i in chosen])
    b2 = IndexSet.of(rank, [pool[i] for i in range(2 * rank) if i not in chosen])
    return RatioExpr.of(rank, [a1, a2], [b1, b2])


def st0_splits(pool: list[int]) -> list[tuple[int, ...]]:
    """The positions ``c`` of ``n`` labels in the sorted pool of ``2n``
    labels, in lexicographic order, such that the labels at ``c`` and the
    labels off ``c`` are each distinct: one position of each doubled label
    and half of the single ones.  Listed directly, so the cost follows their
    number, not ``C(2n, n)``."""
    n = len(pool) // 2
    doubled = [(i, i + 1) for i in range(2 * n - 1) if pool[i] == pool[i + 1]]
    single = [i for i, label in enumerate(pool) if pool.count(label) == 1]
    return sorted(
        tuple(sorted((*pick, *rest)))
        for pick in itertools.product(*doubled)
        for rest in itertools.combinations(single, n - len(doubled))
    )


def random_shared_split_ratio(rank: int, rng: random.Random) -> RatioExpr:
    """A random two-over-two ST0 ratio drawn without listing splits: the
    labels both numerator sets hold go to both denominator sets, and the
    others are halved at random.  Unlike `random_st0_ratio`, its cost does
    not grow with ``C(2n, n)``."""
    labels = range(1, 2 * rank + 1)
    a1, a2 = set(rng.sample(labels, rank)), set(rng.sample(labels, rank))
    unshared = sorted(a1 ^ a2)
    half = set(rng.sample(unshared, len(unshared) // 2))
    b1, b2 = (a1 & a2) | half, (a1 & a2) | (set(unshared) - half)
    sets = [IndexSet.of(rank, s) for s in (a1, a2, b1, b2)]
    return RatioExpr.of(rank, sets[:2], sets[2:])


def vector_sum(vectors) -> dict[IndexSet, int]:
    """The entrywise sum of exponent vectors, as a dict of its nonzero
    entries."""
    total: dict[IndexSet, int] = {}
    for vec in vectors:
        for key, v in vec.entries:
            total[key] = total.get(key, 0) + v
    return {k: v for k, v in total.items() if v}


def negated(vec: ExponentVector) -> ExponentVector:
    """The vector of the reciprocal ratio."""
    return ExponentVector(vec.rank, tuple((k, -v) for k, v in vec.entries))


def sub_grid(matrix: TPMatrix, alpha: IndexSet):
    """The sub-grid of ``matrix`` whose determinant is the bracket of
    ``alpha``, read off the labels: ``e <= n`` is row ``e``, and ``e > n``
    drops column ``2n+1-e``."""
    n = matrix.rank
    cols = [c for c in range(1, n + 1) if 2 * n + 1 - c not in alpha]
    return [[matrix.entries[e - 1][c - 1] for c in cols] for e in alpha if e <= n]


def majorizes(x, y) -> bool:
    """The textbook definition: sorted in decreasing order and padded with
    zeros to one length, every prefix sum of ``x`` is at least that of
    ``y``, and the totals are equal."""
    width = max(len(x), len(y))
    xs = sorted(x, reverse=True) + [0] * (width - len(x))
    ys = sorted(y, reverse=True) + [0] * (width - len(y))
    prefixes = zip(itertools.accumulate(xs), itertools.accumulate(ys))
    return all(a >= b for a, b in prefixes) and sum(xs) == sum(ys)


def poly_degree_from_samples(samples: list[tuple[Fraction, Fraction]]) -> int:
    """Degree of the polynomial interpolating exact samples at distinct
    points, assuming the true degree is below the sample count.  Newton
    divided differences: the j-th column vanishes identically exactly for
    polynomials of degree below j.  The zero polynomial reports -1."""
    points = [t for t, _ in samples]
    column = [v for _, v in samples]
    degree = -1
    for j in range(len(samples)):
        if any(c != 0 for c in column):
            degree = j
        if len(column) > 1:
            column = [
                (column[i + 1] - column[i]) / (points[i + j + 1] - points[i])
                for i in range(len(column) - 1)
            ]
    return degree


def fraction_det(rows) -> Fraction:
    """Exact determinant by `Fraction` elimination with row swaps: the
    reference the library's integer elimination is held to."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = [[Fraction(x) for x in r] for r in rows]
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


def product_of_values(values) -> Fraction:
    total = Fraction(1)
    for v in values:
        total *= v
    return total


# Polynomials as {exponent tuple: nonzero coefficient} dicts: the oracle the
# packed-key `Polynomial` is held to.


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_value(a: dict, values) -> Fraction:
    total = Fraction(0)
    for exps, c in a.items():
        total += c * product_of_values(v**e for v, e in zip(values, exps))
    return total


# The 2n x n representative: the matrix stacked on the antidiagonal sign
# block.  Its maximal minors are the brackets, and moving its rows rotates or
# mirrors them; the tests hold the library's bracket evaluator and its
# symmetries to this construction.


def sign_block(rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows n+1..2n of the representative: row r has its only nonzero,
    ``(-1)**(r-1)``, in column ``n+1-r``."""
    return tuple(
        tuple(Fraction((-1) ** (r - 1)) if c == rank - r else Fraction(0) for c in range(rank))
        for r in range(1, rank + 1)
    )


def mat_mul(a, b):
    inner, cols = len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for row in a
    )


def inverse(rows):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(rows)
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
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


def representative(matrix: TPMatrix):
    return matrix.entries + sign_block(matrix.rank)


def representative_bracket(matrix: TPMatrix, alpha: IndexSet) -> Fraction:
    """The maximal minor of the representative on the rows ``alpha``."""
    rows = representative(matrix)
    return fraction_det([rows[e - 1] for e in alpha])


def _restandardize(rank: int, moved_rows) -> TPMatrix:
    """Right-multiply so the lower block returns to the sign block, then
    read off the upper block."""
    fixed = mat_mul(moved_rows, mat_mul(inverse(moved_rows[rank:]), sign_block(rank)))
    assert fixed[rank:] == sign_block(rank)
    return TPMatrix(rank, fixed[:rank])


def shift_oracle(matrix: TPMatrix) -> TPMatrix:
    """Move the last representative row to the top, with the sign that
    keeps every bracket's orientation, and restandardize."""
    n, rows = matrix.rank, representative(matrix)
    sign = Fraction((-1) ** (n - 1))
    return _restandardize(n, (tuple(sign * x for x in rows[-1]),) + rows[:-1])


def reverse_oracle(matrix: TPMatrix) -> TPMatrix:
    """Reverse the representative's rows and restandardize."""
    return _restandardize(matrix.rank, tuple(reversed(representative(matrix))))


# The path-family oracle: brackets of a network matrix summed over families
# of vertex-disjoint paths, never through a determinant.


def all_ones_params(rank: int) -> NetworkParams:
    k = rank * (rank - 1) // 2
    one = Fraction(1)
    return NetworkParams(rank, (one,) * k, (one,) * rank, (one,) * k)


def chip_entries(chip, rank: int):
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


def _transitions(chip, rank: int):
    """Outgoing options per wire: {incoming: [(outgoing, weight), ...]}."""
    options: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
    for (r, c), w in chip_entries(chip, rank):
        options[r].append((c, w))
    return options


def lgv_minors(params: NetworkParams, alpha: IndexSet) -> Fraction:
    """Sum of weights of vertex-disjoint path families from the rows to the
    kept columns `minor_address` reads off ``alpha``; equals the bracket of
    ``alpha`` on the network matrix.

    Each network layer carries at most one slant, so two paths of a family
    can never cross without sharing a vertex: a family is a sequence of
    strictly increasing wire tuples, matched in order, moving through the
    layers."""
    n = params.rank
    rows, cols = minor_address(alpha)
    states: dict[tuple[int, ...], Fraction] = {rows: Fraction(1)}
    for chip in chips(n, flat_weights(params)):
        options = _transitions(chip, n)
        nxt: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)

        def extend(idx: int, wires: tuple[int, ...], built: tuple[int, ...], weight):
            if idx == len(wires):
                nxt[built] += weight
                return
            for target, w in options[wires[idx]]:
                # Strictly increasing targets keep the paths vertex-disjoint
                # (and order-preserving, which is the only way disjoint paths
                # can run in a planar layered network).
                if built and target <= built[-1]:
                    continue
                extend(idx + 1, wires, built + (target,), weight * w)

        for wires, weight in states.items():
            extend(0, wires, (), weight)
        states = dict(nxt)
    return states.get(cols, Fraction(0))


def orbit(ratio: RatioExpr) -> list[RatioExpr]:
    """The ratio's `orientations` images: its ``2n`` rotations, then their
    mirror images, the order the pinned orbit digests hash."""
    return [image for _, _, image in sorted(orientations(ratio), key=lambda o: (o[1], o[0]))]


@functools.cache
def _generators_by_vector(rank: int):
    return {b.vector(): b for b in basic_ratios_all(rank)}


def move_certificate(verdict, rank: int, rotation: int, mirrored: bool):
    """The cone certificate moved by the symmetry that `orientations` names
    ``(rotation, mirrored)``: an `Outside` functional's keys move, and each
    `InCone` basic ratio becomes the generator whose vector is its moved
    vector.  Each symmetry maps the generator set onto itself, so the moved
    certificate is one for the ratio's image."""

    def move(key: IndexSet) -> IndexSet:
        key = cyclic_shift(key, rotation)
        return reversal(key) if mirrored else key

    if isinstance(verdict, Outside):
        return Outside(tuple((move(k), y) for k, y in verdict.certificate))
    generators, moved = _generators_by_vector(rank), []
    for b, c in verdict.coefficients:
        vector = ExponentVector.from_counts(rank, {move(k): v for k, v in b.vector().entries})
        moved.append((generators[vector], c))
    return InCone(tuple(moved))


def rank4_pool() -> list[tuple[str, str, str]]:
    """The committed rank-4 benchmark pool: (arity, cone verdict, ratio
    text) per line."""
    return [tuple(line.split("\t")) for line in RANK4_POOL.read_text().splitlines()]


@functools.cache
def basic_ratio_vectors(rank: int):
    """Each basic ratio's sparse exponent vector as ``(index set, exponent)``
    pairs, in `basic_ratios_all` order; built once per rank."""
    return tuple(tuple(b.vector().as_dict().items()) for b in basic_ratios_all(rank))


def reference_verify_certificate(vector: ExponentVector, verdict, rank: int) -> bool:
    """The cone checker as first written: an `InCone` combination rebuilt
    from each basic ratio's own vector, and an `Outside` functional paired
    with every coordinate of every generator, a coordinate it does not name
    read as 0.  Keeps the last of a repeated functional key."""
    if rank != vector.rank:
        raise InvalidInput(f"rank {rank} does not match the vector's rank {vector.rank}")
    if isinstance(verdict, InCone):
        if any(coeff < 0 for _, coeff in verdict.coefficients):
            return False
        total: dict[IndexSet, Fraction] = {}
        for b, coeff in verdict.coefficients:
            for key, val in b.vector().as_dict().items():
                total[key] = total.get(key, Fraction(0)) + coeff * val
        reached = {k: v for k, v in total.items() if v != 0}
        return reached == {k: Fraction(v) for k, v in vector.as_dict().items()}
    y = dict(verdict.certificate)
    pairing = lambda items: sum((y.get(k, Fraction(0)) * v for k, v in items), Fraction(0))
    if pairing(vector.as_dict().items()) <= 0:
        return False
    return all(pairing(items) <= 0 for items in basic_ratio_vectors(rank))


def _tl_matchings(first: frozenset, points: tuple[int, ...]) -> frozenset:
    """The non-crossing perfect matchings of the increasing ``points`` whose
    every edge joins a label in ``first`` to one outside it, each a
    frozenset of ``(low, high)`` edges.  The lowest point is matched to a
    point that leaves an even number between them, so neither side of the
    edge has a point it could only reach by crossing it."""
    if not points:
        return frozenset([frozenset()])
    head = points[0]
    out = set()
    for j in range(1, len(points), 2):
        if (head in first) != (points[j] in first):
            for inner in _tl_matchings(first, points[1:j]):
                for outer in _tl_matchings(first, points[j + 1:]):
                    out.add(inner | outer | {(head, points[j])})
    return frozenset(out)


def tl_bounded(ratio: RatioExpr) -> bool:
    """The Temperley-Lieb matching test for a two-over-two ratio
    ``D_I1 D_I2 / D_J1 D_J2`` (Rhoades-Skandera 2005; Lam 2015).  A product
    ``D_I D_J`` is the sum of the TL immanants of the non-crossing perfect
    matchings of ``I ^ J`` whose every edge joins a label of ``I`` to one
    outside it, and each immanant is nonnegative on totally positive
    matrices; so the ratio is bounded when the numerator's matchings are
    among the denominator's.  Shares no code with the screens."""

    def matchings(a: IndexSet, b: IndexSet) -> frozenset:
        a, b = set(a), set(b)
        return _tl_matchings(frozenset(a - b), tuple(sorted(a ^ b)))

    (i1, i2), (j1, j2) = ratio.numerator, ratio.denominator
    return matchings(i1, i2) <= matchings(j1, j2)
