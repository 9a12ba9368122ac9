"""Exponent-vector geometry over the cone of basic ratios.

Ratios embed into the integer lattice over the ``C(2n, n)`` index sets
(`ExponentVector.of_ratio`); products of ratios become sums.  A vector lies
in the cone generated by the basic ratios exactly when the ratio is a
product of nonnegative real powers of basics, hence bounded by 1.

Membership is decided by an exact homogeneous simplex with Bland's rule (so
it terminates and is deterministic), warm-started from a basis of the
generators' span, built once per rank into one record.  It keeps ``B0^-1``
for every row of the pivoted ``[A | I]``, by row and by column, the basis
rows first and the rows left out of the basis last: those last rows are the
index-balance relations (each label as often upstairs as downstairs).  Each
generator enters the basis in the free row whose coordinate the fewest
generators hold, ties broken by coordinate order.  That choice leaves the
basis columns, every pivot of a solve and every `InCone` certificate as
they would be in any other row order; it moves only the rows left out.
Every generator satisfies the balance relations, so a Farkas functional is
free up to them, and the one the simplex reads, a combination of basis
rows of ``B0^-1``, is 0 on every coordinate whose row is left out: its free
part is fixed at the coordinates many generators hold, where each of its
terms would cost the check most.  A solve reads the query once, through the
``B0^-1`` columns of its nonzeros: a nonzero in a balance row rejects a
query outside the span before any pivot, and the basis rows' entries are
the query's column of the starting tableau.  The tableau is sparse and
integral: each row holds the integer numerators of its nonzero entries over
one positive denominator.  It never holds the warm-start inverse ``B0^-1``,
80% of the starting rows' nonzeros at ranks 4 and 5, whose columns never
enter the basis: each row carries instead its multipliers of the warm-start
rows, as in the product form of the inverse (Dantzig and Orchard-Hays,
1954), and the cached ``B0^-1`` rows are applied once, to the objective
row's multipliers, when a separating functional is read.  Both answers come
with an independently checkable certificate in `Fraction`s: nonnegative
coefficients that reproduce the query exactly, or a separating functional
that is nonpositive on every generator yet positive on the query
(`verify_certificate` re-checks either one from scratch).  The checker
keeps its own per-rank copy of the generators' vectors, with the generators
that hold each coordinate and their exponents there, and pairs a functional
by coordinate: walking its support once, it adds each entry's share to the
pairing of every generator holding that coordinate.  A pairing sums over
the coordinates both hold, so a generator the walk never meets pairs to
exactly 0, which passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .combinatorics import ExponentVector, IndexSet, all_index_sets
from .budgets import MAX_RANK
from .errors import BudgetExceeded, InvalidInput, InvariantViolation
from .factorizer import BasicRatio, basic_ratios_all


# an alias kept only because the benchmark (perfbench/workloads.py and
# perfbench/calibrate.py) calls it by this name
ratio_to_vector = ExponentVector.of_ratio


@dataclass(frozen=True)
class InCone:
    """Nonnegative combination of basic ratios reproducing the query."""

    coefficients: tuple[tuple[BasicRatio, Fraction], ...]


@dataclass(frozen=True)
class Outside:
    """Separating functional: nonpositive on every generator, positive on
    the query.  Sparse over the index-set coordinates."""

    certificate: tuple[tuple[IndexSet, Fraction], ...]


ConeVerdict = InCone | Outside


def _check_rank(vector: ExponentVector, rank: int) -> None:
    if rank != vector.rank:
        raise InvalidInput(f"rank {rank} does not match the vector's rank {vector.rank}")


def cone_membership(vector: ExponentVector, rank: int) -> ConeVerdict:
    """Decide membership of ``vector`` in the basic-ratio cone.

    Maximizes ``mu`` over ``columns @ lam = mu * vector, lam, mu >= 0``
    exactly: a ray (``mu`` unbounded) gives the coefficients, an optimum
    at 0 gives the Farkas functional from the optimal dual.
    Deterministic: fixed generator order plus Bland's pivoting rule.

    Row ``i`` starts as its cached ``B0^-1 A`` part, the ``mu`` entry
    ``-(B0^-1 @ vector)_i``, and a multiplier column holding 1 (numerator
    ``start[i]``): every later row is the sum of the starting rows times
    its multipliers, plus the cost ``-mu`` in the objective row.  Only the
    generators and ``mu`` enter, so the pivots are those of the full
    ``[B0^-1 A | B0^-1]`` tableau.  The query's entries are read once each,
    into ``B0^-1 @ vector`` over every row of the cached basis: a nonzero
    in a balance row is an index-balance relation the query breaks, and
    the basis rows' entries are its ``mu`` column.
    """
    _check_rank(vector, rank)
    if rank > MAX_RANK:
        raise BudgetExceeded(f"cone membership is budgeted to rank {MAX_RANK}")
    coords, position, basics, rows, inverse, columns, start, basis = _generator_basis(rank)
    n_cols, n_rows = len(basics), len(rows)
    column = [0] * len(coords)  # B0^-1 @ vector, the balance rows last
    for c, v in vector.entries:
        for i, w in zip(*columns[position[c]]):
            column[i] += w * v
    # Per-call tuples (the verdicts, and lcm's arguments in `_functional`) are
    # built from lists: tuple() of a generator shrinks its result by realloc,
    # and CPython's tuple free lists then grow by one a call.
    for i in range(n_rows, len(coords)):  # the vector leaves the generators' span
        if x := column[i]:
            sign, y = 1 if x > 0 else -1, inverse[i].items()
            return Outside(tuple([(coords[k], Fraction(sign * v)) for k, v in y]))

    mu = n_cols  # the query's column; column mu + 1 + i holds 1 x starting row i
    tableau = []
    for i, part in enumerate(rows):
        row = dict(part)
        if x := column[i]:  # mu's column is -B0^-1 @ vector
            row[mu] = -x
        row[mu + 1 + i] = start[i]
        tableau.append(row)
    objective = {mu: -1}  # min -mu; every basic value is 0 and stays 0
    tableau.append(objective)  # eliminated along with the constraint rows
    dens, basis = [*start, 1], list(basis)
    while True:
        # Bland's rule over the generators and mu; the multipliers never enter
        entering = min((j for j, v in objective.items() if v < 0 and j <= mu), default=None)
        if entering is None:  # optimal at mu = 0
            return Outside(_functional(objective, dens[n_rows], mu, inverse, start, coords))
        rising = [i for i in range(n_rows) if tableau[i].get(entering, 0) > 0]
        if not rising:
            break
        p = min(rising, key=basis.__getitem__)
        _pivot(tableau, dens, p, entering)
        basis[p] = entering
    # A ray: raising `entering` by 1 raises each basic variable by minus its
    # entry in that column, and raises mu since the reduced cost is negative.
    ray = {basis[i]: Fraction(-row[entering], dens[i])
           for i, row in enumerate(tableau[:n_rows]) if entering in row}
    ray[entering] = Fraction(1)
    scale = ray.pop(mu, 0)
    if not scale:
        raise InvariantViolation("a ray of the cone simplex leaves mu at 0")
    return InCone(tuple([(basics[j], x / scale) for j, x in sorted(ray.items())]))


def _functional(objective, d, mu, inverse, start, coords):
    """The Farkas functional at an optimum: ``y`` is minus the objective
    row's ``B0^-1`` part, the sum of ``B0^-1`` row ``i`` (over ``start[i]``)
    times the row's multiplier ``m_i / d``.  Summed over ints with one
    common denominator, one `Fraction` per coordinate."""
    terms = [(m, j - mu - 1) for j, m in objective.items() if j > mu]
    common = lcm(*[start[i] for _, i in terms])
    y: dict[int, int] = {}
    for m, i in terms:
        f = m * (common // start[i])
        for k, v in inverse[i].items():
            y[k] = y.get(k, 0) - f * v
    d *= common
    return tuple([(coords[k], Fraction(v, d)) for k, v in sorted(y.items()) if v])


@cache
def _generator_basis(rank: int):
    """The rank's coordinates, their positions, the basic ratios, and a
    basis ``B0`` of the generators' span with its inverse over every row.

    Pivots the integer tableau ``[A | I]`` (one row per coordinate, one
    column per basic ratio, then the identity) in generator order: each
    generator enters, among the rows without a basis column that hold a
    nonzero entry in its column, the one whose coordinate the fewest
    generators hold (counted once, in ``A`` before any pivot), the first in
    coordinate order on a tie.  A row never pivoted on keeps its
    coordinate's ``B0^-1`` column to itself, so a functional combined from
    the basis rows is 0 there; the rule leaves out the coordinates many
    generators hold, which makes the functionals cheap to check, while the
    basis columns, and with them every pivot of a solve, are those of any
    row choice.  Orders the rows with the basis rows first and the rows
    left over last, each part ascending; a row left over has ``A`` part 0,
    so its ``B0^-1`` part ``y`` is an index-balance relation, ``y @ A = 0``.
    Returns each basis row's ``B0^-1 A`` part (by generator, over the row's
    denominator); every row's ``B0^-1`` part, by row (by coordinate index,
    in coordinate order) and by column (for each coordinate index, the rows
    of its nonzero entries and their numerators, as two tuples); and the
    basis rows' denominators and basis columns.  A solve copies the
    ``B0^-1 A`` parts only, reads the query through the columns, and reads
    a ``B0^-1`` row for the functional of an `Outside` verdict.  Built on
    first use, once per rank; never mutated.
    """
    coords, basics = tuple(all_index_sets(rank)), tuple(basic_ratios_all(rank))
    n_cols = len(basics)
    position = {c: i for i, c in enumerate(coords)}
    tableau: list[dict[int, int]] = [{n_cols + i: 1} for i in range(len(coords))]
    for j, b in enumerate(basics):
        for key, val in b.vector().as_dict().items():
            tableau[position[key]][j] = val
    # rows by how many generators hold their coordinate (each row also holds
    # its identity entry); sorted() is stable, so ties stay in coordinate order
    held = sorted(range(len(coords)), key=lambda i: len(tableau[i]))
    dens = [1] * len(coords)
    basis: list[int | None] = [None] * len(coords)
    for j in range(n_cols):
        p = next((i for i in held if basis[i] is None and j in tableau[i]), None)
        if p is None:
            continue
        if tableau[p][j] < 0:
            tableau[p] = {k: -v for k, v in tableau[p].items()}
        _pivot(tableau, dens, p, j)
        basis[p] = j
    kept = [i for i in range(len(coords)) if basis[i] is not None]
    order = kept + [i for i in range(len(coords)) if basis[i] is None]
    inverse = tuple(
        {k - n_cols: v for k, v in sorted(tableau[i].items()) if k >= n_cols} for i in order
    )
    columns: list[tuple[list[int], list[int]]] = [([], []) for _ in coords]
    for i, inv in enumerate(inverse):
        for k, w in inv.items():
            columns[k][0].append(i)
            columns[k][1].append(w)
    return (coords, position, basics,
            tuple({k: v for k, v in tableau[i].items() if k < n_cols} for i in kept),
            inverse, tuple((tuple(r), tuple(w)) for r, w in columns),
            tuple(dens[i] for i in kept), tuple(basis[i] for i in kept))


def _pivot(tableau: list[dict[int, int]], dens: list[int], p: int, e: int) -> None:
    """Pivot on row ``p``, column ``e``, in place.

    Integer rows, one denominator per row: each row maps a column to the
    integer numerator of its nonzero entry, over the positive ``dens[i]``,
    kept in lowest terms.  The pivot entry must be positive.  Scaled to a
    leading 1, row ``p`` keeps its numerators over the pivot's numerator;
    every other row loses column ``e`` and every entry it cancels.
    """
    pivot_row = tableau[p]
    d_p = _reduce(pivot_row, pivot_row[e])
    dens[p] = d_p
    pivot_items = pivot_row.items()
    for i, row in enumerate(tableau):
        f = row.get(e)  # entries are never 0
        if f is None or i == p:
            continue
        # row - f * pivot_row  =  (row * d_p - f * pivot_row) / (d * d_p)
        if d_p != 1:
            for j in row:
                row[j] *= d_p
        for j, v in pivot_items:
            x = row.get(j, 0) - f * v
            if x:
                row[j] = x
            else:
                del row[j]
        dens[i] = _reduce(row, dens[i] * d_p)


def _reduce(row: dict[int, int], d: int) -> int:
    """Divide ``row``'s numerators and the positive denominator ``d`` by
    their gcd, in place; return the reduced denominator."""
    g = d
    for v in row.values():
        if g == 1:
            return d
        g = gcd(g, v)
    if g != 1:
        for j in row:
            row[j] //= g
    return d // g


_EXACT = (int, Fraction)  # the values a certificate may hold: exact rationals


def verify_certificate(
    vector: ExponentVector, verdict: ConeVerdict, rank: int
) -> bool:
    """Re-check a verdict from scratch, independent of solver internals.

    Every coefficient and functional value must be an exact rational (an
    ``int`` or a `Fraction`).  `InCone`: every term is one of the rank's
    generators with a nonnegative coefficient, and the combination of their
    vectors is the query, entry for entry.  `Outside`: the functional ``y``
    names each coordinate once, every one an index set of ``rank``, and is
    positive on the query and nonpositive on every generator.  A
    generator's pairing with ``y`` sums over the coordinates both hold, so
    it is accumulated while walking ``supp(y)``, coordinate by coordinate;
    a generator that holds no coordinate of ``supp(y)`` pairs to exactly 0
    and passes.  All arithmetic is exact.
    """
    _check_rank(vector, rank)
    vectors, holding = _generator_vectors(rank)
    if isinstance(verdict, InCone):
        total: dict[IndexSet, Fraction] = {}
        for b, coeff in verdict.coefficients:
            entries = vectors.get(b)
            if entries is None or not isinstance(coeff, _EXACT) or coeff < 0:
                return False  # not a generator of the rank, or not a nonnegative rational
            for key, val in entries:
                total[key] = total.get(key, 0) + coeff * val
        return {k: v for k, v in total.items() if v != 0} == vector.as_dict()
    y = dict(verdict.certificate)
    if len(y) != len(verdict.certificate):  # the printed functional is not the one checked
        return False
    pairings: dict[int, Fraction] = {}
    for k, yk in y.items():
        if not (isinstance(k, IndexSet) and k.rank == rank and isinstance(yk, _EXACT)):
            return False  # a key that pairs with nothing, or inexact arithmetic
        for g, v in zip(*holding.get(k, ((), ()))):  # held by no generator at rank 1
            pairings[g] = pairings.get(g, 0) + yk * v
    if sum(y[k] * v for k, v in vector.entries if k in y) <= 0:
        return False
    return all(s <= 0 for s in pairings.values())


@cache
def _generator_vectors(rank: int):
    """The basic ratios' sparse exponent vectors, by basic ratio, and for
    each coordinate the generators that hold it and their exponents there,
    as two tuples, so that a functional is paired coordinate by coordinate
    over its own support.  Built once per rank: the checker's own copy, so
    that it shares nothing with the solver."""
    vectors = {b: b.vector().entries for b in basic_ratios_all(rank)}
    holding: dict[IndexSet, tuple[list[int], list[int]]] = {}
    for g, entries in enumerate(vectors.values()):
        for key, v in entries:
            generators, exponents = holding.setdefault(key, ([], []))
            generators.append(g)
            exponents.append(v)
    return vectors, {k: (tuple(g), tuple(v)) for k, (g, v) in holding.items()}
