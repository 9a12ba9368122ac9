"""Exponent-vector geometry over the cone of basic ratios.

Ratios embed into the integer lattice over the ``C(2n, n)`` index sets
(`ratio_to_vector`); products of ratios become sums.  A vector lies in the
cone generated by the basic ratios exactly when the ratio is a product of
nonnegative real powers of basics, hence bounded by 1.

Membership is decided by an exact phase-one simplex with Bland's rule (so
it terminates and is deterministic).  Its tableau is sparse and integral:
each row holds the integer numerators of its nonzero entries over one
positive denominator, starting from the generators' integer columns (every
generator touches just four of the ``C(2n, n)`` coordinates, and the rows
are built once per rank) and the query.  Both answers come with an
independently checkable certificate in `Fraction`s: nonnegative
coefficients that reproduce the query exactly, or a separating functional
that is nonpositive on every generator yet positive on the query
(`verify_certificate` re-checks either one from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .combinatorics import ExponentVector, IndexSet, RatioExpr, all_index_sets
from .budgets import MAX_RANK
from .errors import BudgetExceeded, InvalidInput, InvariantViolation
from .factorizer import BasicRatio, basic_ratios_all


def ratio_to_vector(ratio: RatioExpr) -> ExponentVector:
    """+1 per numerator occurrence, -1 per denominator occurrence."""
    return ExponentVector.of_ratio(ratio)


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

    Solves the equality system ``columns @ lam = vector, lam >= 0`` exactly;
    infeasibility yields the Farkas functional from the optimal dual.
    Deterministic: fixed generator order plus Bland's pivoting rule.
    """
    _check_rank(vector, rank)
    if rank > MAX_RANK:
        raise BudgetExceeded(f"cone membership is budgeted to rank {MAX_RANK}")
    coords, basics, rows = _generator_rows(rank)
    wanted = vector.as_dict()
    rhs = [wanted.get(c, 0) for c in coords]

    feasible, payload = _phase_one(rows, rhs, len(basics))
    if feasible:
        return InCone(tuple((basics[j], value) for j, value in sorted(payload.items())))
    return Outside(tuple((coords[i], y) for i, y in enumerate(payload) if y != 0))


@cache
def _generator_rows(rank: int):
    """The rank's coordinates, its basic ratios, and the constraint rows:
    ``rows[i]`` maps generator ``j`` to its nonzero integer exponent at
    coordinate ``i``.  Built on first use, once per rank; never mutated."""
    coords, basics = tuple(all_index_sets(rank)), tuple(basic_ratios_all(rank))
    index_of = {c: i for i, c in enumerate(coords)}
    rows: list[dict[int, int]] = [{} for _ in coords]
    for j, b in enumerate(basics):
        for key, val in b.vector().as_dict().items():
            rows[index_of[key]][j] = val
    return coords, basics, tuple(rows)


def _phase_one(rows, rhs, n_cols):
    """Minimize total artificial mass of ``a @ lam + artificials = rhs``,
    where ``rows[i]`` maps column ``j`` to the nonzero integer ``a[i][j]``
    and ``rhs`` holds integers.

    Returns ``(True, {column: nonzero value})`` when the system is feasible,
    else ``(False, y)`` where ``y @ a <= 0`` columnwise and ``y @ rhs > 0``;
    the values are `Fraction`s.

    Integer rows, one denominator per row: each tableau row, like the
    objective row of reduced costs and (negated) objective value, maps a
    column index to the integer numerator of its nonzero entry, over one
    positive denominator for the whole row, kept in lowest terms.  Columns
    ``0..n_cols-1`` are the real variables, then one artificial per row,
    then the right-hand side.  Rows with a negative right-hand side are
    negated first, so every artificial starts basic and feasible.
    """
    n_rows = len(rows)
    last = n_cols + n_rows  # the right-hand side's column
    signs = [-1 if b < 0 else 1 for b in rhs]
    tableau = []
    for i, (row, b, sign) in enumerate(zip(rows, rhs, signs)):
        flipped = {j: sign * v for j, v in row.items()}
        flipped[n_cols + i] = 1
        if b:
            flipped[last] = sign * b
        tableau.append(flipped)
    # Objective row for min(sum of artificials), written with basic columns
    # zeroed out: costs minus the sum of the constraint rows, in which every
    # artificial cancels.
    total: dict[int, int] = {}
    for row in tableau:
        for j, v in row.items():
            total[j] = total.get(j, 0) - v
    objective = {j: v for j, v in total.items() if v and not n_cols <= j < last}
    tableau.append(objective)  # eliminated along with the constraint rows
    dens = [1] * (n_rows + 1)
    basis = list(range(n_cols, last))

    while True:
        entering = min((j for j, v in objective.items() if v < 0 and j < last), default=None)
        if entering is None:
            break
        # Ratio test on rhs / coeff, whose row denominator cancels; compare
        # by cross-multiplication, ties to the smaller basis index.
        p = None
        for i in range(n_rows):
            coeff = tableau[i].get(entering, 0)
            if coeff > 0:
                b = tableau[i].get(last, 0)
                if p is None or b * p_coeff < p_b * coeff or (
                    b * p_coeff == p_b * coeff and basis[i] < basis[p]
                ):
                    p, p_coeff, p_b = i, coeff, b
        if p is None:
            raise InvariantViolation("phase-one objective is bounded below; no ray exists")
        # Scaled to a leading 1, the pivot row keeps its numerators over the
        # pivot's numerator as denominator.
        pivot_row = tableau[p]
        d_p = _reduce(pivot_row, p_coeff)
        dens[p] = d_p
        for i, row in enumerate(tableau):
            if i == p or entering not in row:
                continue
            # row - row[e] * pivot_row  =  (row * d_p - row[e] * pivot_row) / (d * d_p)
            f = row[entering]
            if d_p != 1:
                for j in row:
                    row[j] *= d_p
            for j, v in pivot_row.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            dens[i] = _reduce(row, dens[i] * d_p)
        basis[p] = entering

    if last not in objective:  # no artificial mass left
        return True, {
            var: Fraction(row[last], d)
            for var, row, d in zip(basis, tableau, dens)
            if var < n_cols and last in row
        }
    # Dual: y_i = cost(artificial i) - reduced_cost(artificial i), undoing
    # the row sign flips.
    d = dens[n_rows]
    return False, [
        sign * Fraction(d - objective.get(n_cols + i, 0), d) for i, sign in enumerate(signs)
    ]


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


def verify_certificate(
    vector: ExponentVector, verdict: ConeVerdict, rank: int
) -> bool:
    """Re-check a verdict from scratch, independent of solver internals."""
    _check_rank(vector, rank)
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
    return all(pairing(items) <= 0 for items in _generator_vectors(rank))


@cache
def _generator_vectors(rank: int) -> tuple[tuple[tuple[IndexSet, int], ...], ...]:
    """The basic ratios' sparse exponent vectors, built once per rank: the
    checker's own copy, so that it shares nothing with the solver."""
    return tuple(tuple(b.vector().as_dict().items()) for b in basic_ratios_all(rank))
