"""Exponent-vector geometry over the cone of basic ratios.

Ratios embed into the integer lattice over the ``C(2n, n)`` index sets
(`ratio_to_vector`); products of ratios become sums.  A vector lies in the
cone generated by the basic ratios exactly when the ratio is a product of
nonnegative real powers of basics, hence bounded by 1.

Membership is decided by an exact-rational phase-one simplex with Bland's
rule (so it terminates and is deterministic).  Its tableau is sparse: each
row holds only its nonzero entries, read straight off the generators'
sparse columns and the query, since every generator touches just four of
the ``C(2n, n)`` coordinates.  Both answers come with an independently
checkable certificate: nonnegative coefficients that reproduce the query
exactly, or a separating functional that is nonpositive on every
generator yet positive on the query (`verify_certificate` re-checks
either one from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    coords, basics = all_index_sets(rank), basic_ratios_all(rank)
    index_of = {c: i for i, c in enumerate(coords)}
    rows: list[dict[int, Fraction]] = [{} for _ in coords]
    for j, b in enumerate(basics):
        for key, val in b.vector().as_dict().items():
            rows[index_of[key]][j] = Fraction(val)
    wanted = vector.as_dict()
    rhs = [Fraction(wanted.get(c, 0)) for c in coords]

    feasible, payload = _phase_one(rows, rhs, len(basics))
    if feasible:
        return InCone(tuple((basics[j], value) for j, value in sorted(payload.items())))
    return Outside(tuple((coords[i], y) for i, y in enumerate(payload) if y != 0))


def _phase_one(rows, rhs, n_cols):
    """Minimize total artificial mass of ``a @ lam + artificials = rhs``,
    where ``rows[i]`` maps column ``j`` to the nonzero ``a[i][j]``.

    Returns ``(True, {column: nonzero value})`` when the system is feasible,
    else ``(False, y)`` where ``y @ a <= 0`` columnwise and ``y @ rhs > 0``.

    Sparse tableau: each row, like the objective row of reduced costs and
    (negated) objective value, maps a column index to its nonzero entry.
    Columns ``0..n_cols-1`` are the real variables, then one artificial per
    row, then the right-hand side.
    """
    n_rows = len(rows)
    last = n_cols + n_rows  # the right-hand side's column
    signs = [-1 if b < 0 else 1 for b in rhs]
    tableau = []
    for i, (row, b, sign) in enumerate(zip(rows, rhs, signs)):
        flipped = {j: sign * v for j, v in row.items()}
        flipped[n_cols + i] = Fraction(1)
        if b:
            flipped[last] = sign * b
        tableau.append(flipped)
    # Objective row for min(sum of artificials), written with basic columns
    # zeroed out: costs minus the sum of the constraint rows.
    objective = {n_cols + i: Fraction(1) for i in range(n_rows)}
    for i, row in enumerate(tableau):
        _eliminate(objective, row, n_cols + i)
    basis = list(range(n_cols, last))

    while True:
        entering = min((j for j, v in objective.items() if v < 0 and j < last), default=None)
        if entering is None:
            break
        best = None
        for i, row in enumerate(tableau):
            coeff = row.get(entering, 0)
            if coeff > 0:
                key = (row.get(last, 0) / coeff, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise InvariantViolation("phase-one objective is bounded below; no ray exists")
        p = best[1]
        pivot = tableau[p][entering]
        tableau[p] = pivot_row = {j: v / pivot for j, v in tableau[p].items()}
        for i, row in enumerate(tableau):
            if i != p and entering in row:
                _eliminate(row, pivot_row, entering)
        if entering in objective:
            _eliminate(objective, pivot_row, entering)
        basis[p] = entering

    if last not in objective:  # no artificial mass left
        return True, {
            var: row[last] for var, row in zip(basis, tableau) if var < n_cols and last in row
        }
    # Dual: y_i = cost(artificial i) - reduced_cost(artificial i), undoing
    # the row sign flips.
    return False, [
        sign * (Fraction(1) - objective.get(n_cols + i, 0)) for i, sign in enumerate(signs)
    ]


def _eliminate(row: dict[int, Fraction], pivot_row: dict[int, Fraction], entering: int):
    """Subtract the multiple of ``pivot_row`` that clears ``row[entering]``,
    deleting every entry that cancels to zero so the rows stay sparse."""
    f = row[entering]
    for j, v in pivot_row.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


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
    pairing = lambda vec: sum(
        (y.get(k, Fraction(0)) * v for k, v in vec.items()), Fraction(0)
    )
    if pairing(vector.as_dict()) <= 0:
        return False
    return all(
        pairing(b.vector().as_dict()) <= 0 for b in basic_ratios_all(rank)
    )
