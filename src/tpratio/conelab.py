"""Exponent-vector geometry over the cone of basic ratios.

Ratios embed into the integer lattice over the ``C(2n, n)`` index sets
(`ratio_to_vector`); products of ratios become sums.  A vector lies in the
cone generated by the basic ratios exactly when the ratio is a product of
nonnegative real powers of basics, hence bounded by 1.

Membership is decided by an exact-rational phase-one simplex with Bland's
rule (so it terminates and is deterministic).  Both answers come with an
independently checkable certificate: nonnegative coefficients that
reproduce the query exactly, or a separating functional that is
nonpositive on every generator yet positive on the query
(`verify_certificate` re-checks either one from scratch).
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


def _generator_columns(rank: int):
    coords = all_index_sets(rank)
    basics = basic_ratios_all(rank)
    columns = [b.vector().as_dict() for b in basics]
    return coords, basics, columns


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
    coords, basics, columns = _generator_columns(rank)
    wanted = vector.as_dict()
    for b, col in zip(basics, columns):  # fast path: the query is a generator
        if col == wanted:
            return InCone(((b, Fraction(1)),))

    index_of = {c: i for i, c in enumerate(coords)}
    n_rows, n_cols = len(coords), len(basics)
    a = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for key, val in col.items():
            a[index_of[key]][j] = Fraction(val)
    rhs = [Fraction(0)] * n_rows
    for key, val in wanted.items():
        rhs[index_of[key]] = Fraction(val)

    feasible, payload = _phase_one(a, rhs)
    if feasible:
        coeffs = tuple(
            (basics[j], value)
            for j, value in sorted(payload.items())
            if value != 0
        )
        return InCone(coeffs)
    certificate = tuple((coords[i], y) for i, y in enumerate(payload) if y != 0)
    return Outside(certificate)


def _phase_one(a, rhs):
    """Minimize total artificial mass of ``a @ lam + artificials = rhs``.

    Returns ``(True, {column: value})`` when the system is feasible, else
    ``(False, y)`` where ``y @ a <= 0`` columnwise and ``y @ rhs > 0``.

    Full-tableau implementation: columns are the real variables, then one
    artificial per row, then the right-hand side; one extra objective row
    carries the reduced costs and (negated) objective value.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    total = n_cols + n_rows
    signs = [Fraction(-1) if rhs[i] < 0 else Fraction(1) for i in range(n_rows)]
    tableau = []
    for i in range(n_rows):
        row = [signs[i] * a[i][j] for j in range(n_cols)]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(n_rows)]
        row.append(signs[i] * rhs[i])
        tableau.append(row)
    # Objective row for min(sum of artificials), written with basic columns
    # zeroed out: costs minus the sum of the constraint rows.
    objective = [Fraction(0)] * (total + 1)
    for j in range(n_cols):
        objective[j] = -sum(tableau[i][j] for i in range(n_rows))
    objective[total] = -sum(tableau[i][total] for i in range(n_rows))
    basis = list(range(n_cols, total))

    while True:
        entering = next((j for j in range(total) if objective[j] < 0), None)
        if entering is None:
            break
        best = None
        for i in range(n_rows):
            coeff = tableau[i][entering]
            if coeff > 0:
                key = (tableau[i][total] / coeff, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise InvariantViolation("phase-one objective is bounded below; no ray exists")
        row = best[1]
        pivot = tableau[row][entering]
        tableau[row] = [x / pivot for x in tableau[row]]
        for i in range(n_rows):
            if i != row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[row])]
        if objective[entering] != 0:
            f = objective[entering]
            objective = [x - f * y for x, y in zip(objective, tableau[row])]
        basis[row] = entering

    mass = -objective[total]
    if mass == 0:
        solution = {
            var: tableau[i][total] for i, var in enumerate(basis) if var < n_cols
        }
        return True, solution
    # Dual: y_i = cost(artificial i) - reduced_cost(artificial i), undoing
    # the row sign flips.
    y = [signs[i] * (Fraction(1) - objective[n_cols + i]) for i in range(n_rows)]
    return False, y


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
