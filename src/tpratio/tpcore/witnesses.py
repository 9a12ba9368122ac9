"""Unboundedness witnesses: parametric matrix families and the falsifier.

When the arc-majorization screen fails, an explicit one-parameter family of
totally positive matrices drives the ratio to infinity.  The family
``witness_family(n, s, k, t)`` scales the first ``k`` of ``s`` leading
channels by ``t`` inside a product of fixed all-ones network matrices; its
defining property is the degree law

    deg_t bracket(alpha) = min(k, |alpha ∩ {1..s}|),

which converts a failed majorization prefix into a numerator/denominator
degree gap.  The falsifier locates such a gap, rotates the ratio so the
gap arc leads, and evaluates it on the family along a ladder of ``t``
values; at rank 4 it also tries every rotation and mirror image of the
ratio on the known 4 x 4 counterexample family.  Boundedness is invariant
under these symmetries, so they act on the ratio, never on the matrices.
Everything is labeled a numerical witness: growth past a threshold, never
a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..combinatorics import (
    RatioExpr,
    arcs_up_to_half,
    conjugate,
    cyclic_shift_ratio,
    m_vector,
    reversal_ratio,
)
from ..errors import InvalidInput
from .grassmann import eval_ratio, shift_matrix
from .matrices import TPMatrix, mat_mul, network_matrix, random_tp
from .network import all_ones_params

T_LADDER: tuple[Fraction, ...] = (
    Fraction(10),
    Fraction(100),
    Fraction(1000),
    Fraction(10000),
)
THRESHOLD = Fraction(1000)
LADDER_EXTENSIONS = 4
RANDOM_TRIALS = 20


def witness_family(n: int, s: int, k: int, t: Fraction) -> TPMatrix:
    """The degree-law family: block-diag(G * diag(t,..,t,1,..,1) * H, I) * C
    with G, H fixed s x s and C a fixed n x n all-ones network matrix.

    Requires ``1 <= k <= s <= n`` and ``t > 0``.
    """
    if not 1 <= k <= s <= n:
        raise InvalidInput(f"need 1 <= k <= s <= n, got k={k}, s={s}, n={n}")
    t = Fraction(t)
    if t <= 0:
        raise InvalidInput("the scale parameter must be positive")
    g = h = network_matrix(all_ones_params(s)).entries
    scaled = tuple(
        tuple(row[c] * (t if c < k else 1) for c in range(s)) for row in g
    )
    top = mat_mul(scaled, h)
    block: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for r in range(s):
        for c in range(s):
            block[r][c] = top[r][c]
    for r in range(s, n):
        block[r][r] = Fraction(1)
    c_fixed = network_matrix(all_ones_params(n)).entries
    return TPMatrix(n, mat_mul(tuple(tuple(r) for r in block), c_fixed))


def counterexample_matrix(t: Fraction) -> TPMatrix:
    """A 4 x 4 family, totally positive for every ``t > 0``, on which a
    specific majorization-passing three-over-three ratio still grows without
    bound as ``t`` grows.

    Every minor is a polynomial in ``t`` with positive coefficients over a
    monomial denominator, hence positive for all ``t > 0``.  The ratio
    ``[1,2,3,8][2,3,4,5][4,6,7,8] / [1,4,6,8][2,3,4,8][2,3,5,7]`` equals
    ``t^7 (t^2+t+2) / ((3t^2+2t+3)(4t^2+3t+2)(t^4+t^3+9t^2+6t+3))`` here,
    which grows like ``t/12``: about 833 at ``t = 10^4``, past 1000 only
    from ``t ~ 12001.4``."""
    t = Fraction(t)
    if t <= 0:
        raise InvalidInput("the scale parameter must be positive")
    ti = 1 / t
    rows = [
        [1, 3 * ti, 3 * ti**2, ti],
        [2 + ti, 1 + 6 * ti + 3 * ti**2, 2 * ti + 6 * ti**2 + 3 * ti**3, 1 + 2 * ti + ti**2],
        [t + 2, t + 4 + 6 * ti, 3 + 5 * ti + 6 * ti**2, 2 * t + 2 + 2 * ti],
        [t, t + 3, t + 2 + 3 * ti, t**2 + t + 2],
    ]
    return TPMatrix.of(rows)


@dataclass(frozen=True)
class Evidence:
    """Numerical unboundedness witness: an exactly evaluated value trace on a
    described matrix family, with the threshold it crossed."""

    family: str
    detail: tuple[tuple[str, int], ...]
    trace: tuple[tuple[Fraction, Fraction], ...]  # (parameter, exact value)
    threshold: Fraction

    @property
    def peak(self) -> Fraction:
        return max(v for _, v in self.trace)

    @property
    def increasing(self) -> bool:
        values = [v for _, v in self.trace]
        return all(a < b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class Inconclusive:
    """No witness found within budget.  Not a boundedness proof."""

    attempts: tuple[str, ...]


def _degree_gap(ratio: RatioExpr, arc) -> int | None:
    """Smallest prefix length at which the numerator's conjugate profile
    strictly exceeds the denominator's, or None when the arc gives no gap."""
    cn = conjugate(m_vector(ratio.numerator, arc))
    cd = conjugate(m_vector(ratio.denominator, arc))
    sn = sd = 0
    for k in range(1, arc.length + 1):
        sn += cn[k - 1] if k <= len(cn) else 0
        sd += cd[k - 1] if k <= len(cd) else 0
        if sn > sd:
            return k
    return None


def _gap_arc(ratio: RatioExpr):
    """First arc (in lexicographic order) whose majorization failure yields a
    growth gap.  Exists whenever the screen fails at all."""
    for arc in arcs_up_to_half(ratio.rank):
        k = _degree_gap(ratio, arc)
        if k is not None:
            return arc, k
    return None


def witness_matrix(ratio: RatioExpr, arc, k: int, t: Fraction) -> TPMatrix:
    """The degree-gap family member, rotated by `shift_matrix` so that the
    ratio as given takes the values `falsify` finds for its rotation on
    `witness_family`.  `falsify` never builds it; the tests use it as the
    matrix-side reference for those values."""
    m = witness_family(ratio.rank, arc.length, k, t)
    for _ in range(arc.start - 1):
        m = shift_matrix(m)
    return m


def _oriented(ratio: RatioExpr, rotation: int, mirrored: bool) -> RatioExpr:
    """The ratio rotated ``rotation`` steps, then mirrored if asked.  Its
    value on ``M`` is the given ratio's on `reverse_matrix` (if mirrored)
    then ``(2n - rotation) mod 2n`` times `shift_matrix` of ``M``: those
    scale every bracket by one common factor, which cancels."""
    for _ in range(rotation % (2 * ratio.rank)):
        ratio = cyclic_shift_ratio(ratio)
    return reversal_ratio(ratio) if mirrored else ratio


def _climb_ladder(family, detail, value_at):
    """Evaluate along `T_LADDER`; while the trace keeps strictly increasing
    but has not crossed `THRESHOLD`, extend by factors of 10, at most
    `LADDER_EXTENSIONS` times.  Returns the Evidence or None."""
    trace = [(t, value_at(t)) for t in T_LADDER]
    for _ in range(LADDER_EXTENSIONS):
        values = [v for _, v in trace]
        if any(a >= b for a, b in zip(values, values[1:])):
            break
        if max(values) > THRESHOLD:
            break
        t = trace[-1][0] * 10
        trace.append((t, value_at(t)))
    evidence = Evidence(family, detail, tuple(trace), THRESHOLD)
    return evidence if evidence.peak > THRESHOLD else None


def falsify(ratio: RatioExpr) -> Evidence | Inconclusive:
    """Search for numerical unboundedness evidence.

    A failed majorization screen always yields a witness family; otherwise
    the known 4 x 4 counterexample family and a random search over seeds
    ``0 .. RANDOM_TRIALS - 1`` are tried.  Ladders that are still strictly
    climbing at their top rung are extended by factors of 10.  An
    `Inconclusive` result records what was attempted; it is not a proof of
    boundedness.
    """
    attempts = []
    found = _gap_arc(ratio)
    if found is not None:
        arc, k = found
        detail = (("s", arc.length), ("k", k), ("start", arc.start))
        leading = _oriented(ratio, 1 - arc.start, False)
        evidence = _climb_ladder(
            "degree-gap",
            detail,
            lambda t: eval_ratio(witness_family(ratio.rank, arc.length, k, t), leading),
        )
        if evidence is not None:
            return evidence
        attempts.append("degree-gap ladder stayed under threshold")
    else:
        attempts.append("majorization screen holds: no degree gap")

    if ratio.rank == 4:
        for rotation in range(2 * ratio.rank):
            for mirrored in (False, True):
                variant = _oriented(ratio, rotation, mirrored)
                evidence = _climb_ladder(
                    "counterexample-family",
                    (("rotation", rotation), ("mirrored", int(mirrored))),
                    lambda t: eval_ratio(counterexample_matrix(t), variant),
                )
                if evidence is not None and evidence.increasing:
                    return evidence
        attempts.append("counterexample family (all symmetries) did not climb past threshold")

    best = max(
        (
            (Fraction(seed), eval_ratio(random_tp(ratio.rank, seed, magnitude=6), ratio))
            for seed in range(RANDOM_TRIALS)
        ),
        key=lambda pair: pair[1],
    )
    if best[1] > THRESHOLD:
        return Evidence("random-search", (("trials", RANDOM_TRIALS),), (best,), THRESHOLD)
    attempts.append(f"random search over {RANDOM_TRIALS} seeds stayed under threshold")
    return Inconclusive(tuple(attempts))
