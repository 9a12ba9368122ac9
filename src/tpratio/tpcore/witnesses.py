"""Unboundedness witnesses: parametric matrix families and the falsifier.

When the arc-majorization screen fails, an explicit one-parameter family of
totally positive matrices drives the ratio to infinity.  The family
``witness_family(n, s, k, t)`` scales the first ``k`` of ``s`` leading
channels by ``t`` between all-ones network layers; its defining property
is the degree law

    deg_t bracket(alpha) = min(k, |alpha ∩ {1..s}|),

which turns the arc on which the screen fails into a numerator/denominator
degree gap (`tpratio.combinatorics.degree_gap`, the same inequality the
screen tests).  The falsifier locates such a gap, rotates the ratio so the
gap arc leads, and evaluates it on the family along a ladder of ``t``
values; at rank 4 it also tries every image of the ratio that
`tpratio.combinatorics.orientations` yields on the known 4 x 4
counterexample family, reading all sixteen from one table of every
bracket per ladder rung (`bracket_table` over `Fraction`).  Both
families are planar networks, totally positive by construction.
Only the degree-gap family depends on the ratio, so the counterexample
rung tables (`_rung_table`) and the random-search matrices
(`_random_trials`) are built once per process, on first use, and shared
by every later call.
Boundedness is invariant under these symmetries, so they act on the ratio,
never on the matrices.
Everything is labeled a numerical witness: growth past a threshold, never
a proof.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from ..combinatorics import (
    RatioExpr,
    arcs_up_to_half,
    cyclic_shift_ratio,
    degree_gap,
    m_vector,
    orientations,
)
from ..errors import InvalidInput
from .grassmann import bracket_table, eval_ratio, ratio_value, shift_matrix
from .matrices import TPMatrix, network_matrix, random_tp
from .network import Chip, NetworkParams, chips, network_product

T_LADDER: tuple[Fraction, ...] = tuple(Fraction(10) ** e for e in range(1, 5))
THRESHOLD = Fraction(1000)
LADDER_EXTENSIONS = 4
RANDOM_TRIALS = 20


def witness_family(n: int, s: int, k: int, t: Fraction) -> TPMatrix:
    """The degree-law family block-diag(G * diag(t,..,t,1,..,1) * H, I) * C
    as one network product: G = H and C are the all-ones networks on the
    first ``s`` and on all ``n`` wires, so it is totally positive.

    Requires ``1 <= k <= s <= n`` and ``t > 0``.
    """
    if not 1 <= k <= s <= n:
        raise InvalidInput(f"need 1 <= k <= s <= n, got k={k}, s={s}, n={n}")
    t = Fraction(t)
    if t <= 0:
        raise InvalidInput("the scale parameter must be positive")
    g = h = chips(s, [Fraction(1)] * s * s)
    layers = [*g, Chip("diag", 0, (t,) * k), *h, *chips(n, [Fraction(1)] * n * n)]
    return TPMatrix(n, network_product(n, layers, Fraction(0), Fraction(1)))


def counterexample_matrix(t: Fraction) -> TPMatrix:
    """A 4 x 4 family, totally positive for every ``t > 0``, on which a
    specific majorization-passing three-over-three ratio still grows without
    bound as ``t`` grows.

    It is the network at the monomial weights below (``u = 1/t``), so by
    the path-family (LGV) lemma each bracket is `symbolic_bracket` at them,
    a Laurent polynomial in ``t`` with positive coefficients.  The ratio
    ``[1,2,3,8][2,3,4,5][4,6,7,8] / [1,4,6,8][2,3,4,8][2,3,5,7]`` equals
    ``t^7 (t^2+t+2) / ((3t^2+2t+3)(4t^2+3t+2)(t^4+t^3+9t^2+6t+3))`` here,
    which grows like ``t/12``: about 833 at ``t = 10^4``, past 1000 only
    from ``t ~ 12001.4``."""
    t = Fraction(t)
    if t <= 0:
        raise InvalidInput("the scale parameter must be positive")
    u = 1 / t
    return network_matrix(
        NetworkParams.of(4, (1, t, u, t, 1, 1), (1, 1, 1, 1), (u, u, u, t, u, u))
    )


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


def _gap_arc(ratio: RatioExpr):
    """First arc (in lexicographic order) with a `degree_gap`, and the gap.
    Exists whenever the screen fails at all."""
    for arc in arcs_up_to_half(ratio.rank):
        k = degree_gap(m_vector(ratio.numerator, arc), m_vector(ratio.denominator, arc))
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


@cache
def _rung_table(t: Fraction) -> Mapping[int, Fraction]:
    """Every bracket of `counterexample_matrix(t)` by `IndexSet.mask`,
    read-only since every later `falsify` call shares it.  `falsify` asks
    only for the rungs of its ladder, so at most ``len(T_LADDER) +
    LADDER_EXTENSIONS`` tables are ever held."""
    return MappingProxyType(
        bracket_table(counterexample_matrix(t).entries, Fraction(0), Fraction(1))
    )


def _rung_value(ratio: RatioExpr, t: Fraction) -> Fraction:
    """The ratio's value on `counterexample_matrix(t)`, read from its rung
    table.  The table is looked up once, not once per bracket: each lookup
    hashes the `Fraction` ``t``."""
    table = _rung_table(t)
    return ratio_value(ratio, lambda s: table[s.mask])


@cache
def _random_trials(rank: int) -> tuple[TPMatrix, ...]:
    """The random-search matrices, ``random_tp(rank, seed, magnitude=6)``
    for seeds ``0 .. RANDOM_TRIALS - 1``: one tuple per rank."""
    return tuple(random_tp(rank, seed, magnitude=6) for seed in range(RANDOM_TRIALS))


def _climb_ladder(family, detail, value_at):
    """Evaluate along `T_LADDER`; while the trace keeps strictly increasing
    but has not crossed `THRESHOLD`, extend by factors of 10, at most
    `LADDER_EXTENSIONS` times.  Returns the Evidence or None."""
    evidence = Evidence(family, detail, tuple((t, value_at(t)) for t in T_LADDER), THRESHOLD)
    for _ in range(LADDER_EXTENSIONS):
        if not evidence.increasing or evidence.peak > THRESHOLD:
            break
        t = evidence.trace[-1][0] * 10
        evidence = replace(evidence, trace=(*evidence.trace, (t, value_at(t))))
    return evidence if evidence.peak > THRESHOLD else None


def falsify(ratio: RatioExpr) -> Evidence | Inconclusive:
    """Search for numerical unboundedness evidence.

    A failed majorization screen always yields a witness family; otherwise
    the known 4 x 4 counterexample family and a random search over seeds
    ``0 .. RANDOM_TRIALS - 1`` are tried.  The sixteen rotations and mirror
    images of a rank-4 ratio are all read from one table of the family
    member's brackets per ladder rung, built once per process and shared
    by every call, as are the random-search matrices.  Ladders that are
    still strictly climbing at their top rung are extended by factors of
    10.  An `Inconclusive` result records what was attempted; it is not a
    proof of boundedness.
    """
    attempts = []
    found = _gap_arc(ratio)
    if found is not None:
        arc, k = found
        detail = (("s", arc.length), ("k", k), ("start", arc.start))
        leading = cyclic_shift_ratio(ratio, 1 - arc.start)
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
        for rotation, mirrored, image in orientations(ratio):
            evidence = _climb_ladder(
                "counterexample-family",
                (("rotation", rotation), ("mirrored", int(mirrored))),
                lambda t: _rung_value(image, t),
            )
            if evidence is not None and evidence.increasing:
                return evidence
        attempts.append("counterexample family (all symmetries) did not climb past threshold")

    best = max(
        (
            (Fraction(seed), eval_ratio(m, ratio))
            for seed, m in enumerate(_random_trials(ratio.rank))
        ),
        key=lambda pair: pair[1],
    )
    if best[1] > THRESHOLD:
        return Evidence("random-search", (("trials", RANDOM_TRIALS),), (best,), THRESHOLD)
    attempts.append(f"random search over {RANDOM_TRIALS} seeds stayed under threshold")
    return Inconclusive(tuple(attempts))
