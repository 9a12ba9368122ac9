"""Factorization of two-over-two Plücker ratios into basic ratios.

A ratio ``[a1][a2] / [b1][b2]`` that passes the counting screen (`check_st0`)
and the arc-majorization screen (`check_condition_m`) is bounded by 1, and
this module produces the constructive certificate: a multiset of *basic*
ratios whose product equals the input.  `factor_to_basics` runs the two
screens once, on its input, and checks the certificate once, by exact
exponent-vector cancellation (`FactorizationResult.vector_check`).  A
failing screen's verdict becomes its witnessed exception in one place
(`_require_st0`, `_require_condition_m`).

The pipeline:

1. `decompose` splits the four index sets into the shared core and the four
   pairwise-intersection blocks ``gamma1, gamma2, delta1, delta2``.
2. While more than two indices per side are unshared (``nu >= 3``),
   `split_once` rewrites the ratio as a product of two smaller ratios, both
   of which still pass the majorization screen, and returns the `TraceStep`
   the pipeline records for that node.  In block form the ratio is
   ``[gamma1 gamma2][delta1 delta2] / [gamma1 delta2][delta1 gamma2]``, each
   bracket with the core.  Every rule is a pair (relabelling of the blocks,
   pivot ``P``): the left factor is the relabelled ratio with ``delta1``
   replaced by ``P``, the right factor the same with ``gamma1`` replaced by
   ``P``, and the brackets they insert cancel.  The dispatch order between
   the applicable rules is fixed so traces are reproducible.
3. Each ``nu == 2`` leaf is either trivial or an *elementary* ratio
   ``[i1,j2,c][i2,j1,c] / [i1,j1,c][i2,j2,c]`` with the four anchors in
   cyclic order; `elementary_to_basics` reduces it to basics by a two-rule
   rewrite that strictly shrinks the measure ``(mu, delta)``, and returns
   the rewrite as a `FactorizationResult` of its own.

Every step is recorded as a `TraceStep` so certificates can be audited.
That split factors pass the screen, shrink ``nu`` and multiply back, and
that elementary rewrites shrink ``(mu, delta)``, hold by construction: the
recursion does not re-check them, and the tests check every rank-4 trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

from .budgets import MAX_COUNTED_RANK, MAX_LISTED_BASICS
from .combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    base_set,
    check_condition_m,
    check_st0,
)
from .errors import (
    BudgetExceeded,
    ConditionMViolation,
    InvalidInput,
    InvariantViolation,
    St0Violation,
)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Decomposition:
    """The block structure of a two-over-two ratio.

    ``core`` collects the indices common to all four sets.  The remaining
    indices split into four disjoint blocks keyed by which numerator and
    denominator set they sit in:

    * ``gamma1`` = first numerator and first denominator set,
    * ``gamma2`` = first numerator and second denominator set,
    * ``delta1`` = second numerator and second denominator set,
    * ``delta2`` = second numerator and first denominator set.

    Counting forces ``|gamma1| == |delta1|`` and ``|gamma2| == |delta2|``.
    """

    rank: int
    core: tuple[int, ...]
    gamma1: tuple[int, ...]
    gamma2: tuple[int, ...]
    delta1: tuple[int, ...]
    delta2: tuple[int, ...]

    @property
    def omega(self) -> tuple[int, ...]:
        """All unshared indices, sorted."""
        return tuple(sorted(self.gamma1 + self.gamma2 + self.delta1 + self.delta2))

    @property
    def nu(self) -> int:
        """Number of unshared index pairs: rank minus the core size."""
        return self.rank - len(self.core)

    def ratio(self) -> RatioExpr:
        """The block form ``[gamma1 gamma2][delta1 delta2] / [gamma1 delta2]
        [delta1 gamma2]``, each bracket taken with ``core``: the one builder
        of every two-over-two ratio this module emits."""
        return RatioExpr(
            self.rank,
            (
                _bracket(self.rank, self.gamma1, self.gamma2, self.core),
                _bracket(self.rank, self.delta1, self.delta2, self.core),
            ),
            (
                _bracket(self.rank, self.gamma1, self.delta2, self.core),
                _bracket(self.rank, self.delta1, self.gamma2, self.core),
            ),
        )


@dataclass(frozen=True)
class ElementaryRatio:
    """``[i1,j2,core][i2,j1,core] / [i1,j1,core][i2,j2,core]`` with the four
    anchors pairwise distinct, disjoint from ``core``, and in cyclic order
    ``i1 < i2 < j1 < j2`` when read around the 2n-gon starting at ``i1``."""

    rank: int
    i1: int
    i2: int
    j1: int
    j2: int
    core: tuple[int, ...]

    def __post_init__(self):
        anchors = self.anchors
        _check_anchors(self.rank, anchors, self.core)
        offs = [(a - self.i1) % (2 * self.rank) for a in anchors]
        if not (offs[0] < offs[1] < offs[2] < offs[3]):
            raise InvalidInput(f"anchors not in cyclic order: {anchors}")

    @property
    def anchors(self) -> tuple[int, int, int, int]:
        return (self.i1, self.i2, self.j1, self.j2)

    def expr(self) -> RatioExpr:
        return Decomposition(
            self.rank, self.core, (self.i1,), (self.j2,), (self.i2,), (self.j1,)
        ).ratio()


@dataclass(frozen=True, order=True)
class BasicRatio:
    """Elementary ratio whose anchor pairs are adjacent on the 2n-gon:
    ``[i,j+1,core][i+1,j,core] / [i,j,core][i+1,j+1,core]`` (mod 2n).

    Stored with ``i < j``; swapping ``i`` and ``j`` names the same ratio.
    """

    rank: int
    i: int
    j: int
    core: tuple[int, ...]

    def __post_init__(self):
        n, i, j = self.rank, self.i, self.j
        _check_anchors(n, (i, _succ(n, i), j, _succ(n, j)), self.core)
        if not i < j:
            raise InvalidInput("use BasicRatio.of, which canonicalizes the pair order")

    @classmethod
    def of(cls, rank: int, i: int, j: int, core: tuple[int, ...] | frozenset[int]) -> "BasicRatio":
        i, j = sorted((i, j))
        return cls(rank, i, j, tuple(sorted(core)))

    def expr(self) -> RatioExpr:
        n, i, j = self.rank, self.i, self.j
        return Decomposition(
            n, self.core, (i,), (_succ(n, j),), (_succ(n, i),), (j,)
        ).ratio()

    def vector(self) -> ExponentVector:
        return ExponentVector.of_ratio(self.expr())

    def __str__(self) -> str:
        core = ",".join(map(str, self.core))
        return f"basic(i={self.i}, j={self.j}, core={{{core}}})"


@dataclass(frozen=True)
class TraceStep:
    """One node of the factorization tree: the rule applied, the ratio it was
    applied to, the measures at that node, and the factors produced."""

    rule: str
    ratio: RatioExpr
    measures: tuple[tuple[str, int], ...]
    factors: tuple[RatioExpr, ...]


@dataclass(frozen=True)
class FactorizationResult:
    """Certified factorization: the product of ``basics`` equals ``ratio``
    exactly (their exponent vectors cancel), and ``trace`` replays how."""

    ratio: RatioExpr
    basics: tuple[BasicRatio, ...]
    trace: tuple[TraceStep, ...]

    def vector_check(self) -> bool:
        """The basics' product, one ratio of all their brackets, has the
        exponent vector of ``ratio``."""
        exprs = [b.expr() for b in self.basics]
        product = RatioExpr(
            self.ratio.rank,
            tuple([s for e in exprs for s in e.numerator]),
            tuple([s for e in exprs for s in e.denominator]),
        )
        return ExponentVector.of_ratio(product) == ExponentVector.of_ratio(self.ratio)


# ---------------------------------------------------------------------------
# small helpers


def _succ(rank: int, e: int) -> int:
    return e % (2 * rank) + 1


def _check_anchors(rank: int, anchors: tuple[int, ...], core: tuple[int, ...]) -> None:
    """The facts an elementary or basic ratio shares: labels in ``[1, 2n]``,
    four distinct anchors, and a core of ``n - 2`` labels avoiding them."""
    labels = (*anchors, *core)
    if min(labels) < 1 or max(labels) > 2 * rank:
        raise InvalidInput(f"labels outside [1, {2 * rank}]: {anchors}, {core}")
    touched = set(anchors)
    if len(touched) != 4:
        raise InvalidInput(f"anchors must be distinct: {anchors}")
    if len(core) != rank - 2:
        raise InvalidInput(f"core must have {rank - 2} elements, got {core!r}")
    if touched.intersection(core):
        raise InvalidInput("core must avoid the anchors")


def _bracket(rank: int, *parts) -> IndexSet:
    return IndexSet.of(rank, itertools.chain.from_iterable(parts))


def _cyclic_arc(rank: int, a: int, b: int) -> tuple[int, ...]:
    """Labels from ``a`` forward to ``b`` inclusive, wrapping past 2n."""
    n2 = 2 * rank
    out = [a]
    while out[-1] != b:
        out.append(out[-1] % n2 + 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# decomposition and the small predicates


def decompose(ratio: RatioExpr) -> Decomposition:
    """Split a two-over-two ratio into core and intersection blocks.

    The blocks reassemble the four sets exactly when the counting screen
    passes; otherwise the block structure is meaningless, and the screen's
    witnessed `St0Violation` is raised.
    """
    if ratio.p != 2:
        raise InvalidInput(f"need exactly two sets per side, got {ratio.p}")
    a1, a2 = (set(s.elements) for s in ratio.numerator)
    b1, b2 = (set(s.elements) for s in ratio.denominator)
    core = a1 & a2
    dec = Decomposition(
        ratio.rank,
        tuple(sorted(core)),
        tuple(sorted((a1 & b1) - core)),
        tuple(sorted((a1 & b2) - core)),
        tuple(sorted((a2 & b2) - core)),
        tuple(sorted((a2 & b1) - core)),
    )
    g1, g2, d1, d2 = dec.gamma1, dec.gamma2, dec.delta1, dec.delta2
    reassembles = b1 & b2 == core and {*g1, *g2} | core == a1 and {*d1, *d2} | core == a2
    if not reassembles or len(g1) != len(d1) or len(g2) != len(d2):
        _require_st0(ratio)
        raise InvariantViolation("counting screen passed but the blocks do not reassemble")
    return dec


def _require_st0(ratio: RatioExpr) -> None:
    """Run the counting screen; raise its witnessed violation if it fails."""
    verdict = check_st0(ratio)
    if not verdict.holds:
        raise St0Violation(verdict.witness, verdict.numerator_count, verdict.denominator_count)


def _require_condition_m(ratio: RatioExpr) -> None:
    """Run the majorization screen; raise its witnessed violation if it fails."""
    verdict = check_condition_m(ratio)
    if not verdict.holds:
        raise ConditionMViolation(verdict.witness, verdict.m_numerator, verdict.m_denominator)


def is_trivial(ratio: RatioExpr) -> bool:
    """True when numerator and denominator agree as multisets of index sets."""
    if ratio.p != 2:
        raise InvalidInput(f"need exactly two sets per side, got {ratio.p}")
    return sorted(ratio.numerator) == sorted(ratio.denominator)


def interlaces(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the merged sort of the two equal-size sets alternates."""
    if len(a) != len(b):
        raise InvalidInput(f"sets differ in size: {a!r} vs {b!r}")
    merged = sorted([(e, 0) for e in a] + [(e, 1) for e in b])
    return all(x[1] != y[1] for x, y in zip(merged, merged[1:]))


def classify_elementary(ratio: RatioExpr) -> ElementaryRatio | None:
    """Recognize an elementary ratio among non-trivial ``nu == 2`` ratios.

    Up to rotating which anchor is called first, an elementary ratio places
    the numerator pairs on "opposite" anchors and the denominator pairs on
    "nested" ones; the two candidate rotations are tried in order and the
    match, if any, is the canonical stored form.  On this domain a ratio is
    elementary exactly when it passes the arc-majorization screen; the tests
    check that agreement on every such ratio up to rank 4.
    """
    dec = decompose(ratio)
    if dec.nu != 2:
        raise InvalidInput(f"classify_elementary needs nu == 2, got {dec.nu}")
    if is_trivial(ratio):
        raise InvalidInput("classify_elementary needs a non-trivial ratio")
    return _match_elementary(ratio, dec)


def _match_elementary(ratio: RatioExpr, dec: Decomposition) -> ElementaryRatio | None:
    core = set(dec.core)
    p1, p2, p3, p4 = dec.omega
    num = {frozenset(set(s.elements) - core) for s in ratio.numerator}
    den = {frozenset(set(s.elements) - core) for s in ratio.denominator}
    for i1, i2, j1, j2 in ((p1, p2, p3, p4), (p2, p3, p4, p1)):
        if num == {frozenset({i1, j2}), frozenset({i2, j1})} and den == {
            frozenset({i1, j1}),
            frozenset({i2, j2}),
        }:
            return ElementaryRatio(ratio.rank, i1, i2, j1, j2, dec.core)
    return None


def mu(elem: ElementaryRatio) -> int:
    """Core elements trapped inside the two anchor arcs."""
    trapped = set(_cyclic_arc(elem.rank, elem.i1, elem.i2)) | set(
        _cyclic_arc(elem.rank, elem.j1, elem.j2)
    )
    return len(set(elem.core) & trapped)


def delta_size(elem: ElementaryRatio) -> int:
    """Total size of the two anchor arcs; equals 4 exactly for basics."""
    return len(_cyclic_arc(elem.rank, elem.i1, elem.i2)) + len(
        _cyclic_arc(elem.rank, elem.j1, elem.j2)
    )


# ---------------------------------------------------------------------------
# elementary -> basics


def _exchange_jaws(elem: ElementaryRatio) -> ElementaryRatio:
    """Swap the roles of the (i1, i2) and (j1, j2) anchor pairs."""
    return ElementaryRatio(elem.rank, elem.j1, elem.j2, elem.i1, elem.i2, elem.core)


def _as_basic(elem: ElementaryRatio) -> BasicRatio | None:
    n = elem.rank
    if elem.i2 == _succ(n, elem.i1) and elem.j2 == _succ(n, elem.j1):
        return BasicRatio.of(n, elem.i1, elem.j1, elem.core)
    return None


def elementary_to_basics(elem: ElementaryRatio) -> FactorizationResult:
    """Reduce an elementary ratio to a product of basic ratios: the result's
    ratio is ``elem.expr()``, its basics sorted and its trace the rewrite.

    Two rewrite rules, each replacing the ratio by two factors whose
    exponent vectors sum to the original:

    * ``pull-core`` (when some core element lies inside an anchor arc):
      the core element nearest the arc start is promoted to an anchor in
      both factors, dropping ``mu`` by at least one.
    * ``step-anchor`` (core-free arcs but an arc longer than 2): the first
      anchor advances one step, dropping ``delta`` by at least one.

    The pair ``(mu, delta)`` strictly decreases lexicographically, so the
    rewrite terminates at basics.
    """
    basics: list[BasicRatio] = []
    trace: list[TraceStep] = []
    _reduce_elementary(elem, basics, trace)
    return FactorizationResult(elem.expr(), tuple(sorted(basics)), tuple(trace))


def _reduce_elementary(elem, basics, trace):
    n = elem.rank
    m, d = mu(elem), delta_size(elem)
    measures = (("mu", m), ("delta", d))
    b = _as_basic(elem)
    if b is not None:
        basics.append(b)
        trace.append(TraceStep("basic", elem.expr(), measures, ()))
        return
    core = set(elem.core)
    if m > 0:
        if not core & set(_cyclic_arc(n, elem.i1, elem.i2)):
            elem = _exchange_jaws(elem)
        i1, i2, j1, j2 = elem.anchors
        arc = _cyclic_arc(n, i1, i2)
        p = next(e for e in arc if e in core)  # nearest to i1 along the arc
        rest = tuple(sorted(core - {p}))
        left = ElementaryRatio(n, p, i2, j1, j2, tuple(sorted(rest + (i1,))))
        right = ElementaryRatio(n, i1, p, j1, j2, tuple(sorted(rest + (i2,))))
        rule = "pull-core"
    else:
        if elem.i2 == _succ(n, elem.i1):
            elem = _exchange_jaws(elem)
        i1, i2, j1, j2 = elem.anchors
        step = _succ(n, i1)
        left = ElementaryRatio(n, i1, step, j1, j2, elem.core)
        right = ElementaryRatio(n, step, i2, j1, j2, elem.core)
        rule = "step-anchor"
    trace.append(TraceStep(rule, elem.expr(), measures, (left.expr(), right.expr())))
    _reduce_elementary(left, basics, trace)
    _reduce_elementary(right, basics, trace)


# ---------------------------------------------------------------------------
# splitting ratios with nu >= 3


def _swap_numerators(dec: Decomposition) -> Decomposition:
    return Decomposition(
        dec.rank, dec.core, dec.delta2, dec.delta1, dec.gamma2, dec.gamma1
    )


def _swap_denominators(dec: Decomposition) -> Decomposition:
    return Decomposition(
        dec.rank, dec.core, dec.gamma2, dec.gamma1, dec.delta2, dec.delta1
    )


def _technical_pair(dec: Decomposition, pivot) -> tuple[RatioExpr, RatioExpr]:
    """The split identity: the left factor is ``dec`` with ``delta1``
    replaced by ``pivot``, the right factor is ``dec`` with ``gamma1``
    replaced by ``pivot``, and the brackets ``pivot ∪ delta2 ∪ core`` and
    ``pivot ∪ gamma2 ∪ core`` they insert cancel between them."""
    return replace(dec, delta1=pivot).ratio(), replace(dec, gamma1=pivot).ratio()


def _parity_pivot(dec: Decomposition) -> tuple[int, ...]:
    """Pivot of the split along odd/even positions of ``gamma1 ∪ delta1``.

    Applicable when those two blocks do not interlace, which guarantees all
    four sub-blocks below are non-empty.
    """
    merged = sorted(dec.gamma1 + dec.delta1)
    odd = set(merged[0::2])
    g11 = tuple(e for e in dec.gamma1 if e in odd)
    g12 = tuple(e for e in dec.gamma1 if e not in odd)
    d12 = tuple(e for e in dec.delta1 if e in odd)
    d11 = tuple(e for e in dec.delta1 if e not in odd)
    if not (g11 and g12 and d11 and d12):
        raise InvariantViolation("parity split on interlacing blocks")
    return g11 + d12


def _agreeable_relabel(dec: Decomposition) -> Decomposition:
    """Normalize so the first denominator block set ``gamma1 ∪ delta2`` takes
    the odd positions of the unshared indices and the smallest unshared index
    sits in ``gamma1``.  Denominator swap is resolved before numerator swap."""
    omega = dec.omega
    odd = set(omega[0::2])
    if set(dec.gamma1) | set(dec.delta2) != odd:
        dec = _swap_denominators(dec)
    if set(dec.gamma1) | set(dec.delta2) != odd:
        raise InvariantViolation("neither denominator labeling occupies odd positions")
    if omega[0] not in dec.gamma1:
        dec = _swap_numerators(dec)
    if omega[0] not in dec.gamma1:
        raise InvariantViolation("smallest unshared index in neither numerator block")
    return dec


def _leading_run(positions: tuple[int, ...], inside: tuple[int, ...]) -> int:
    """Length of the initial run of ``positions`` contained in ``inside``."""
    member = set(inside)
    count = 0
    for e in positions:
        if e not in member:
            break
        count += 1
    return count


def _split_interlaced(dec: Decomposition) -> tuple[Decomposition, tuple[int, ...], str]:
    """Split when both block pairs interlace, after agreeable relabeling;
    returns the relabelled blocks, the pivot and the rule.

    Branches on whether the second unshared index sits in ``delta1`` or in
    ``gamma2``; each branch peels either a leading pair or a leading block.
    In the degenerate shapes, where the generic peel would not shrink ``nu``,
    the ``-chain`` rules pivot through a single index and a tail instead.
    """
    dec = _agreeable_relabel(dec)
    omega = dec.omega
    odd, even = omega[0::2], omega[1::2]
    g1, g2, d1, d2 = dec.gamma1, dec.gamma2, dec.delta1, dec.delta2

    if omega[1] in d1:
        k = _leading_run(odd, g1)
        l = _leading_run(even, d1)
        if l not in (k, k - 1):
            raise InvariantViolation(f"unexpected leading runs k={k}, l={l}")
        if l == k:
            if len(g1) == 1:
                # g1 and d1 are singletons; peel the first two indices off
                # through {omega[3]} ∪ (odd tail).
                return _swap_denominators(dec), (omega[3],) + odd[2:], "head-chain"
            g11, d11 = (omega[0],), (omega[1],)
        else:
            g11 = odd[1:k]
            d11 = even[:l]
        d12 = tuple(e for e in d1 if e not in d11)
        return dec, g11 + d12, "head-pair" if l == k else "head-block"

    # omega[1] in g2: the third unshared index must open delta2.
    if omega[2] not in d2:
        raise InvariantViolation("expected the third unshared index in delta2")
    if len(g1) == 1:
        # d1 is a singleton at the top; pivot through {omega[2]} ∪ (even body).
        return _swap_numerators(dec), (omega[2],) + even[1:-1], "second-chain"
    k = _leading_run(odd[1:], d2) + 1
    l = _leading_run(even, g2)
    if l != k - 1:
        raise InvariantViolation(f"unexpected leading runs k={k}, l={l}")
    g22 = tuple(e for e in g2 if e != omega[1])
    if not g22:
        # g2 and d2 are singletons; pivot through {omega[4]} ∪ (even tail).
        return dec, (omega[4],) + even[2:], "second-chain-tail"
    return _swap_denominators(dec), (omega[2],) + g22, "second-pair"


def split_once(ratio: RatioExpr) -> TraceStep:
    """Rewrite a screened ratio with ``nu >= 3`` as a product of two screened
    ratios with strictly smaller ``nu``: the `TraceStep` that
    `factor_to_basics` records for this node, its factors the two ratios.

    Dispatch order is fixed: the parity split on ``gamma1/delta1`` first,
    then on ``gamma2/delta2`` (after swapping numerator labels), then the
    interlaced branches.  The input is screened here; that both factors pass
    the screen, shrink ``nu`` and multiply back to the input is what the
    rules guarantee, and the tests check it on every split at rank 4.
    """
    dec = decompose(ratio)
    _require_condition_m(ratio)
    if dec.nu < 3:
        raise InvalidInput(f"split_once needs nu >= 3, got {dec.nu}")
    return _split(ratio, dec)


def _split(ratio: RatioExpr, dec: Decomposition) -> TraceStep:
    if not interlaces(dec.gamma1, dec.delta1):
        pivot, rule = _parity_pivot(dec), "parity"
    elif not interlaces(dec.gamma2, dec.delta2):
        dec = _swap_numerators(dec)
        pivot, rule = _parity_pivot(dec), "parity-swapped"
    else:
        dec, pivot, rule = _split_interlaced(dec)
    return TraceStep(rule, ratio, (("nu", dec.nu),), _technical_pair(dec, pivot))


# ---------------------------------------------------------------------------
# the full pipeline


def factor_to_basics(ratio: RatioExpr) -> FactorizationResult:
    """Factor a two-over-two ratio into basic ratios, or raise the witnessed
    screen violation that proves no factorization exists."""
    if ratio.p > 2:
        raise InvalidInput(f"factorization handles at most two sets per side, got {ratio.p}")
    if ratio.p < 2:
        pads = (base_set(ratio.rank),) * (2 - ratio.p)
        ratio = RatioExpr(ratio.rank, ratio.numerator + pads, ratio.denominator + pads)
    _require_st0(ratio)
    _require_condition_m(ratio)
    basics: list[BasicRatio] = []
    trace: list[TraceStep] = []
    _factor(ratio, basics, trace)
    result = FactorizationResult(ratio, tuple(sorted(basics)), tuple(trace))
    if not result.vector_check():
        raise InvariantViolation("basics do not multiply back to the input")
    return result


def _factor(ratio: RatioExpr, basics, trace):
    dec = decompose(ratio)
    measures = (("nu", dec.nu),)
    if is_trivial(ratio):
        trace.append(TraceStep("trivial", ratio, measures, ()))
        return
    if dec.nu <= 1:
        raise InvariantViolation("non-trivial screened ratio with nu <= 1")
    if dec.nu == 2:
        elem = _match_elementary(ratio, dec)
        if elem is None:
            raise InvariantViolation("screened nu == 2 ratio is not elementary")
        trace.append(TraceStep("elementary", ratio, measures, (elem.expr(),)))
        _reduce_elementary(elem, basics, trace)
        return
    step = _split(ratio, dec)
    trace.append(step)
    for factor in step.factors:
        _factor(factor, basics, trace)


def basic_ratio_count(rank: int) -> int:
    """Number of basic ratios, ``n(2n-3) * C(2n-4, n-2)``: pairs of disjoint
    adjacent label pairs on the 2n-gon times the choices for the core.  The
    2-gon of rank 1 has no two disjoint adjacent pairs, so no basic ratio."""
    if rank < 1:
        raise InvalidInput("basic ratios need rank >= 1")
    if rank > MAX_COUNTED_RANK:
        raise BudgetExceeded(f"counting basic ratios is budgeted to rank {MAX_COUNTED_RANK}")
    return rank * (2 * rank - 3) * comb(2 * rank - 4, rank - 2) if rank > 1 else 0


def basic_ratios_all(rank: int) -> list[BasicRatio]:
    """All canonical basic ratios, deduplicated under the i/j swap, within
    the `MAX_LISTED_BASICS` budget."""
    count = basic_ratio_count(rank)
    if count > MAX_LISTED_BASICS:
        raise BudgetExceeded(
            f"rank {rank} has {count} basic ratios; listing is budgeted to "
            f"{MAX_LISTED_BASICS}"
        )
    n2 = 2 * rank
    out = []
    for i in range(1, n2 + 1):
        for j in range(i + 1, n2 + 1):
            touched = (i, _succ(rank, i), j, _succ(rank, j))
            if len(set(touched)) != 4:
                continue
            rest = [e for e in range(1, n2 + 1) if e not in touched]
            for core in itertools.combinations(rest, rank - 2):
                out.append(BasicRatio(rank, i, j, core))
    return out
