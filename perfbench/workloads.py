"""Seeded query streams, per-workload recipes, and output checks.

A query is one ratio text.  Each workload's stream is a sequence of
fixed-composition *rounds*: every round holds the same number of queries
from each stratum (rank, arity, screen outcome, and for failing survey
ratios their falsify outcome), drawn uniformly inside the stratum from a
`random.Random` seeded by the seed.  Fixing the composition keeps
seed-to-seed differences down to the draws inside each stratum.

At run time the generator uses only the library's public enumerations,
screens and symmetries (`all_index_sets`, `check_st0`,
`check_condition_m`, `cyclic_shift_ratio`, `reversal_ratio`) and the two
committed pools that `calibrate.py` writes.  The recipes call the library
through module attributes (`cli.parse_ratio`, `witnesses.falsify`, ...) so
that the span recorder in `tracer.py` sees every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from tpratio import cli, combinatorics, conelab, factorizer, polycheck
from tpratio.combinatorics import (
    IndexSet,
    RatioExpr,
    all_index_sets,
    check_condition_m,
    check_st0,
    cyclic_shift_ratio,
    reversal_ratio,
)
from tpratio.conelab import InCone, Outside
from tpratio.factorizer import FactorizationResult
from tpratio.tpcore import witnesses
from tpratio.tpcore.witnesses import Evidence, Inconclusive

# The paper's majorization-passing ratio that is outside the basic cone
# and unbounded on an explicit 4 x 4 family.
UNBOUNDED = "[1,2,3,8][2,3,4,5][4,6,7,8]/[1,4,6,8][2,3,4,8][2,3,5,7]"
# Both written by `calibrate.py`: screen-failing survey ratios labelled by
# their falsify outcome, and screen-passing rank-4 ratios with their cone
# verdicts.
SURVEY_POOL_FILE = "survey_pool.tsv"
RANK4_POOL_FILE = "rank4_pool.tsv"


@dataclass(frozen=True)
class Query:
    text: str
    stratum: str  # e.g. "r4/2x2/fail/degree_gap"; never shown to the library
    screens_pass: bool
    cone: str | None = None  # committed cone verdict: "in_cone", "outside" or unknown


# ---------------------------------------------------------------------------
# ratio draws


def draw_2x2(rng: random.Random, rank: int, sets: list[IndexSet]) -> RatioExpr:
    """Uniform over ordered two-over-two ST0 tuples ``(a, b, c, d)`` that are
    not identically 1.  For a numerator pair sharing ``rank - m`` labels
    there are ``C(2m, m)`` ways to split the rest into a denominator, so the
    pair is accepted with that weight; two of those splits reproduce the
    numerator, and are redrawn."""
    while True:
        a, b = rng.choice(sets), rng.choice(sets)
        shared = set(a.elements) & set(b.elements)
        m = rank - len(shared)
        if rng.random() * comb(2 * rank, rank) >= comb(2 * m, m):
            continue
        singles = sorted(set(a.elements) ^ set(b.elements))
        pick = set(rng.sample(singles, m))
        c = IndexSet.of(rank, shared | pick)
        d = IndexSet.of(rank, shared | (set(singles) - pick))
        if {c, d} == {a, b}:
            continue
        ratio = RatioExpr(rank, (a, b), (c, d))
        if not check_st0(ratio).holds:
            raise AssertionError(f"generator produced a non-ST0 ratio {ratio}")
        return ratio


def draw_3x3(rng: random.Random, rank: int) -> RatioExpr:
    """A screen-passing three-over-three ratio with no index set on both
    sides (so it does not reduce to a smaller arity), sampled as the census
    test does: random numerator, denominator from a reshuffled label pool."""
    labels = list(range(1, 2 * rank + 1))
    while True:
        num = [IndexSet.of(rank, rng.sample(labels, rank)) for _ in range(3)]
        pool = sorted(e for s in num for e in s)
        rng.shuffle(pool)
        parts = [pool[k * rank : (k + 1) * rank] for k in range(3)]
        if any(len(set(p)) != rank for p in parts):
            continue
        den = [IndexSet.of(rank, p) for p in parts]
        if set(num) & set(den):
            continue
        ratio = RatioExpr(rank, tuple(num), tuple(den))
        if check_st0(ratio).holds and check_condition_m(ratio).holds:
            return ratio


def unbounded_orbit() -> list[RatioExpr]:
    """The 8 rotations of `UNBOUNDED`, then their 8 mirror images: 16
    distinct ratios, all outside the cone and all unbounded.  The order is
    fixed, not seeded, so every run meets the same orbit members: their
    solve times differ by up to 2x, and a seeded choice among them would
    add that spread to every run."""
    rotations = [cli.parse_ratio(UNBOUNDED)]
    while len(rotations) < 2 * rotations[0].rank:
        rotations.append(cyclic_shift_ratio(rotations[-1]))
    return rotations + [reversal_ratio(r) for r in rotations]


def load_pool(name: str) -> dict[str, list[tuple[str, str]]]:
    """A committed pool: first column -> [(ratio text, second column)]."""
    pool: dict[str, list[tuple[str, str]]] = {}
    for line in (Path(__file__).resolve().parent / name).read_text().splitlines():
        key, label, text = line.split("\t")
        pool.setdefault(key, []).append((text, label))
    return pool


class _Strata:
    """Draws for one workload and seed; `draw(stratum)` returns one `Query`.

    * ``rN/2x2/pass``: a fresh uniform draw among the screen-passing
      two-over-two ratios of rank N;
    * ``rN/2x2/fail/<label>``: the ratios of rank N with that label in the
      survey pool;
    * ``r4/3x3/pool``, ``r4/2x2/pool``: the ratios of that arity in the
      rank-4 pool, drawn with a key that does not name the workload, so
      that `cone-r4` and `falsify-r4` meet the same pool members at the
      same seed;
    * ``orbit``: the members of the unbounded orbit, in a fixed order.

    Pool strata are drawn without replacement: each goes through a seeded
    shuffle of its members, and reshuffles when it runs out.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rngs: dict[str, random.Random] = {}
        self.left: dict[str, list[tuple[str, str]]] = {}
        self.pools: dict[str, dict[str, list[tuple[str, str]]]] = {}
        self.sets: dict[int, list[IndexSet]] = {}
        self.orbit = [(str(r), "outside") for r in unbounded_orbit()]

    def _rng(self, key: str) -> random.Random:
        if key not in self.rngs:
            self.rngs[key] = random.Random(f"{key}/{self.seed}")
        return self.rngs[key]

    def _members(self, stratum: str) -> list[tuple[str, str]]:
        """All (ratio text, label) pairs of a pool stratum, in pool order."""
        if stratum == "orbit":
            return self.orbit
        rank_part, arity, screen, *label = stratum.split("/")
        name = RANK4_POOL_FILE if screen == "pool" else SURVEY_POOL_FILE
        if name not in self.pools:
            self.pools[name] = load_pool(name)
        if screen == "pool":
            return self.pools[name][arity]
        return [m for m in self.pools[name][rank_part[1:]] if m[1] == label[0]]

    def _next(self, stratum: str, key: str) -> tuple[str, str]:
        if not self.left.get(stratum):
            members = self._members(stratum)
            if stratum == "orbit":
                self.left[stratum] = members[::-1]
            else:
                self.left[stratum] = self._rng(key).sample(members, len(members))
        return self.left[stratum].pop()

    def draw(self, stratum: str) -> Query:
        rank_part, *rest = stratum.split("/")
        if stratum == "orbit" or rest[1] == "pool":
            text, verdict = self._next(stratum, f"rank4-pool/{stratum}")
            return Query(text, stratum, True, verdict)
        key = f"{self.workload}/{stratum}"
        if rest[1] == "fail":
            return Query(self._next(stratum, key)[0], stratum, False)
        rank = int(rank_part[1:])
        if rank not in self.sets:
            self.sets[rank] = all_index_sets(rank)
        while True:
            ratio = draw_2x2(self._rng(key), rank, self.sets[rank])
            if check_condition_m(ratio).holds:
                return Query(str(ratio), stratum, True)


def stream(workload: "Workload", seed: int, count: int) -> list[Query]:
    """The first ``count`` queries of the workload's seeded stream: whole
    rounds, in order, cut after ``count`` queries."""
    strata = _Strata(workload.name, seed)
    composition = workload.round()
    out: list[Query] = []
    while len(out) < count:
        out += [strata.draw(s) for s in composition]
    return out[:count]


# ---------------------------------------------------------------------------
# recipes: one query text in, one outcome out


def survey_recipe(text: str):
    """Screens, then a certified factorization or a falsification attempt."""
    ratio = cli.parse_ratio(text)
    if combinatorics.check_st0(ratio).holds and combinatorics.check_condition_m(ratio).holds:
        return factorizer.factor_to_basics(ratio)
    return witnesses.falsify(ratio)


@dataclass(frozen=True)
class ConeOutcome:
    verdict: InCone | Outside
    verified: bool
    subtraction_free: polycheck.SubtractionFreeVerdict | None = None
    terms: int = 0  # terms of the difference polynomial, Outside only


def cone_recipe(text: str) -> ConeOutcome:
    """The census step: cone verdict, independent re-check, and for
    verdicts outside the cone the subtraction-freeness test."""
    ratio = cli.parse_ratio(text)
    vector = conelab.ratio_to_vector(ratio)
    verdict = conelab.cone_membership(vector, ratio.rank)
    verified = conelab.verify_certificate(vector, verdict, ratio.rank)
    if isinstance(verdict, InCone):
        return ConeOutcome(verdict, verified)
    poly = polycheck.ratio_difference_poly(ratio)
    return ConeOutcome(verdict, verified, polycheck.is_subtraction_free(poly), len(poly.terms))


def falsify_recipe(text: str):
    return witnesses.falsify(cli.parse_ratio(text))


# ---------------------------------------------------------------------------
# outcome digest and checks


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def summarize(outcome) -> str:
    """Exact, canonical text of an outcome, for the verdict digest."""
    if isinstance(outcome, FactorizationResult):
        return "factor " + " ".join(str(b) for b in outcome.basics)
    if isinstance(outcome, Evidence):
        trace = " ".join(f"{_frac(t)}:{_frac(v)}" for t, v in outcome.trace)
        return f"evidence {outcome.family} {outcome.detail} {trace}"
    if isinstance(outcome, Inconclusive):
        return "inconclusive " + "; ".join(outcome.attempts)
    if isinstance(outcome, ConeOutcome):
        if isinstance(outcome.verdict, InCone):
            body = " ".join(f"{b}*{_frac(c)}" for b, c in outcome.verdict.coefficients)
            text = f"in_cone {body}"
        else:
            body = " ".join(f"{s}*{_frac(y)}" for s, y in outcome.verdict.certificate)
            sf = outcome.subtraction_free
            text = f"outside {body} subfree={sf.subtraction_free} {sf.witness} {sf.witness_coefficient}"
        return f"{text} verified={outcome.verified}"
    raise TypeError(f"unknown outcome {outcome!r}")


def outcome_kind(outcome) -> str:
    """Short label used for outcome counts."""
    if isinstance(outcome, FactorizationResult):
        return "factorization"
    if isinstance(outcome, Evidence):
        return "evidence." + outcome.family.replace("-", "_")
    if isinstance(outcome, Inconclusive):
        return "inconclusive"
    return "in_cone" if isinstance(outcome.verdict, InCone) else "outside"


def canonical(text: str) -> str:
    """The ratio text with each side's terms sorted."""
    sides = text.split("/")
    return "/".join("".join(sorted(t + "]" for t in side.split("]") if t)) for side in sides)


def check(query: Query, outcome) -> str | None:
    """Output checks on one query; returns what failed, or None.

    * every factorization passes `vector_check`;
    * every cone verdict passes `verify_certificate` and equals the
      committed verdict for its ratio (the pool's, or `Outside` for the
      unbounded orbit);
    * no ratio whose committed verdict is `InCone` gets `Evidence`, and no
      screen-passing two-over-two ratio does (the paper's theorem factors
      every one of them);
    * no screen-failing ratio gets a factorization or `InCone`;
    * every `Evidence` peaks above its threshold.
    """
    if isinstance(outcome, FactorizationResult):
        if not query.screens_pass:
            return "screen-failing ratio got a factorization"
        if not outcome.vector_check():
            return "factorization fails vector_check"
    if isinstance(outcome, ConeOutcome):
        if not outcome.verified:
            return "cone verdict fails verify_certificate"
        kind = outcome_kind(outcome)
        if query.cone is not None and kind != query.cone:
            return f"cone verdict {kind} differs from the committed {query.cone}"
        if kind == "in_cone" and not query.screens_pass:
            return "screen-failing ratio got InCone"
    if isinstance(outcome, Evidence):
        if outcome.peak <= outcome.threshold:
            return "Evidence does not peak above its threshold"
        if query.cone == "in_cone":
            return "ratio inside the cone got Evidence"
        if query.screens_pass and "/2x2/" in query.stratum:
            return "screen-passing two-over-two ratio got Evidence"
    return None


class Digest:
    """SHA-256 over (query text, outcome summary) pairs, in query order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, text: str, summary: str) -> None:
        self._hash.update(f"{text} => {summary}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# ---------------------------------------------------------------------------
# the workload list


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: Callable[[str], object]
    round: Callable[[], tuple[str, ...]]  # strata of one round, in stream order
    tail_percentile: float  # leaves >= 10 samples beyond it in a run, where it can
    stream_qps: float  # queries generated per measured second; the stream repeats after
    traced_qps: float  # queries per ``--seconds`` in the fixed list of a traced run


# Share of uniform two-over-two ST0 draws (`draw_2x2`) that pass condition M,
# per rank, from 20,000 draws per rank (`calibrate.py --shares`).
SCREEN_PASS_SHARE = {3: 0.2797, 4: 0.2034, 5: 0.1369}
SURVEY_PER_RANK = 50  # queries per rank in one survey round


def interleave(counts: dict[str, int]) -> tuple[str, ...]:
    """One round holding ``counts[s]`` queries of each stratum ``s``, each
    stratum's queries spread evenly over the round, so that a run that
    ends inside a round still has close to the round's mix."""
    slots = [((k + 0.5) / n, i, s) for i, (s, n) in enumerate(counts.items()) for k in range(n)]
    return tuple(s for _, _, s in sorted(slots))


def survey_round() -> tuple[str, ...]:
    """Uniform over ranks 3-5.  Inside a rank, passing and failing the
    screens in their measured proportion, and the failing ratios split by
    falsify outcome in the proportions of the survey pool (largest
    remainders get the rounding)."""
    pool = load_pool(SURVEY_POOL_FILE)
    counts = {}
    for rank, share in SCREEN_PASS_SHARE.items():
        passing = round(SURVEY_PER_RANK * share)
        counts[f"r{rank}/2x2/pass"] = passing
        labels = [x for _, x in pool[str(rank)]]
        failing = SURVEY_PER_RANK - passing
        exact = {x: failing * labels.count(x) / len(labels) for x in sorted(set(labels))}
        whole = {x: int(v) for x, v in exact.items()}
        for x in sorted(exact, key=lambda x: whole[x] - exact[x])[: failing - sum(whole.values())]:
            whole[x] += 1
        counts.update({f"r{rank}/2x2/fail/{x}": n for x, n in whole.items() if n})
    return interleave(counts)


WORKLOADS = (
    # Screens, then factor_to_basics or falsify: the exhaustive-survey
    # traffic.  Rank 3 is cheap; rank 4 carries the counterexample-sweep
    # tail and rank 5 the random-search and Inconclusive tail.
    Workload(
        "survey-2x2",
        survey_recipe,
        survey_round,
        tail_percentile=95,
        stream_qps=12,
        traced_qps=4,
    ),
    # The census step at rank 4.  Two thirds of the queries are orbit
    # members (long Farkas solves) so that the median and the tail both
    # fall inside that cluster; a 30 s run holds only ~13 queries, too few for
    # a steady median among the widely spread InCone solves.
    Workload(
        "cone-r4",
        cone_recipe,
        lambda: ("orbit", "orbit", "r4/3x3/pool", "orbit", "orbit", "r4/2x2/pool"),
        tail_percentile=75,
        stream_qps=3,
        traced_qps=0.25,
    ),
    # The falsifier's worst case: bounded inputs sweep all 16 symmetries of
    # the counterexample family and end Inconclusive; orbit members stop at
    # the symmetry that matches.
    Workload(
        "falsify-r4",
        falsify_recipe,
        lambda: ("orbit", "r4/3x3/pool", "orbit", "r4/2x2/pool"),
        tail_percentile=67,
        stream_qps=4,
        traced_qps=0.6,
    ),
)
