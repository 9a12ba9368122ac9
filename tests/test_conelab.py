"""Cone membership, Farkas certificates, and their independent verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpratio import conelab
from tpratio.combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    all_index_sets,
    cyclic_shift_ratio,
)
from tpratio.conelab import (
    InCone,
    Outside,
    cone_membership,
    ratio_to_vector,
    verify_certificate,
)
from tpratio.errors import BudgetExceeded, InvalidInput, InvariantViolation
from tpratio.factorizer import (
    BasicRatio,
    ElementaryRatio,
    basic_ratios_all,
    elementary_to_basics,
    factor_to_basics,
)
from tpratio.tpcore import eval_ratio, random_tp

import util


def iset(n, *elems):
    return IndexSet.of(n, elems)


def ratio(n, num, den):
    return RatioExpr.of(
        n, [IndexSet.of(n, s) for s in num], [IndexSet.of(n, s) for s in den]
    )


class TestRatioToVector:
    def test_trivial_is_zero(self):
        assert ratio_to_vector(ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)])).is_zero

    def test_basic_vector(self):
        vec = ratio_to_vector(BasicRatio.of(2, 1, 3, ()).expr())
        assert vec.as_dict() == {
            iset(2, 1, 4): 1,
            iset(2, 2, 3): 1,
            iset(2, 1, 3): -1,
            iset(2, 2, 4): -1,
        }

    def test_cancellation(self):
        vec = ratio_to_vector(ratio(2, [(1, 2), (1, 2)], [(1, 2), (3, 4)]))
        assert vec.as_dict() == {iset(2, 1, 2): 1, iset(2, 3, 4): -1}


class TestMembership:
    def test_generator_gets_unit_coefficient(self):
        # the simplex itself lands on the generator: every one at ranks 2-3,
        # a seeded 20 of the 120 at rank 4
        rank4 = random.Random(0).sample(basic_ratios_all(4), 20)
        for rank, basics in ((2, basic_ratios_all(2)), (3, basic_ratios_all(3)), (4, rank4)):
            for b in basics:
                verdict = cone_membership(b.vector(), rank)
                assert verdict == InCone(((b, Fraction(1)),)), b
                assert verify_certificate(b.vector(), verdict, rank)

    def test_elementary_in_cone(self):
        e = ElementaryRatio(3, 1, 2, 4, 6, (3,))
        vec = ExponentVector.of_ratio(e.expr())
        verdict = cone_membership(vec, 3)
        assert isinstance(verdict, InCone)
        assert verify_certificate(vec, verdict, 3)
        # the deterministic solver lands on the same two unit generators the
        # elementary reduction produces
        assert verdict.coefficients == (
            (BasicRatio.of(3, 1, 4, (3,)), Fraction(1)),
            (BasicRatio.of(3, 1, 5, (3,)), Fraction(1)),
        )
        basics, _ = elementary_to_basics(e)
        alternative = InCone(tuple((b, Fraction(1)) for b in sorted(basics)))
        assert verify_certificate(vec, alternative, 3)

    def test_bland_rule_picks_the_combination(self):
        # the cone holds more than one combination for this vector; entering
        # on the smallest index with a negative reduced cost picks this one
        vec = ratio_to_vector(ratio(3, [(1, 2, 5), (3, 4, 6)], [(1, 3, 5), (2, 4, 6)]))
        assert cone_membership(vec, 3) == InCone(
            (
                (BasicRatio.of(3, 2, 4, (1,)), Fraction(1)),
                (BasicRatio.of(3, 2, 6, (4,)), Fraction(1)),
            )
        )

    def test_negated_basic_outside(self):
        vec = -BasicRatio.of(2, 1, 3, ()).vector()
        verdict = cone_membership(vec, 2)
        assert isinstance(verdict, Outside)
        assert verify_certificate(vec, verdict, 2)

    def test_zero_vector(self):
        verdict = cone_membership(ExponentVector.zero(3), 3)
        assert verdict == InCone(())
        assert verify_certificate(ExponentVector.zero(3), verdict, 3)

    def test_deterministic(self):
        vec = ratio_to_vector(ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]))
        assert cone_membership(vec, 3) == cone_membership(vec, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            cone_membership(ExponentVector.zero(5), 5)

    @pytest.mark.parametrize("rank", [2, 4])
    @pytest.mark.parametrize("swap", [False, True])  # an InCone and an Outside verdict
    def test_rank_mismatch(self, rank, swap):
        num, den = [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]
        vec = ratio_to_vector(ratio(3, den, num) if swap else ratio(3, num, den))
        verdict = cone_membership(vec, 3)
        assert isinstance(verdict, Outside if swap else InCone)
        with pytest.raises(InvalidInput, match=f"rank {rank} does not match"):
            cone_membership(vec, rank)
        with pytest.raises(InvalidInput, match=f"rank {rank} does not match"):
            verify_certificate(vec, verdict, rank)


@st.composite
def exponent_vectors(draw):
    """0-6 index sets at rank 2 or 3, entries in -3..3: mostly outside the
    generators' span, with negative right-hand sides."""
    rank = draw(st.sampled_from([2, 3]))
    keys = st.sampled_from(all_index_sets(rank))
    counts = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=6))
    return ExponentVector.from_counts(rank, counts)


@settings(deadline=None)
@given(exponent_vectors())
def test_any_vector_gets_a_verified_verdict(vec):
    assert verify_certificate(vec, cone_membership(vec, vec.rank), vec.rank)


class TestVerification:
    def test_tampered_coefficient_rejected(self):
        e = ElementaryRatio(3, 1, 2, 4, 6, (3,))
        vec = ExponentVector.of_ratio(e.expr())
        verdict = cone_membership(vec, 3)
        assert isinstance(verdict, InCone)
        (b0, c0), *rest = verdict.coefficients
        tampered = InCone(((b0, c0 + 1), *rest))
        assert not verify_certificate(vec, tampered, 3)

    def test_tampered_functional_rejected(self):
        vec = -BasicRatio.of(2, 1, 3, ()).vector()
        verdict = cone_membership(vec, 2)
        assert isinstance(verdict, Outside)
        flipped = Outside(tuple((s, -c) for s, c in verdict.certificate))
        assert not verify_certificate(vec, flipped, 2)

    def test_negative_coefficient_rejected(self):
        b = BasicRatio.of(2, 1, 3, ())
        bad = InCone(((b, Fraction(-1)),))
        assert not verify_certificate(-b.vector(), bad, 2)


class TestCoherenceWithFactorizer:
    def test_screened_ratios_in_cone_with_alternative_certificate(self):
        rng = random.Random(0)
        from tpratio.combinatorics import check_condition_m

        screened = [r for r in util.st0_ratios(3) if check_condition_m(r).holds]
        for r in rng.sample(screened, 40):
            vec = ratio_to_vector(r)
            verdict = cone_membership(vec, 3)
            assert isinstance(verdict, InCone)
            assert verify_certificate(vec, verdict, 3)
            res = factor_to_basics(r)
            counts: dict[BasicRatio, Fraction] = {}
            for b in res.basics:
                counts[b] = counts.get(b, Fraction(0)) + 1
            alternative = InCone(tuple(sorted(counts.items())))
            assert verify_certificate(vec, alternative, 3)

    def test_in_cone_value_bounded_by_one(self):
        rng = random.Random(1)
        ratios = util.st0_ratios(3)
        matrices = [random_tp(3, seed) for seed in range(5)]
        for r in rng.sample(ratios, 30):
            verdict = cone_membership(ratio_to_vector(r), 3)
            if isinstance(verdict, InCone):
                for m in matrices:
                    assert eval_ratio(m, r) <= 1

    def test_unbounded_counterexample_is_outside(self):
        # screen-passing yet unbounded, so it cannot be a product of basics;
        # the solver must produce a verifiable separating functional
        r = ratio(
            4,
            [(1, 2, 3, 8), (2, 3, 4, 5), (4, 6, 7, 8)],
            [(1, 4, 6, 8), (2, 3, 4, 8), (2, 3, 5, 7)],
        )
        vec = ratio_to_vector(r)
        verdict = cone_membership(vec, 4)
        assert isinstance(verdict, Outside)
        assert verify_certificate(vec, verdict, 4)


# ---------------------------------------------------------------------------
# differential test of the integer-row solver


def fraction_phase_one(rows, rhs, n_cols):
    """The former solver, kept as the oracle: the same phase-one simplex
    with every tableau entry a `Fraction`, same signature and payload as
    `conelab._phase_one`."""
    rows = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    rhs = [Fraction(b) for b in rhs]
    n_rows = len(rows)
    last = n_cols + n_rows
    signs = [-1 if b < 0 else 1 for b in rhs]
    tableau = []
    for i, (row, b, sign) in enumerate(zip(rows, rhs, signs)):
        flipped = {j: sign * v for j, v in row.items()}
        flipped[n_cols + i] = Fraction(1)
        if b:
            flipped[last] = sign * b
        tableau.append(flipped)
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

    if last not in objective:
        return True, {
            var: row[last] for var, row in zip(basis, tableau) if var < n_cols and last in row
        }
    return False, [
        sign * (Fraction(1) - objective.get(n_cols + i, 0)) for i, sign in enumerate(signs)
    ]


def _eliminate(row, pivot_row, entering):
    f = row[entering]
    for j, v in pivot_row.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]


UNBOUNDED = ratio(
    4,
    [(1, 2, 3, 8), (2, 3, 4, 5), (4, 6, 7, 8)],
    [(1, 4, 6, 8), (2, 3, 4, 8), (2, 3, 5, 7)],
)


def _random_3over3(rng: random.Random) -> RatioExpr:
    """A rank-4 three-over-three ST0 ratio: three random numerator sets and
    a random split of their labels into three denominator sets."""
    labels = list(range(1, 9))
    nums = [rng.sample(labels, 4) for _ in range(3)]
    pool = [e for s in nums for e in s]
    while True:
        rng.shuffle(pool)
        dens = [pool[0:4], pool[4:8], pool[8:12]]
        if all(len(set(d)) == 4 for d in dens):
            return ratio(4, nums, dens)


def _queries(family):
    if family == "st0-rank3":
        return [(ratio_to_vector(r), 3) for r in util.st0_ratios(3)]
    if family == "generators":
        return [(b.vector(), rank) for rank in (2, 3, 4) for b in basic_ratios_all(rank)]
    if family == "unbounded-orbit":  # the two fastest of 16 for the oracle
        members = [UNBOUNDED, cyclic_shift_ratio(cyclic_shift_ratio(UNBOUNDED))]
        return [(ratio_to_vector(r), 4) for r in members]
    rng = random.Random(10)
    return [(ratio_to_vector(_random_3over3(rng)), 4) for _ in range(6)]


@pytest.mark.parametrize("family", ["st0-rank3", "generators", "unbounded-orbit", "sampled-3x3"])
def test_integer_rows_match_the_fraction_solver(monkeypatch, family):
    queries = _queries(family)
    verdicts = [repr(cone_membership(vec, rank)) for vec, rank in queries]
    monkeypatch.setattr(conelab, "_phase_one", fraction_phase_one)
    for (vec, rank), verdict in zip(queries, verdicts):
        assert verdict == repr(cone_membership(vec, rank)), vec
