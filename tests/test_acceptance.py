"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value is either asserted exactly (rationals, counts) or
derived by an independent oracle living in this file or in `util`
(divided-difference degree fitting, path-family enumeration versus
determinants, redone exponent bookkeeping).  Zero tolerance everywhere:
no floating point comparisons appear in this module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside pytest's own pass/fail report.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from tpratio.combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    all_index_sets,
    check_condition_m,
    check_st0,
    cyclic_shift_ratio,
    reversal_ratio,
)
from tpratio.conelab import InCone, cone_membership, ratio_to_vector, verify_certificate
from tpratio.errors import ConditionMViolation, St0Violation
from tpratio.factorizer import BasicRatio, basic_ratios_all, factor_to_basics
from tpratio.polycheck import is_subtraction_free, ratio_difference_poly
from tpratio import (
    T_LADDER,
    Evidence,
    counterexample_matrix,
    eval_ratio,
    falsify,
    network_matrix,
    plucker_eval,
    random_network,
    random_tp,
    reverse_matrix,
    shift_matrix,
    verify_tp,
    witness_family,
)

import util


def iset(n, *elems):
    return IndexSet.of(n, elems)


def ratio(n, num, den):
    return RatioExpr.of(
        n, [IndexSet.of(n, s) for s in num], [IndexSet.of(n, s) for s in den]
    )


UNBOUNDED_3OVER3 = ratio(
    4,
    [(1, 2, 3, 8), (2, 3, 4, 5), (4, 6, 7, 8)],
    [(1, 4, 6, 8), (2, 3, 4, 8), (2, 3, 5, 7)],
)


def report(number: int, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {verdict}: {detail}")


@pytest.fixture(scope="module")
def rank3_screening():
    """All two-over-two ST0 ratios at rank 3 with their screening verdicts."""
    ratios = util.st0_ratios(3)
    screened = [(r, check_condition_m(r).holds) for r in ratios]
    return screened


def test_criterion_01_exhaustive_factorization_n3(rank3_screening):
    started = time.monotonic()
    sets = all_index_sets(3)
    pairs = list(itertools.combinations_with_replacement(sets, 2))
    assert len(pairs) == 210

    factored = 0
    rejected = 0
    for num in pairs:
        for den in pairs:
            r = RatioExpr.of(3, num, den)
            passes = check_st0(r).holds and check_condition_m(r).holds
            if passes:
                result = factor_to_basics(r)
                total = util.vector_sum(b.vector() for b in result.basics)
                assert total == ExponentVector.of_ratio(r).as_dict()
                factored += 1
            else:
                with pytest.raises((St0Violation, ConditionMViolation)):
                    factor_to_basics(r)
                rejected += 1
    elapsed = time.monotonic() - started
    assert factored == 285
    assert factored + rejected == 210 * 210
    assert elapsed < 300
    report(
        1,
        True,
        f"all {210 * 210} ratios screened, {factored} factored with exact "
        f"exponent sums, {rejected} rejected with witnesses ({elapsed:.1f}s)",
    )


def test_criterion_02_semantic_boundedness(rank3_screening):
    screened = [r for r, holds in rank3_screening if holds]
    factorizations = {id(r): factor_to_basics(r) for r in screened}
    matrices = [random_tp(3, seed) for seed in range(20)]
    pairs = 0
    strict = 0
    for i in range(500):
        r = screened[i % len(screened)]
        m = matrices[i % len(matrices)]
        value = eval_ratio(m, r)
        assert value <= 1
        if factorizations[id(r)].basics:
            assert value < 1
            strict += 1
        pairs += 1
    assert pairs == 500
    report(2, True, f"500 exact evaluations at most 1, {strict} strictly below 1")


def test_criterion_03_falsification_completeness_n3(rank3_screening):
    started = time.monotonic()
    failing = [r for r, holds in rank3_screening if not holds]
    assert len(failing) == 195
    for r in failing:
        outcome = falsify(r)
        assert isinstance(outcome, Evidence)
        assert outcome.family == "degree-gap"
        within_default = [v for t, v in outcome.trace if t in T_LADDER]
        assert max(within_default) > 1000
    elapsed = time.monotonic() - started
    assert elapsed < 300
    report(
        3,
        True,
        f"all {len(failing)} screen-failing ratios produced witnesses above "
        f"10^3 within the default ladder ({elapsed:.1f}s)",
    )


def test_criterion_04_counterexample_reproduction():
    # Evaluated exactly on `counterexample_matrix(t)`, the six brackets are
    #   numerator:   1/t,  t^2,  t^2+t+2
    #   denominator: (3t^2+2t+3)/t,  (t^4+t^3+9t^2+6t+3)/t^3,  (4t^2+3t+2)/t^2
    # so the ratio is
    #   t^7 (t^2+t+2) / ((3t^2+2t+3)(4t^2+3t+2)(t^4+t^3+9t^2+6t+3)),
    # which grows like t/12 and first exceeds 10^3 near t = 12001.4.  The
    # t = 10^4 rung gives 833.215..., so the threshold is checked at t = 10^5,
    # the first power-of-ten rung past the crossing.  Unboundedness itself is
    # proved without any threshold: entries reach down to t^-3, so t^36 times
    # a product of three brackets of size at most 4 is a polynomial; entries
    # have degree at most 2, so that polynomial has degree at most
    # 36 + 3 * 8 = 60, and 61 integer samples fit it exactly.  Total
    # positivity keeps every bracket positive, so a degree gap of 1 makes the
    # ratio tend to +infinity along the family.
    started = time.monotonic()
    assert check_st0(UNBOUNDED_3OVER3).holds
    assert check_condition_m(UNBOUNDED_3OVER3).holds
    ladder = [Fraction(10) ** e for e in (0, 2, 4, 5)]
    points = [Fraction(t) for t in range(1, 62)]
    family = {t: counterexample_matrix(t) for t in (*ladder, *points)}
    assert all(verify_tp(m) for m in family.values())
    values = [eval_ratio(family[t], UNBOUNDED_3OVER3) for t in ladder]
    assert all(a < b for a, b in zip(values, values[1:]))
    degrees = []
    for side in (UNBOUNDED_3OVER3.numerator, UNBOUNDED_3OVER3.denominator):
        samples = []
        for t in points:
            product = util.product_of_values(plucker_eval(family[t], s) for s in side)
            samples.append((t, t**36 * product))
        degrees.append(util.poly_degree_from_samples(samples))
    gap = degrees[0] - degrees[1]
    elapsed = time.monotonic() - started
    assert elapsed < 60
    exceeded = values[-1] > 1000
    report(
        4,
        gap == 1 and exceeded,
        f"screens pass, family totally positive at all {len(family)} evaluated t, "
        "values strictly increase over t=10^0,10^2,10^4,10^5; "
        f"degree gap {gap} (t^36-scaled sides of degree {degrees[0]} over "
        f"{degrees[1]}); value at t=10^5 is {values[-1]} "
        f"(~{float(values[-1]):.3f}), "
        + ("above 10^3" if exceeded else "NOT above 10^3"),
    )
    assert gap == 1, f"degree gap {gap} (sides of degree {degrees[0]} over {degrees[1]})"
    assert exceeded, (
        f"exact value at t=10^5 is {values[-1]} (~{float(values[-1]):.3f}), "
        "which does not exceed 10^3"
    )


def test_criterion_05_generator_counts():
    counts = {n: len(basic_ratios_all(n)) for n in (2, 3, 4)}
    assert counts == {2: 2, 3: 18, 4: 120}
    report(5, True, f"generator counts {counts}")


def test_criterion_06_bridge_identity():
    started = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for seed in range(10):
            m = random_tp(n, seed)
            for alpha in all_index_sets(n):
                assert plucker_eval(m, alpha) == util.representative_bracket(m, alpha)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(6, True, f"{checked} exact bracket/minor agreements ({elapsed:.1f}s)")


def test_criterion_07_short_plucker():
    started = time.monotonic()
    checked = 0
    for n in (2, 3):
        for seed in range(20):
            m = random_tp(n, seed)
            labels = range(1, 2 * n + 1)
            for quad in itertools.combinations(labels, 4):
                i1, i2, j1, j2 = quad
                rest = [e for e in labels if e not in quad]
                for core in itertools.combinations(rest, n - 2):
                    br = lambda *xs: plucker_eval(m, IndexSet.of(n, xs + core))
                    assert br(i1, i2) * br(j1, j2) + br(i1, j2) * br(i2, j1) == br(
                        i1, j1
                    ) * br(i2, j2)
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(7, True, f"{checked} exact three-term identities ({elapsed:.1f}s)")


def test_criterion_08_shift_reversal_invariance():
    rng = random.Random(8)
    pairs = 0
    for n in (2, 3):
        ratios = util.st0_ratios(n)
        for trial in range(50):
            r = rng.choice(ratios)
            m = random_tp(n, trial)
            value = eval_ratio(m, r)
            assert eval_ratio(shift_matrix(m), cyclic_shift_ratio(r)) == value
            assert eval_ratio(reverse_matrix(m), reversal_ratio(r)) == value
            pairs += 1
    assert pairs == 100
    report(8, True, "100 exact shift and reversal invariances")


def test_criterion_09_lgv_oracle():
    checked = 0
    for n in (1, 2, 3):
        p = random_network(n, 42, magnitude=2)
        m = network_matrix(p)
        for alpha in all_index_sets(n):
            assert util.lgv_minors(p, alpha) == plucker_eval(m, alpha)
            checked += 1
    p = random_network(4, 17, magnitude=2)
    m = network_matrix(p)
    rng = random.Random(9)
    for alpha in rng.sample(all_index_sets(4), 50):
        assert util.lgv_minors(p, alpha) == plucker_eval(m, alpha)
        checked += 1
    report(9, True, f"{checked} path-family sums equal determinant minors")


def test_criterion_10_cone_coherence(rank3_screening):
    started = time.monotonic()
    screened = [r for r, holds in rank3_screening if holds]
    for r in screened:
        vec = ratio_to_vector(r)
        verdict = cone_membership(vec, 3)
        assert isinstance(verdict, InCone)
        assert verify_certificate(vec, verdict, 3)
        counts: dict[BasicRatio, Fraction] = {}
        for b in factor_to_basics(r).basics:
            counts[b] = counts.get(b, Fraction(0)) + 1
        alternative = InCone(tuple(sorted(counts.items())))
        assert verify_certificate(vec, alternative, 3)
    elapsed = time.monotonic() - started
    assert elapsed < 600
    report(
        10,
        True,
        f"all {len(screened)} screened vectors in cone; solver and "
        f"factorizer certificates both verify ({elapsed:.1f}s)",
    )


def test_criterion_11_subtraction_freeness():
    started = time.monotonic()
    for n in (2, 3):
        for b in basic_ratios_all(n):
            assert is_subtraction_free(ratio_difference_poly(b.expr())).subtraction_free
    diff = ratio_difference_poly(UNBOUNDED_3OVER3)
    verdict = is_subtraction_free(diff)
    assert not verdict.subtraction_free
    assert verdict.witness_coefficient < 0
    elapsed = time.monotonic() - started
    assert elapsed < 900
    report(
        11,
        True,
        "all rank 2 and 3 basics subtraction free; counterexample difference "
        f"has {len(diff.terms)} terms with negative witness "
        f"{verdict.witness.format(4)} ({elapsed:.1f}s)",
    )


def test_criterion_12_witness_degree_law():
    started = time.monotonic()
    points = [Fraction(v) for v in (1, 2, 4, 8, 16)]
    checked = 0
    for s in (1, 2, 3):
        for k in range(1, s + 1):
            mats = [(t, witness_family(3, s, k, t)) for t in points]
            for alpha in all_index_sets(3):
                samples = [(t, plucker_eval(m, alpha)) for t, m in mats]
                expected = min(k, sum(1 for e in alpha if e <= s))
                assert util.poly_degree_from_samples(samples) == expected
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(12, True, f"{checked} exact degree fits match min(k, overlap) ({elapsed:.1f}s)")
