"""Decomposition, elementary recognition, splitting, and full factorization."""

import functools
import hashlib
import random

import pytest

from tpratio import factorizer
from tpratio.combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    check_condition_m,
)
from tpratio.errors import ConditionMViolation, InvalidInput, St0Violation
from tpratio.factorizer import (
    BasicRatio,
    ElementaryRatio,
    basic_ratios_all,
    classify_elementary,
    decompose,
    delta_size,
    elementary_to_basics,
    factor_to_basics,
    interlaces,
    is_trivial,
    mu,
    split_once,
)
from tpratio.tpcore import eval_ratio, random_tp

import util


def iset(n, *elems):
    return IndexSet.of(n, elems)


def ratio(n, num, den):
    return RatioExpr.of(
        n, [IndexSet.of(n, s) for s in num], [IndexSet.of(n, s) for s in den]
    )


def trace_digest(results):
    """SHA-256 over ``repr`` of each factorization, in order."""
    h = hashlib.sha256()
    for res in results:
        h.update(repr(res).encode() + b"\n")
    return h.hexdigest()


# Digests of every factorization the trace tests below make, in their
# enumeration order.  They pin the certificates byte for byte, trace steps,
# factor order and bracket order included, so a rewrite of the split rules
# or of the block builder that changes any factor fails here.
TRACE_DIGESTS = {
    3: "79b01f0df95efe4a14623485750fe4b6aa9c116e619edf7cf57137a1ee4e60b9",
    4: "7e8f753be7dcecbc58efa529649631b95125feac32cf25dc26107beec093dd4d",
    5: "c47b5e24939717f56f20de7ce686013ace1233b648684f289670fd2af0b0b54f",
    6: "d6716bdd86ee141194854fff5f3b5707e16ff912a63ffe9daa4274da60c35427",
    7: "e5e5c860378b0a32d4356a3dc52133b60dd855715c2a3b0ddb7258e5c3cf9a10",
    8: "4c756b6aaca25b8a3cf78d76c40ed9f3759538c1497db262da9a3215b2355398",
}


class TestDecompose:
    def test_elementary_n2(self):
        d = decompose(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))
        assert d.core == ()
        assert (d.gamma1, d.gamma2, d.delta1, d.delta2) == ((1,), (4,), (2,), (3,))
        assert d.nu == 2

    def test_n3_example(self):
        d = decompose(ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]))
        assert d.core == ()
        assert (d.gamma1, d.gamma2, d.delta1, d.delta2) == ((1,), (4, 6), (2,), (3, 5))
        assert d.nu == 3
        assert d.ratio().numerator == (iset(3, 1, 4, 6), iset(3, 2, 3, 5))

    def test_block_form_gives_back_the_brackets(self):
        # every ratio the factorizer emits is built by Decomposition.ratio()
        checked = 0
        for n in (2, 3, 4):
            for r in util.st0_ratios(n):
                assert decompose(r).ratio().canonical() == r.canonical()
                checked += 1
        assert checked == 11742

    def test_st0_violation(self):
        with pytest.raises(St0Violation):
            decompose(ratio(2, [(1, 2), (1, 2)], [(1, 3), (2, 4)]))

    def test_arity(self):
        with pytest.raises(InvalidInput, match="need exactly two sets per side, got 3"):
            decompose(
                ratio(2, [(1, 2), (3, 4), (1, 3)], [(1, 2), (3, 4), (1, 3)])
            )

    def test_trivial_ratio_nu_counts_unshared_indices(self):
        # the numerator sets are disjoint, so nothing is shared by all four
        d = decompose(ratio(2, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))
        assert d.nu == 2
        assert is_trivial(ratio(2, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))


class TestTrivial:
    def test_crossed_match(self):
        assert is_trivial(ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)]))
        assert not is_trivial(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))

    def test_low_nu_st0_ratios_are_trivial(self):
        for r in util.st0_ratios(2):
            if decompose(r).nu <= 1:
                assert is_trivial(r)


class TestInterlacing:
    def test_examples(self):
        assert interlaces((1, 5), (2, 6))
        assert not interlaces((1, 2), (3, 4))
        assert interlaces((3,), (4,))
        assert interlaces((), ())

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput, match="sets differ in size"):
            interlaces((1,), (2, 3))


class TestClassifyElementary:
    def test_plain(self):
        e = classify_elementary(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))
        assert e.anchors == (1, 2, 3, 4) and e.core == ()

    def test_not_elementary(self):
        r = ratio(2, [(1, 3), (2, 4)], [(1, 4), (2, 3)])
        assert classify_elementary(r) is None
        assert not check_condition_m(r).holds

    def test_wraparound_anchor(self):
        e = classify_elementary(ratio(2, [(1, 2), (3, 4)], [(2, 4), (1, 3)]))
        assert e.anchors == (2, 3, 4, 1)
        assert check_condition_m(e.expr()).holds

    def test_preconditions(self):
        with pytest.raises(InvalidInput, match="needs a non-trivial ratio"):
            classify_elementary(ratio(2, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))
        with pytest.raises(InvalidInput, match="classify_elementary needs nu == 2, got 3"):
            classify_elementary(
                ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)])
            )

    def test_agreement_with_condition_m_on_all_nu2(self):
        for r in util.st0_ratios(3):
            if decompose(r).nu == 2 and not is_trivial(r):
                assert (classify_elementary(r) is not None) == check_condition_m(r).holds


class TestComplexityMeasures:
    def test_examples(self):
        basic = ElementaryRatio(2, 1, 2, 3, 4, ())
        assert (mu(basic), delta_size(basic)) == (0, 4)
        e = ElementaryRatio(3, 1, 3, 5, 6, (2,))
        assert (mu(e), delta_size(e)) == (1, 5)
        e2 = ElementaryRatio(3, 1, 2, 4, 6, (3,))
        assert (mu(e2), delta_size(e2)) == (0, 5)


class TestElementaryToBasics:
    def test_already_basic(self):
        e = ElementaryRatio(2, 1, 2, 3, 4, ())
        res = elementary_to_basics(e)
        assert res.ratio == e.expr()
        assert res.basics == (BasicRatio.of(2, 1, 3, ()),)
        assert [s.rule for s in res.trace] == ["basic"]
        assert res.vector_check()

    def test_step_anchor_case(self):
        e = ElementaryRatio(3, 1, 2, 4, 6, (3,))
        res = elementary_to_basics(e)
        assert res.basics == (BasicRatio.of(3, 1, 4, (3,)), BasicRatio.of(3, 1, 5, (3,)))
        assert res.vector_check()
        for seed in range(10):
            m = random_tp(3, seed)
            assert eval_ratio(m, e.expr()) == util.product_of_values(
                eval_ratio(m, b.expr()) for b in res.basics
            )

    def test_pull_core_case(self):
        res = elementary_to_basics(ElementaryRatio(3, 1, 3, 5, 6, (2,)))
        assert res.trace[0].rule == "pull-core"
        assert res.vector_check()

    def test_measures_strictly_decrease(self):
        e = ElementaryRatio(4, 1, 4, 5, 8, (2, 6))
        for step in elementary_to_basics(e).trace:
            if not step.factors:
                continue
            parent = dict(step.measures)
            assert parent["mu"] > 0 or parent["delta"] > 4


# One pinned split per rule, (rule, rank, input, left, right), each ratio
# as (numerator, denominator): the first screened ratio of `util.st0_ratios`
# that fires the rule.  `second-pair` first fires at rank 4.
SPLIT_EXAMPLES = [
    ("parity", 3,
     ([(1, 2, 3), (4, 5, 6)], [(1, 2, 4), (3, 5, 6)]),
     ([(1, 2, 3), (1, 4, 5)], [(1, 2, 4), (1, 3, 5)]),
     ([(1, 3, 5), (4, 5, 6)], [(1, 4, 5), (3, 5, 6)])),
    ("parity-swapped", 3,
     ([(1, 2, 3), (4, 5, 6)], [(1, 4, 5), (2, 3, 6)]),
     ([(4, 5, 6), (1, 2, 4)], [(1, 4, 5), (2, 4, 6)]),
     ([(2, 4, 6), (1, 2, 3)], [(1, 2, 4), (2, 3, 6)])),
    ("head-pair", 3,
     ([(1, 3, 6), (2, 4, 5)], [(1, 3, 5), (2, 4, 6)]),
     ([(1, 3, 6), (1, 4, 5)], [(1, 3, 5), (1, 4, 6)]),
     ([(1, 4, 6), (2, 4, 5)], [(1, 4, 5), (2, 4, 6)])),
    ("head-block", 3,
     ([(1, 3, 4), (2, 5, 6)], [(1, 3, 5), (2, 4, 6)]),
     ([(1, 3, 4), (3, 5, 6)], [(1, 3, 5), (3, 4, 6)]),
     ([(3, 4, 6), (2, 5, 6)], [(3, 5, 6), (2, 4, 6)])),
    ("head-chain", 3,
     ([(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]),
     ([(1, 4, 6), (2, 4, 5)], [(2, 4, 6), (1, 4, 5)]),
     ([(1, 4, 5), (2, 3, 5)], [(2, 4, 5), (1, 3, 5)])),
    ("second-pair", 4,
     ([(1, 2, 4, 7), (3, 5, 6, 8)], [(1, 3, 5, 7), (2, 4, 6, 8)]),
     ([(1, 2, 4, 7), (3, 4, 6, 8)], [(2, 4, 6, 8), (1, 3, 4, 7)]),
     ([(1, 3, 4, 7), (3, 5, 6, 8)], [(3, 4, 6, 8), (1, 3, 5, 7)])),
    ("second-chain", 3,
     ([(1, 2, 4), (3, 5, 6)], [(1, 3, 5), (2, 4, 6)]),
     ([(3, 5, 6), (1, 3, 4)], [(1, 3, 5), (3, 4, 6)]),
     ([(3, 4, 6), (1, 2, 4)], [(1, 3, 4), (2, 4, 6)])),
    ("second-chain-tail", 3,
     ([(1, 2, 5), (3, 4, 6)], [(1, 3, 5), (2, 4, 6)]),
     ([(1, 2, 5), (3, 5, 6)], [(1, 3, 5), (2, 5, 6)]),
     ([(2, 5, 6), (3, 4, 6)], [(3, 5, 6), (2, 4, 6)])),
]


class TestSplitOnce:
    @pytest.mark.parametrize(
        "rule, n, given, left, right", SPLIT_EXAMPLES, ids=[e[0] for e in SPLIT_EXAMPLES]
    )
    def test_rule_example(self, rule, n, given, left, right):
        step = split_once(ratio(n, *given))
        assert step.rule == rule
        assert step.ratio == ratio(n, *given)
        assert step.factors == (ratio(n, *left), ratio(n, *right))

    def test_head_pair_example(self):
        step = split_once(
            ratio(4, [(1, 4, 5, 8), (2, 3, 6, 7)], [(1, 3, 5, 7), (2, 4, 6, 8)])
        )
        assert step.factors == (
            ratio(4, [(1, 4, 5, 8), (1, 3, 6, 7)], [(1, 3, 5, 7), (1, 4, 6, 8)]),
            ratio(4, [(1, 4, 6, 8), (2, 3, 6, 7)], [(1, 3, 6, 7), (2, 4, 6, 8)]),
        )
        assert step.rule == "head-pair"
        assert step.measures == (("nu", 4),)

    def test_wrapper_gives_the_recorded_step(self):
        """`split_once` returns the very step `factor_to_basics` records, on
        every split node of every rank-4 trace, and every rule fires."""
        rules = {e[0] for e in SPLIT_EXAMPLES}
        splits = [s for res in _rank4_factorizations() for s in res.trace if s.rule in rules]
        assert {s.rule for s in splits} == rules
        for step in splits:
            assert split_once(step.ratio) == step

    def test_nu2_rejected(self):
        with pytest.raises(InvalidInput, match="split_once needs nu >= 3, got 2"):
            split_once(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))

    def test_unscreened_rejected(self):
        with pytest.raises(ConditionMViolation):
            split_once(ratio(3, [(1, 3, 5), (2, 4, 6)], [(1, 4, 6), (2, 3, 5)]))

    def test_factors_stay_screened(self):
        rng = random.Random(11)
        seen = 0
        while seen < 40:
            r = util.random_st0_ratio(4, rng)
            if r is None or not check_condition_m(r).holds:
                continue
            d = decompose(r)
            if d.nu < 3 or is_trivial(r):
                continue
            left, right = split_once(r).factors
            for part in (left, right):
                assert check_condition_m(part).holds
                assert decompose(part).nu < d.nu
            total = util.vector_sum(ExponentVector.of_ratio(part) for part in (left, right))
            assert total == ExponentVector.of_ratio(r).as_dict()
            seen += 1


class TestFactorToBasics:
    def test_two_basic_example(self):
        res = factor_to_basics(ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]))
        assert res.basics == (BasicRatio.of(3, 1, 3, (5,)), BasicRatio.of(3, 1, 5, (4,)))
        assert res.vector_check()

    def test_trivial_gives_empty(self):
        res = factor_to_basics(ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)]))
        assert res.basics == ()
        assert [s.rule for s in res.trace] == ["trivial"]

    def test_condition_m_violation_witness(self):
        with pytest.raises(ConditionMViolation) as err:
            factor_to_basics(ratio(2, [(1, 3), (2, 4)], [(1, 4), (2, 3)]))
        assert set(err.value.arc.members) == {2, 3}

    def test_one_over_one_is_padded(self):
        res = factor_to_basics(RatioExpr.of(2, [iset(2, 1, 3)], [iset(2, 1, 3)]))
        assert res.basics == ()

    def test_empty_sides_are_padded(self):
        # the ratio 1 passes both screens; it was padded to one set a side
        # and refused with "need exactly two sets per side"
        res = factor_to_basics(RatioExpr(2, (), ()))
        assert (res.basics, [s.rule for s in res.trace]) == ((), ["trivial"])
        assert res.ratio.p == 2 and res.vector_check()

    def test_factorization_iff_screens_exhaustive_n3(self):
        factored = 0
        for r in util.st0_ratios(3):
            if check_condition_m(r).holds:
                res = factor_to_basics(r)
                total = util.vector_sum(b.vector() for b in res.basics)
                assert total == ExponentVector.of_ratio(r).as_dict()
                factored += 1
            else:
                with pytest.raises(ConditionMViolation):
                    factor_to_basics(r)
        assert factored == 285

    def test_semantic_soundness_random_matrices(self):
        r = ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)])
        res = factor_to_basics(r)
        for seed in range(20):
            m = random_tp(3, seed)
            value = eval_ratio(m, r)
            assert value == util.product_of_values(
                eval_ratio(m, b.expr()) for b in res.basics
            )
            assert value < 1

    def test_semantic_soundness_every_screened_n3_ratio(self):
        matrices = [random_tp(3, seed) for seed in range(5)]
        results = []
        for r in util.st0_ratios(3):
            if not check_condition_m(r).holds:
                continue
            res = factor_to_basics(r)
            for m in matrices:
                assert eval_ratio(m, r) == util.product_of_values(
                    eval_ratio(m, b.expr()) for b in res.basics
                )
            results.append(res)
        assert trace_digest(results) == TRACE_DIGESTS[3]

    def test_progress_along_trace(self):
        r = ratio(4, [(1, 4, 5, 8), (2, 3, 6, 7)], [(1, 3, 5, 7), (2, 4, 6, 8)])
        res = factor_to_basics(r)
        for step in res.trace:
            measures = dict(step.measures)
            if "nu" in measures and step.factors:
                for f in step.factors:
                    child = decompose(f)
                    if step.rule != "elementary":
                        assert child.nu < measures["nu"]

    def test_emitted_basics_are_screened(self):
        r = ratio(4, [(1, 4, 5, 8), (2, 3, 6, 7)], [(1, 3, 5, 7), (2, 4, 6, 8)])
        res = factor_to_basics(r)
        assert res.basics
        for b in res.basics:
            expr = b.expr()
            assert check_condition_m(expr).holds
            assert classify_elementary(expr) is not None

    def test_screens_run_once(self, monkeypatch):
        r = ratio(4, [(1, 4, 5, 8), (2, 3, 6, 7)], [(1, 3, 5, 7), (2, 4, 6, 8)])
        expected = factor_to_basics(r)
        assert len(expected.trace) > 3
        calls = {"check_condition_m": 0, "check_st0": 0}
        for name in calls:

            def counted(*args, name=name, original=getattr(factorizer, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(factorizer, name, counted)
        assert repr(factor_to_basics(r)) == repr(expected)
        assert calls == {"check_condition_m": 1, "check_st0": 1}


@functools.cache
def _rank4_factorizations():
    """`factor_to_basics` of every rank-4 ST0 two-over-two ratio that passes
    condition M, in `util.st0_ratios` order; built once, read by the trace
    tests and the split tests."""
    return tuple(factor_to_basics(r) for r in util.st0_ratios(4) if check_condition_m(r).holds)


def _check_trace(res, screened):
    """Check, on one factorization trace, the lemmas the recursion does not
    re-check: each split's two factors pass condition M, have smaller nu and
    multiply back to the node; each elementary rewrite strictly shrinks
    (mu, delta) and multiplies back; and each elementary node passes
    condition M and is recognized by `classify_elementary`.  The trace is
    the preorder of the factorization tree, a node's factors being the
    ratios, up to order within each side, of the steps that follow it."""
    trace = res.trace
    vector = ExponentVector.of_ratio

    def walk(i):
        step, nxt, children = trace[i], i + 1, []
        for factor in step.factors:
            assert trace[nxt].ratio.canonical() == factor.canonical()
            children.append(trace[nxt])
            nxt = walk(nxt)
        if step.rule == "elementary":
            assert dict(step.measures)["nu"] == 2 and screened(step.ratio)
            assert classify_elementary(step.ratio).expr() == step.factors[0]
        elif len(children) == 2:
            total = util.vector_sum(vector(child.ratio) for child in children)
            assert total == vector(step.ratio).as_dict()
            if "nu" in dict(step.measures):
                for child in children:
                    assert screened(child.ratio)
                    assert dict(child.measures)["nu"] < dict(step.measures)["nu"]
            else:
                for child in children:
                    assert child.measures < step.measures  # (mu, delta), lexicographic
        return nxt

    assert walk(0) == len(trace)


class TestTraceFacts:
    """The split and elementary-rewrite lemmas, on every trace at rank 4
    and on seeded screen-passing ratios up to `MAX_RATIO_RANK`."""

    def test_exhaustive_rank4(self):
        screened = functools.cache(lambda r: check_condition_m(r).holds)
        for r in util.st0_ratios(4):
            if not screened(r):
                with pytest.raises(ConditionMViolation):
                    factor_to_basics(r)
                if decompose(r).nu == 2:
                    assert classify_elementary(r) is None
        results = _rank4_factorizations()
        for res in results:
            assert res.vector_check()
            _check_trace(res, screened)
        assert len(results) == 4255
        assert trace_digest(results) == TRACE_DIGESTS[4]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_higher_ranks(self, n):
        screened = functools.cache(lambda r: check_condition_m(r).holds)
        rng = random.Random(n)
        results = []
        while len(results) < 200:
            r = util.random_shared_split_ratio(n, rng)
            if screened(r):
                results.append(factor_to_basics(r))
                _check_trace(results[-1], screened)
        assert trace_digest(results) == TRACE_DIGESTS[n]


class TestBasicRatiosAll:
    @pytest.mark.parametrize("n, count", [(2, 2), (3, 18), (4, 120)])
    def test_counts(self, n, count):
        basics = basic_ratios_all(n)
        assert len(basics) == count
        assert len(set(basics)) == count

    def test_n2_generators(self):
        assert basic_ratios_all(2) == [BasicRatio.of(2, 1, 3, ()), BasicRatio.of(2, 2, 4, ())]

    def test_swap_canonicalization(self):
        assert BasicRatio.of(3, 5, 1, (3,)) == BasicRatio.of(3, 1, 5, (3,))

    def test_wraparound_expr(self):
        b = BasicRatio.of(2, 2, 4, ())
        assert b.expr() == ratio(2, [(1, 2), (3, 4)], [(2, 4), (1, 3)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: BasicRatio.of(2, 0, 5, ()),
        lambda: BasicRatio.of(3, 1, 4, (7,)),
        lambda: ElementaryRatio(2, 1, 2, 3, 8, ()),
        lambda: ElementaryRatio(3, 1, 2, 4, 6, (9,)),
    ],
    ids=["basic-anchors", "basic-core", "elementary-anchor", "elementary-core"],
)
def test_labels_outside_the_polygon_rejected(build):
    with pytest.raises(InvalidInput, match=r"labels outside \[1, "):
        build()


# Every other rejection of the anchor check `ElementaryRatio` and
# `BasicRatio` share, and the one check each keeps for itself.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ElementaryRatio(2, 1, 1, 3, 4, ()), r"anchors must be distinct: \(1, 1, 3, 4\)"),
        (lambda: ElementaryRatio(3, 1, 2, 4, 5, ()), r"core must have 1 elements, got \(\)"),
        (lambda: ElementaryRatio(3, 1, 2, 4, 5, (2,)), "core must avoid the anchors"),
        (lambda: ElementaryRatio(2, 1, 3, 2, 4, ()), r"anchors not in cyclic order: \(1, 3, 2, 4\)"),
        (lambda: BasicRatio.of(3, 1, 2, (4,)), r"anchors must be distinct: \(1, 2, 2, 3\)"),
        (lambda: BasicRatio.of(3, 1, 6, (3,)), r"anchors must be distinct: \(1, 2, 6, 1\)"),
        (lambda: BasicRatio.of(3, 1, 4, ()), r"core must have 1 elements, got \(\)"),
        (lambda: BasicRatio.of(3, 1, 4, (5,)), "core must avoid the anchors"),
        (lambda: BasicRatio(3, 5, 1, (3,)), "use BasicRatio.of"),
    ],
    ids=[
        "elementary-repeated-anchor",
        "elementary-core-size",
        "elementary-core-meets-anchor",
        "elementary-cyclic-order",
        "basic-adjacent-pairs-overlap",
        "basic-wraparound-overlap",
        "basic-core-size",
        "basic-core-meets-anchor",
        "basic-pair-order",
    ],
)
def test_anchor_rejections(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()
