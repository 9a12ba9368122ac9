"""Symbolic weight polynomials and the subtraction-freeness test."""

import random
from fractions import Fraction

import pytest

from tpratio.combinatorics import IndexSet, RatioExpr, all_index_sets, plucker_to_minor
from tpratio.errors import BudgetExceeded, InvalidInput
from tpratio.factorizer import basic_ratios_all
from tpratio.polycheck import (
    Monomial,
    Polynomial,
    is_subtraction_free,
    ratio_difference_poly,
    symbolic_bracket,
    symbolic_network_matrix,
)
from tpratio.tpcore import (
    lgv_minors,
    network_matrix,
    plucker_eval,
    random_network,
)
from tpratio.tpcore.network import flat_weights

import util


def ratio(n, num, den):
    return RatioExpr.of(
        n, [IndexSet.of(n, s) for s in num], [IndexSet.of(n, s) for s in den]
    )


def var(nv, idx):
    return Polynomial.variable(nv, idx)


class TestSymbolicMatrix:
    def test_n2_entries(self):
        g = symbolic_network_matrix(2)
        l1, d1, d2, u1 = (var(4, i) for i in range(4))
        assert g[0][0] == d1
        assert g[0][1] == d1 * u1
        assert g[1][0] == l1 * d1
        assert g[1][1] == l1 * d1 * u1 + d2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_substitution_coherence(self, n):
        g = symbolic_network_matrix(n)
        for seed in range(10):
            p = random_network(n, seed)
            values = flat_weights(p)
            m = network_matrix(p)
            for i in range(n):
                for j in range(n):
                    assert g[i][j].evaluate(values) == m.entries[i][j]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            symbolic_network_matrix(5)
        # a rank-5 ratio meets the same one check, through its brackets
        r = ratio(5, [(1, 2, 3, 4, 5)], [(1, 2, 3, 4, 6)])
        with pytest.raises(BudgetExceeded, match="symbolic networks are budgeted to rank 4"):
            ratio_difference_poly(r)

    def test_evaluate_needs_one_value_per_variable(self):
        with pytest.raises(InvalidInput, match="need 4 values, got 3"):
            symbolic_network_matrix(2)[0][0].evaluate((Fraction(1),) * 3)


class TestMinorEvaluators:
    """The symbolic brackets are `bracket_table` over polynomials, the
    kernel the falsifier's rung tables run over `Fraction`, so they are
    held to the two evaluators that share no code with it: the Bareiss
    determinant behind `plucker_eval` and the path-family oracle
    `lgv_minors`."""

    def test_three_evaluators_agree(self):
        for n in range(1, 5):
            for seed in range(3):
                p = random_network(n, seed)
                m, values = network_matrix(p), flat_weights(p)
                for alpha in all_index_sets(n):
                    exact = plucker_eval(m, alpha)
                    assert lgv_minors(p, plucker_to_minor(alpha)) == exact, (n, seed, alpha)
                    assert symbolic_bracket(n, alpha).evaluate(values) == exact, (n, seed, alpha)


class TestRatioDifference:
    def test_basic_n2_is_d1_d2(self):
        from tpratio.factorizer import BasicRatio

        diff = ratio_difference_poly(BasicRatio.of(2, 1, 3, ()).expr())
        d1, d2 = var(4, 1), var(4, 2)
        assert diff == d1 * d2

    def test_trivial_is_zero(self):
        diff = ratio_difference_poly(ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)]))
        assert diff.is_zero

    def test_evaluation_coherence(self):
        r = ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)])
        diff = ratio_difference_poly(r)
        for seed in range(5):
            p = random_network(3, seed)
            m = network_matrix(p)
            num = util.product_of_values(plucker_eval(m, s) for s in r.numerator)
            den = util.product_of_values(plucker_eval(m, s) for s in r.denominator)
            assert diff.evaluate(flat_weights(p)) == den - num


class TestSubtractionFree:
    def test_all_basics_n2_n3(self):
        for n in (2, 3):
            for b in basic_ratios_all(n):
                verdict = is_subtraction_free(ratio_difference_poly(b.expr()))
                assert verdict.subtraction_free

    def test_zero_polynomial(self):
        assert is_subtraction_free(Polynomial.zero(4)).subtraction_free

    def test_square_pattern_witness(self):
        # x^2 + y^2 - 2xy + 1 is nonnegative but not subtraction free
        x, y = var(4, 0), var(4, 1)
        poly = x * x + y * y - Polynomial.constant(4, 2) * x * y + Polynomial.constant(4, 1)
        verdict = is_subtraction_free(poly)
        assert not verdict.subtraction_free
        assert verdict.witness == Monomial((1, 1, 0, 0))
        assert verdict.witness_coefficient == -2

    def test_counterexample_has_negative_coefficient(self):
        r = ratio(
            4,
            [(1, 2, 3, 8), (2, 3, 4, 5), (4, 6, 7, 8)],
            [(1, 4, 6, 8), (2, 3, 4, 8), (2, 3, 5, 7)],
        )
        verdict = is_subtraction_free(ratio_difference_poly(r))
        assert not verdict.subtraction_free
        assert verdict.witness_coefficient < 0

    def test_free_implies_nonnegative_at_random_weights(self):
        r = ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)])
        diff = ratio_difference_poly(r)
        assert is_subtraction_free(diff).subtraction_free
        for seed in range(20):
            assert diff.evaluate(flat_weights(random_network(3, seed))) >= 0


class TestProductRule:
    def test_two_factor_identity(self):
        # for R = (A/B)(C/D): q - p = BD - AC = D(B - A) + A(D - C)
        rng = random.Random(5)
        basics = basic_ratios_all(3)
        nv = 9
        for _ in range(10):
            r1, r2 = rng.choice(basics).expr(), rng.choice(basics).expr()
            a = Polynomial.constant(nv, 1)
            for s in r1.numerator:
                a = a * symbolic_bracket(3, s)
            b = Polynomial.constant(nv, 1)
            for s in r1.denominator:
                b = b * symbolic_bracket(3, s)
            c = Polynomial.constant(nv, 1)
            for s in r2.numerator:
                c = c * symbolic_bracket(3, s)
            d = Polynomial.constant(nv, 1)
            for s in r2.denominator:
                d = d * symbolic_bracket(3, s)
            product = RatioExpr.of(
                3, r1.numerator + r2.numerator, r1.denominator + r2.denominator
            )
            direct = ratio_difference_poly(product)
            assert direct == b * d - a * c
            assert direct == d * (b - a) + a * (d - c)

    def test_products_of_basics_stay_free(self):
        rng = random.Random(6)
        basics = basic_ratios_all(3)
        for _ in range(10):
            r1, r2 = rng.choice(basics).expr(), rng.choice(basics).expr()
            product = RatioExpr.of(
                3, r1.numerator + r2.numerator, r1.denominator + r2.denominator
            )
            assert is_subtraction_free(ratio_difference_poly(product)).subtraction_free


class TestMonomialOrder:
    def test_grlex_witness_is_least(self):
        x, y = var(4, 0), var(4, 3)
        poly = (
            Polynomial.constant(4, -1) * x * x * x
            - y
            - x * y
        )
        verdict = is_subtraction_free(poly)
        assert verdict.witness == Monomial((0, 0, 0, 1))

    def test_format(self):
        assert Monomial((1, 2, 0, 0)).format(2) == "L1*D1^2"
        assert Monomial((0, 0, 0, 0)).format(2) == "1"
