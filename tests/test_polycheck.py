"""Symbolic weight polynomials and the subtraction-freeness test."""

import random
from fractions import Fraction

import pytest

from tpratio import polycheck
from tpratio.budgets import MAX_DEGREE
from tpratio.combinatorics import IndexSet, RatioExpr, all_index_sets
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


def decoded(poly):
    """The terms as an exponent-tuple dict, `util.poly_mul`'s form."""
    return {polycheck._unpack(poly.nvars, k): v for k, v in poly.terms.items()}


def random_terms(rng, nv, max_degree):
    """A sparse exponent-tuple dict in ``nv`` variables: each monomial puts
    its degree, at most ``max_degree``, on one to three variables, so single
    exponents reach the top of their field."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * nv
        degree = rng.randint(0, max_degree)
        for v in rng.sample(range(nv), rng.randint(1, 3)):
            exps[v] = rng.randint(0, degree)
            degree -= exps[v]
        terms[tuple(exps)] = rng.choice((-3, -2, -1, 1, 2, 5))
    return terms


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
    `util.lgv_minors`."""

    def test_three_evaluators_agree(self):
        for n in range(1, 5):
            for seed in range(3):
                p = random_network(n, seed)
                m, values = network_matrix(p), flat_weights(p)
                for alpha in all_index_sets(n):
                    exact = plucker_eval(m, alpha)
                    assert util.lgv_minors(p, alpha) == exact, (n, seed, alpha)
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


class TestPackedKernel:
    """`Polynomial` keys monomials by packed ints; `util.poly_mul` and its
    neighbours redo the arithmetic on exponent tuples."""

    @pytest.mark.parametrize("nv", [4, 9, 16, 25])
    def test_random_polynomials_match_the_tuple_oracle(self, nv):
        rng = random.Random(nv)
        half = MAX_DEGREE // 2
        for _ in range(25):
            a, b = random_terms(rng, nv, half), random_terms(rng, nv, MAX_DEGREE - half)
            pa, pb = Polynomial(nv, a), Polynomial(nv, b)
            assert decoded(pa) == {e: c for e, c in a.items() if c}
            assert decoded(pa * pb) == util.poly_mul(a, b)
            assert decoded(pa + pb) == util.poly_add(a, b)
            assert decoded(pa - pb) == util.poly_add(a, util.poly_neg(b))
            assert decoded(-pa) == util.poly_neg(a)
            assert (pa - pa).is_zero
            values = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(nv))
            assert (pa * pb).evaluate(values) == util.poly_value(util.poly_mul(a, b), values)

    def test_single_exponents_fill_their_field(self):
        for nv in (4, 25):
            for i in range(nv):
                top = tuple(MAX_DEGREE if j == i else 0 for j in range(nv))
                low = tuple(MAX_DEGREE // 2 if j == i else 0 for j in range(nv))
                high = tuple(MAX_DEGREE - MAX_DEGREE // 2 if j == i else 0 for j in range(nv))
                assert decoded(Polynomial(nv, {top: 1})) == {top: 1}
                assert decoded(Polynomial(nv, {low: 2}) * Polynomial(nv, {high: 3})) == {top: 6}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bracket_products_match_the_tuple_oracle(self, n):
        rng = random.Random(n)
        sets = all_index_sets(n)
        for _ in range(15):
            polys = [symbolic_bracket(n, s) for s in rng.sample(sets, 3)]
            expected = decoded(Polynomial.constant(n * n, 1))
            product = Polynomial.constant(n * n, 1)
            for p in polys:
                expected = util.poly_mul(expected, decoded(p))
                product = product * p
            assert decoded(product) == expected
            first, second = decoded(polys[0]), decoded(polys[1])
            assert decoded(polys[0] - polys[1]) == util.poly_add(first, util.poly_neg(second))

    def test_degree_guard(self):
        nv = 4
        x, y = var(nv, 0), var(nv, 1)
        top = Polynomial(nv, {(MAX_DEGREE, 0, 0, 0): 1})
        assert top.degree == MAX_DEGREE
        assert (x + y).degree == 1 and Polynomial.zero(nv).degree == 0
        # an exponent past its field, and a total past the limit with every
        # exponent inside its field
        for exps in [(MAX_DEGREE + 1, 0, 0, 0), (MAX_DEGREE // 2 + 1, MAX_DEGREE // 2 + 1, 0, 0)]:
            with pytest.raises(BudgetExceeded, match=f"exceeds {MAX_DEGREE}"):
                Polynomial(nv, {exps: 1})
        for product in (lambda: top * y, lambda: top * (x + Polynomial.constant(nv, 1))):
            with pytest.raises(BudgetExceeded, match=f"exceeds degree {MAX_DEGREE}"):
                product()
        below = Polynomial(nv, {(MAX_DEGREE - 1, 0, 0, 0): 1})
        assert decoded(below * y) == {(MAX_DEGREE - 1, 1, 0, 0): 1}
        assert decoded(top + Polynomial(nv, {(0, MAX_DEGREE, 0, 0): -1})) == {
            (MAX_DEGREE, 0, 0, 0): 1,
            (0, MAX_DEGREE, 0, 0): -1,
        }

    def test_malformed_exponents(self):
        for exps in [(1, 0, 0), (1, -1, 0, 0)]:
            with pytest.raises(InvalidInput, match="need 4 nonnegative exponents"):
                Polynomial(4, {exps: 1})


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

    def test_grlex_witness_is_the_least_key(self):
        # the first variable sits in the most significant field under the
        # degree, so the least key is the graded-lex least monomial
        x, y, z = var(4, 0), var(4, 1), var(4, 2)
        poly = z * z * z - x * y - y * z - x * x * z
        assert polycheck._unpack(4, min(k for k, c in poly.terms.items() if c < 0)) == (0, 1, 1, 0)
        verdict = is_subtraction_free(poly)
        assert verdict.witness == Monomial((0, 1, 1, 0))
        assert verdict.witness_coefficient == -1

    def test_format(self):
        assert Monomial((1, 2, 0, 0)).format(2) == "L1*D1^2"
        assert Monomial((0, 0, 0, 0)).format(2) == "1"
