"""Exact matrices, the Grassmannian bridge, path families, and witnesses."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tpratio.cli import _entries
from tpratio.combinatorics import (
    Arc,
    IndexSet,
    RatioExpr,
    all_index_sets,
    base_set,
    check_condition_m,
    check_st0,
    cyclic_shift_ratio,
    minor_to_plucker,
    orientations,
    reversal_ratio,
)
from tpratio.errors import InvalidInput, NotTotallyPositive
from tpratio import (
    T_LADDER,
    Evidence,
    Inconclusive,
    NetworkParams,
    TPMatrix,
    counterexample_matrix,
    det,
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
    witness_matrix,
)
from tpratio.tpcore import grassmann, witnesses
from tpratio.tpcore.grassmann import bracket_table, ratio_value
from tpratio.tpcore.matrices import require_tp
from tpratio.tpcore.network import (
    chips,
    flat_weights,
    staircase_word,
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


def rational_rows(rng, n, denominators, numerators=range(-9, 10)):
    return [
        [Fraction(rng.choice(numerators), rng.choice(denominators)) for _ in range(n)]
        for _ in range(n)
    ]


class TestDet:
    """`det` eliminates over ints; `util.fraction_det` is the reference."""

    def test_examples(self):
        assert det([]) == 1
        assert det([[Fraction(-3, 4)]]) == Fraction(-3, 4)
        assert det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
        # the second pivot vanishes only after the first step, and needs a swap
        assert det(TPMatrix.of([[1, 2, 3], [2, 4, 5], [3, 5, 6]]).entries) == -1

    @pytest.mark.parametrize("n", range(9))
    def test_matches_fraction_elimination(self, n):
        rng = random.Random(n)
        for _ in range(40):
            mixed = rational_rows(rng, n, (1, 2, 3, 5, 7, 12))
            integer = rational_rows(rng, n, (1,))
            sparse = rational_rows(rng, n, (1, 3), numerators=(-1, 0, 0, 0, 1))
            cases = [mixed, integer, sparse]
            if n:
                zero_lead = [list(r) for r in mixed]
                zero_lead[0][0] = Fraction(0)
                zero_column = [r[:-1] + [Fraction(0)] for r in mixed]
                repeated = mixed[:-1] + [list(mixed[0])]
                cases += [zero_lead, zero_column, repeated]
            if n >= 3:
                combined = mixed[:-1] + [[a - 2 * b for a, b in zip(mixed[0], mixed[1])]]
                cases.append(combined)
            for rows in cases:
                assert det(rows) == util.fraction_det(rows), rows
            if n:
                assert det(zero_column) == 0
            if n >= 2:
                assert det(repeated) == 0
            if n >= 3:
                assert det(combined) == 0


class TestNetwork:
    def test_staircase_word(self):
        assert staircase_word(2) == (1,)
        assert staircase_word(3) == (1, 2, 1)
        assert staircase_word(4) == (1, 2, 1, 3, 2, 1)

    def test_all_ones_n2(self):
        m = network_matrix(util.all_ones_params(2))
        assert m.entries == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)))

    def test_weighted_n2(self):
        m = network_matrix(NetworkParams.of(2, [2], [1, 3], [4]))
        assert m.entries == ((Fraction(1), Fraction(4)), (Fraction(2), Fraction(11)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_transpose_swaps_lower_and_upper(self, n):
        p = random_network(n, 5, magnitude=4)
        swapped = network_matrix(NetworkParams(n, p.upper, p.diag, p.lower))
        assert swapped.entries == tuple(zip(*network_matrix(p).entries))

    def test_n1(self):
        m = network_matrix(NetworkParams.of(1, [], [5], []))
        assert m.entries == ((Fraction(5),),)

    @staticmethod
    def fraction_product(p):
        """The dense product of the layers' transfer matrices, read off
        `util.chip_entries` as the path-family oracle reads them."""
        n = p.rank
        product = tuple(tuple(Fraction(r == c) for c in range(n)) for r in range(n))
        for chip in chips(n, flat_weights(p)):
            layer = [[Fraction(0)] * n for _ in range(n)]
            for (r, c), weight in util.chip_entries(chip, n):
                layer[r - 1][c - 1] = weight
            product = util.mat_mul(product, layer)
        return TPMatrix(n, product)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_fraction_product(self, n):
        for magnitude in (1, 6, 64):
            for seed in range(4):
                p = random_network(n, seed, magnitude)
                assert network_matrix(p) == self.fraction_product(p)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_fraction_product_non_dyadic(self, n):
        pool = [Fraction(7, 3), Fraction(5, 12), Fraction(1, 9), Fraction(2), Fraction(11, 6)]
        k = n * (n - 1) // 2
        for seed in range(10):
            rng = random.Random(seed)
            draw = lambda count: [rng.choice(pool) for _ in range(count)]
            p = NetworkParams.of(n, draw(k), draw(n), draw(k))
            assert network_matrix(p) == self.fraction_product(p)

    def test_positive_weights_required(self):
        with pytest.raises(InvalidInput, match="network weight 0 is not positive"):
            NetworkParams.of(2, [0], [1, 1], [1])

    @pytest.mark.parametrize(
        "lower, diag, upper",
        [([1, 1], [1, 1], [1]), ([1], [1], [1]), ([1], [1, 1], [])],
        ids=["lower", "diag", "upper"],
    )
    def test_weight_counts_must_match_the_rank(self, lower, diag, upper):
        with pytest.raises(InvalidInput, match="need 1 lower, 2 diagonal, 1 upper weights"):
            NetworkParams.of(2, lower, diag, upper)

    @pytest.mark.parametrize("rank", [2.0, True, 0])
    def test_params_rank_must_be_a_positive_int(self, rank):
        one = (Fraction(1),)
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            NetworkParams(rank, one, one * 2, one)

    @pytest.mark.parametrize(
        "rank, entries", [(2.0, ((1, 2), (3, 4))), (True, ((1,),)), (0, ()), (-1, ())]
    )
    def test_matrix_rank_must_be_a_positive_int(self, rank, entries):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            TPMatrix(rank, grid)


def _tp_by_definition(matrix):
    """Every non-empty minor is positive, each by the reference elimination."""
    return all(
        util.fraction_det(util.sub_grid(matrix, alpha)) > 0
        for alpha in all_index_sets(matrix.rank)
        if alpha != base_set(matrix.rank)
    )


def _nudged(matrix):
    """Copies of a totally positive ``matrix`` with one entry moved, each
    with whether it is still totally positive.  Every minor is affine in
    the entry, so the entry keeps all of them positive on an open interval
    ``(lo, hi)``, with ``hi`` unbounded when no minor falls as it grows.
    The entry is moved to each end of the interval, and from there by half
    its distance to the nearer end, inward and outward."""
    n, rows = matrix.rank, matrix.entries
    for i, j in itertools.product(range(n), repeat=2):
        def with_entry(x):
            return TPMatrix(n, tuple(
                tuple(x if (r, c) == (i, j) else v for c, v in enumerate(row))
                for r, row in enumerate(rows)
            ))

        lo, hi = Fraction(0), None
        for alpha in all_index_sets(n):
            if i + 1 not in alpha or 2 * n - j in alpha:  # row i+1 or column j+1 is not in it
                continue
            value = lambda x: util.fraction_det(util.sub_grid(with_entry(x), alpha))
            a = value(Fraction(0))
            b = value(Fraction(1)) - a
            if b > 0:
                lo = max(lo, -a / b)
            elif b < 0:
                hi = -a / b if hi is None else min(hi, -a / b)
        x = rows[i][j]
        assert lo < x and (hi is None or x < hi)
        step = (x - lo) / 2 if hi is None else min(x - lo, hi - x) / 2
        for end, inward in ((lo, step), (hi, -step)):
            if end is not None:
                yield with_entry(end - inward), False
                yield with_entry(end), False
                yield with_entry(end + inward), True


class TestVerifyTp:
    def test_examples(self):
        assert verify_tp(TPMatrix.of([[1, 1], [1, 2]]))
        assert not verify_tp(TPMatrix.of([[1, 0], [0, 1]]))
        assert not verify_tp(TPMatrix.of([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_networks_are_tp(self, n):
        for seed in range(30):
            m = random_tp(n, seed)
            assert verify_tp(m) and _tp_by_definition(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nudged_entries_match_definition(self, n):
        """The initial minors decide total positivity (Gasca and Peña) even
        when one entry sits at, or just past, the edge of the TP region."""
        for seed in range(3):
            for copy, tp in _nudged(random_tp(n, seed)):
                assert verify_tp(copy) == _tp_by_definition(copy) == tp


class TestRandomTp:
    def test_deterministic(self):
        assert random_tp(3, 7) == random_tp(3, 7)
        assert random_tp(3, 7) != random_tp(3, 8)

    def test_many_seeds_tp_n4(self):
        for seed in range(100):
            assert verify_tp(random_tp(4, seed))

    def test_weights_are_powers_of_two_from_the_same_draws(self):
        for n in range(1, 9):
            k = n * (n - 1) // 2
            for magnitude in (1, 3, 6, 64):
                for seed in range(30):
                    rng = random.Random(seed)
                    draw = lambda count: tuple(
                        Fraction(2) ** rng.randint(-magnitude, magnitude) for _ in range(count)
                    )
                    expected = NetworkParams(n, draw(k), draw(n), draw(k))
                    assert repr(random_network(n, seed, magnitude)) == repr(expected)

    @pytest.mark.parametrize(
        "args, message",
        [
            # a bare TypeError from `range`
            ((2.0, 0), "rank must be a positive integer, got 2.0"),
            # a DeprecationWarning, then a bare ValueError from `random.randrange`
            ((3, 0, 2.5), "magnitude must be an integer, got 2.5"),
            # drew with magnitude 1
            ((3, 0, True), "magnitude must be an integer, got True"),
        ],
        ids=["float-rank", "float-magnitude", "bool-magnitude"],
    )
    def test_rank_and_magnitude_must_be_ints(self, args, message):
        for build in (random_network, random_tp):
            with pytest.raises(InvalidInput, match=message):
                build(*args)


class TestGrassmann:
    def test_lower_block_n2(self):
        rep = util.representative(TPMatrix.of([[1, 1], [1, 2]]))
        assert rep[2] == (Fraction(0), Fraction(1))
        assert rep[3] == (Fraction(-1), Fraction(0))

    def test_bracket_examples_n2(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
        values = {
            (1, 2): 1,
            (1, 3): 1,
            (1, 4): 1,
            (2, 3): 1,
            (2, 4): 2,
            (3, 4): 1,
        }
        for elems, expected in values.items():
            assert plucker_eval(m, iset(2, *elems)) == expected

    def test_base_bracket_is_one(self):
        for n in (2, 3, 4):
            m = random_tp(n, 5)
            assert plucker_eval(m, IndexSet.of(n, range(n + 1, 2 * n + 1))) == 1
            top = plucker_eval(m, IndexSet.of(n, range(1, n + 1)))
            assert top == util.fraction_det(m.entries)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bridge_identity_exhaustive(self, n):
        for seed in range(3):
            m = random_tp(n, seed)
            for alpha in all_index_sets(n):
                assert plucker_eval(m, alpha) == util.representative_bracket(m, alpha)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bridge_identity_arbitrary_matrices(self, n):
        # `eval --matrix` reads any matrix: negative entries, and singular
        # ones (a repeated row, a zero column, the all-zero matrix)
        rng = random.Random(n)
        entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        matrices = []
        for trial in range(6):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            if trial == 1:
                rows[-1] = rows[0]
            elif trial == 2:
                for row in rows:
                    row[n // 2] = Fraction(0)
            elif trial == 3:
                rows = [[Fraction(0)] * n for _ in range(n)]
            matrices.append(TPMatrix.of(rows))
        assert any(x < 0 for m in matrices for row in m.entries for x in row)
        for m in matrices:
            for alpha in all_index_sets(n):
                assert plucker_eval(m, alpha) == util.representative_bracket(m, alpha)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_brackets_positive(self, n):
        m = random_tp(n, 9)
        assert all(plucker_eval(m, a) > 0 for a in all_index_sets(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bracket_table_matches_plucker_eval(self, n):
        # the table must hold off TP too: mixed denominators, negative and
        # zero entries, repeated and linearly dependent rows
        rng = random.Random(n)
        matrices = [random_tp(n, seed, magnitude) for magnitude in (1, 6, 64) for seed in (0, 1)]
        for _ in range(3):
            mixed = rational_rows(rng, n, (1, 2, 3, 5, 7, 12))
            matrices.append(TPMatrix.of(mixed))
            matrices.append(TPMatrix.of(rational_rows(rng, n, (1, 4), numerators=(-1, 0, 0, 1))))
            if n >= 2:
                matrices.append(TPMatrix.of(mixed[:-1] + [mixed[0]]))
            if n >= 3:
                combined = [a - 2 * b for a, b in zip(mixed[0], mixed[1])]
                matrices.append(TPMatrix.of(mixed[:-1] + [combined]))
        if n == 4:
            for t in (Fraction(10) ** 8, Fraction(10) ** -8, Fraction(7, 3) ** 8, Fraction(3, 7) ** 8):
                matrices.append(counterexample_matrix(t))
        sets = all_index_sets(n)
        assert len(sets) == math.comb(2 * n, n)
        for m in matrices:
            table = bracket_table(m.entries, Fraction(0), Fraction(1))
            assert len(table) == len(sets)
            for s in sets:
                assert table[s.mask] == plucker_eval(m, s), (m, s)

    def test_minor_conventions(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
        assert plucker_eval(m, minor_to_plucker(2, [], [])) == 1
        assert plucker_eval(m, minor_to_plucker(2, [1, 2], [1, 2])) == 1
        assert plucker_eval(m, minor_to_plucker(2, [2], [1])) == 1
        assert plucker_eval(m, minor_to_plucker(2, [2], [2])) == 2

    def test_eval_ratio_examples(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
        assert eval_ratio(m, ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)])) == Fraction(1, 2)
        assert eval_ratio(m, ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)])) == 1

    def test_eval_ratio_evaluates_each_bracket_once(self, monkeypatch):
        calls = []
        counted = lambda m, alpha: calls.append(alpha) or plucker_eval(m, alpha)
        monkeypatch.setattr(grassmann, "plucker_eval", counted)
        m = TPMatrix.of([[1, 1], [1, 2]])
        r = ratio(2, [(1, 4), (2, 3), (1, 4), (1, 4)], [(1, 3), (2, 4), (1, 3), (2, 4)])
        assert eval_ratio(m, r) == Fraction(1, 4)
        assert len(calls) == 4  # one per distinct bracket, not one per occurrence
        calls.clear()
        singular = TPMatrix.of([[1, 1], [1, 1]])  # bracket [1,2] is det = 0
        with pytest.raises(InvalidInput, match="vanishes"):
            eval_ratio(singular, ratio(2, [(1, 3), (1, 3)], [(1, 3), (1, 2)]))
        assert len(calls) == 2


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_plucker_eval_is_the_minor_it_names(self, n):
        # `plucker_eval` reads the sub-grid through `minor_address`;
        # `util.sub_grid` reads it off the labels, and `util.fraction_det`
        # is the reference elimination
        matrices = [random_tp(n, seed, magnitude) for seed in (0, 1) for magnitude in (3, 64)]
        for s in range(1, n + 1):
            for k in range(1, s + 1):
                matrices += [witness_family(n, s, k, t) for t in (T_LADDER[0], T_LADDER[-1])]
        for m in matrices:
            for alpha in all_index_sets(n):
                expected = util.fraction_det(util.sub_grid(m, alpha))
                assert plucker_eval(m, alpha) == expected, (m, alpha)

    def test_plucker_eval_checks_the_rank(self):
        with pytest.raises(InvalidInput, match="bracket rank 3 vs matrix rank 2"):
            plucker_eval(TPMatrix.of([[1, 1], [1, 2]]), iset(3, 1, 2, 3))

    def test_ratio_value_reads_each_distinct_bracket_once(self):
        m = random_tp(3, 4)
        sets = all_index_sets(3)
        rng = random.Random(3)
        for _ in range(20):
            num = [rng.choice(sets[:6]) for _ in range(rng.randint(1, 6))]
            den = [rng.choice(sets[3:9]) for _ in range(rng.randint(1, 6))]
            r = RatioExpr.of(3, num, den)
            calls = []
            value = ratio_value(r, lambda s: calls.append(s) or plucker_eval(m, s))
            assert sorted(calls) == sorted(set(r.numerator + r.denominator))
            above = util.product_of_values(plucker_eval(m, s) for s in r.numerator)
            below = util.product_of_values(plucker_eval(m, s) for s in r.denominator)
            assert value == above / below

    def test_ratio_value_vanishing_denominator_text(self):
        r = ratio(2, [(1, 3), (2, 4)], [(1, 2), (1, 3)])
        singular = {(1, 2): Fraction(0), (1, 3): Fraction(2, 3), (2, 4): Fraction(5)}
        with pytest.raises(InvalidInput) as caught:
            ratio_value(r, lambda s: singular[s.elements])
        assert str(caught.value) == "denominator of [1,3][2,4]/[1,2][1,3] vanishes on this matrix"

    def test_eval_ratio_matches_a_running_fraction_product(self):
        # one Fraction built from integer products equals the quotient of
        # running Fraction products, on matrices of any sign, with repeats
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 4)
            m = TPMatrix.of(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            )
            sets = all_index_sets(n)
            num = [rng.choice(sets) for _ in range(rng.randint(0, 6))]
            den = [rng.choice(sets) for _ in range(rng.randint(0, 6))]
            r = RatioExpr.of(n, num, den)
            below = util.product_of_values(plucker_eval(m, s) for s in den)
            if below == 0:
                with pytest.raises(InvalidInput, match="vanishes"):
                    eval_ratio(m, r)
                continue
            above = util.product_of_values(plucker_eval(m, s) for s in num)
            assert repr(eval_ratio(m, r)) == repr(above / below)


class TestShortPlucker:
    @pytest.mark.parametrize("n", [2, 3])
    def test_relation_everywhere(self, n):
        labels = range(1, 2 * n + 1)
        for seed in range(5):
            m = random_tp(n, seed + 20)
            for quad in itertools.combinations(labels, 4):
                i1, i2, j1, j2 = quad
                rest = [e for e in labels if e not in quad]
                for core in itertools.combinations(rest, n - 2):
                    br = lambda *xs: plucker_eval(m, IndexSet.of(n, xs + core))
                    assert br(i1, i2) * br(j1, j2) + br(i1, j2) * br(i2, j1) == br(
                        i1, j1
                    ) * br(i2, j2)


class TestShiftReverse:
    @pytest.mark.parametrize("n", [2, 3])
    def test_st0_ratio_invariance(self, n):
        rng = random.Random(n)
        ratios = [r for r in util.st0_ratios(n)]
        for trial in range(25):
            r = rng.choice(ratios)
            m = random_tp(n, trial)
            value = eval_ratio(m, r)
            assert eval_ratio(shift_matrix(m), cyclic_shift_ratio(r)) == value
            assert eval_ratio(reverse_matrix(m), reversal_ratio(r)) == value

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_representative_oracle(self, n):
        for magnitude in (3, 20):
            for seed in range(4):
                m = random_tp(n, seed, magnitude)
                assert repr(shift_matrix(m)) == repr(util.shift_oracle(m))
                assert repr(reverse_matrix(m)) == repr(util.reverse_oracle(m))

    def test_outputs_are_tp(self):
        for n in range(1, 7):
            for magnitude in (3, 20):
                for seed in range(4):
                    m = random_tp(n, seed, magnitude)
                    assert verify_tp(shift_matrix(m))
                    assert verify_tp(reverse_matrix(m))

    def test_rejects_non_tp(self):
        with pytest.raises(NotTotallyPositive):
            shift_matrix(TPMatrix.of([[1, 0], [0, 1]]))
        with pytest.raises(NotTotallyPositive):
            reverse_matrix(TPMatrix.of([[1, 2], [2, 1]]))


class TestWitnessFamily:
    def test_parameter_validation(self):
        with pytest.raises(InvalidInput, match="got k=3, s=2, n=3"):
            witness_family(3, 2, 3, Fraction(2))
        with pytest.raises(InvalidInput, match="got k=1, s=4, n=3"):
            witness_family(3, 4, 1, Fraction(2))
        with pytest.raises(InvalidInput, match="the scale parameter must be positive"):
            witness_family(3, 2, 1, Fraction(0))

    @pytest.mark.parametrize("n, s, k", [(3.0, 2, 1), (3, 2.0, 1), (3, 2, 1.0), (3, True, True)])
    def test_sizes_must_be_exactly_int(self, n, s, k):
        # 3.0 reached the network layers and raised a bare TypeError there
        with pytest.raises(InvalidInput, match="n, s and k must be integers"):
            witness_family(n, s, k, Fraction(2))

    def test_members_are_tp(self):
        for s in (1, 2, 3):
            for k in range(1, s + 1):
                assert verify_tp(witness_family(3, s, k, Fraction(1)))
                assert verify_tp(witness_family(3, s, k, Fraction(7, 3)))

    def test_degree_law_n3(self):
        points = [Fraction(v) for v in (1, 2, 4, 8, 16)]
        for s in (1, 2, 3):
            for k in range(1, s + 1):
                mats = [(t, witness_family(3, s, k, t)) for t in points]
                for alpha in all_index_sets(3):
                    samples = [(t, plucker_eval(m, alpha)) for t, m in mats]
                    expected = min(k, sum(1 for e in alpha if e <= s))
                    assert util.poly_degree_from_samples(samples) == expected

    @staticmethod
    def _dense_block_formula(n, s, k, t):
        """block-diag(G * diag(t,..,t,1,..,1) * H, I) * C from dense all-ones
        network matrices G = H (rank s) and C (rank n)."""
        g = network_matrix(util.all_ones_params(s)).entries
        scaled = tuple(tuple(x * (t if c < k else 1) for c, x in enumerate(row)) for row in g)
        top = util.mat_mul(scaled, g)
        block = tuple(
            tuple(top[r][c] if max(r, c) < s else Fraction(r == c) for c in range(n))
            for r in range(n)
        )
        return util.mat_mul(block, network_matrix(util.all_ones_params(n)).entries)

    def test_matches_dense_block_formula(self):
        for n in range(1, 6):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    for t in (Fraction(1), Fraction(7, 3), Fraction(10) ** 4):
                        expected = self._dense_block_formula(n, s, k, t)
                        assert witness_family(n, s, k, t).entries == expected

    def test_monotone_growth_on_failing_ratio(self):
        r = ratio(2, [(1, 3), (2, 4)], [(1, 4), (2, 3)])
        values = [
            eval_ratio(witness_family(2, 2, 1, t), cyclic_shift_ratio(r))
            for t in (Fraction(10), Fraction(100), Fraction(1000), Fraction(10000))
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestCounterexample:
    def test_entries_at_one(self):
        m = counterexample_matrix(Fraction(1))
        assert m.entries[0] == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))

    def test_matches_entry_table(self):
        """The network at monomial weights equals the Laurent-polynomial table."""
        rng = random.Random(3)
        points = [Fraction(10) ** e for e in range(-8, 9)] + [Fraction(1), Fraction(7, 3)]
        points += [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(20)]
        for t in points:
            u = 1 / t
            table = [
                [1, 3 * u, 3 * u**2, u],
                [2 + u, 1 + 6 * u + 3 * u**2, 2 * u + 6 * u**2 + 3 * u**3, 1 + 2 * u + u**2],
                [t + 2, t + 4 + 6 * u, 3 + 5 * u + 6 * u**2, 2 * t + 2 + 2 * u],
                [t, t + 3, t + 2 + 3 * u, t**2 + t + 2],
            ]
            assert counterexample_matrix(t) == TPMatrix.of(table)

    def test_tp_at_1_and_10(self):
        assert verify_tp(counterexample_matrix(Fraction(1)))
        assert verify_tp(counterexample_matrix(Fraction(10)))

    @pytest.mark.parametrize("t", [0, Fraction(-1, 2)])
    def test_scale_must_be_positive(self, t):
        with pytest.raises(InvalidInput, match="the scale parameter must be positive"):
            counterexample_matrix(t)

    def test_ratio_grows_without_bound(self):
        assert check_st0(UNBOUNDED_3OVER3).holds
        assert check_condition_m(UNBOUNDED_3OVER3).holds
        values = [
            eval_ratio(counterexample_matrix(Fraction(10) ** e), UNBOUNDED_3OVER3)
            for e in (0, 2, 4)
        ]
        assert values[0] < values[1] < values[2]


class TestLgv:
    def test_examples_n2(self):
        p = util.all_ones_params(2)
        assert util.lgv_minors(p, minor_to_plucker(2, [1, 2], [1, 2])) == 1
        assert util.lgv_minors(p, minor_to_plucker(2, [2], [2])) == 2
        assert util.lgv_minors(p, minor_to_plucker(2, [], [])) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_exhaustive(self, n):
        p = random_network(n, 42, magnitude=2)
        m = network_matrix(p)
        for alpha in all_index_sets(n):
            assert util.lgv_minors(p, alpha) == plucker_eval(m, alpha)

    def test_oracle_equivalence_sampled_n4(self):
        p = random_network(4, 17, magnitude=2)
        m = network_matrix(p)
        rng = random.Random(4)
        for alpha in rng.sample(all_index_sets(4), 50):
            assert util.lgv_minors(p, alpha) == plucker_eval(m, alpha)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_equivalence_at_search_magnitude_n4(self, seed):
        """All 70 minors at the random search's magnitude."""
        p = random_network(4, seed, magnitude=6)
        m = network_matrix(p)
        sets = all_index_sets(4)
        assert len(sets) == 70
        for alpha in sets:
            assert util.lgv_minors(p, alpha) == plucker_eval(m, alpha)


@pytest.fixture
def cold_families():
    """`falsify`'s process-level families, emptied before the test and
    after it, so that nothing a test builds or patches outlives it."""
    families = (witnesses._rung_table, witnesses._random_trials)
    for family in families:
        family.cache_clear()
    yield families
    for family in families:
        family.cache_clear()


class TestFalsify:
    def test_failing_ratio_yields_witness(self):
        out = falsify(ratio(2, [(1, 3), (2, 4)], [(1, 4), (2, 3)]))
        assert isinstance(out, Evidence)
        assert out.family == "degree-gap"
        assert out.peak > 1000
        assert out.increasing

    def test_counterexample_route(self):
        out = falsify(UNBOUNDED_3OVER3)
        assert isinstance(out, Evidence)
        assert out.family == "counterexample-family"
        assert out.increasing and out.peak > 1000

    def test_counterexample_member_built_once_per_rung(self, monkeypatch, cold_families):
        rungs, tables = [], []
        build = witnesses.counterexample_matrix
        counted = lambda t: rungs.append(t) or build(t)
        monkeypatch.setattr(witnesses, "counterexample_matrix", counted)
        tabulate = witnesses.bracket_table
        counted_tables = lambda *args: tables.append(args) or tabulate(*args)
        monkeypatch.setattr(witnesses, "bracket_table", counted_tables)
        query = ratio(4, [(1, 2, 3, 4), (1, 4, 6, 7)], [(1, 2, 4, 7), (1, 3, 4, 6)])
        out = falsify(query)
        assert isinstance(out, Inconclusive)
        assert set(T_LADDER) <= set(rungs)
        assert len(rungs) == len(set(rungs))  # shared by all 16 orientations
        assert len(tables) == len(set(rungs))
        built = len(rungs)
        assert falsify(query) == out
        assert len(rungs) == len(tables) == built  # and by every later call

    @pytest.mark.parametrize("n", [3, 4])
    def test_gap_arc_is_the_screen_witness(self, n):
        """On every two-over-two ST0 ratio the arc `falsify` builds its
        degree-gap family on is the arc `check_condition_m` reports."""
        failing = 0
        for r in util.st0_ratios(n):
            verdict, found = check_condition_m(r), witnesses._gap_arc(r)
            assert (found is None) == verdict.holds, r
            if found is not None:
                assert found[0] == verdict.witness, r
                failing += 1
        assert failing > 0

    def test_random_search_route(self):
        # rank 5 has no counterexample family, and this ratio's degree-gap
        # ladder stays under the threshold; seed 14 of the random search
        # crosses it, and the evidence carries the largest value found
        r = ratio(5, [(3, 5, 6, 7, 10), (3, 4, 5, 6, 8)], [(3, 5, 6, 8, 10), (3, 4, 5, 6, 7)])
        out = falsify(r)
        assert isinstance(out, Evidence)
        assert out.family == "random-search"
        assert out.detail == (("trials", witnesses.RANDOM_TRIALS),)
        values = [eval_ratio(random_tp(5, s, magnitude=6), r) for s in range(witnesses.RANDOM_TRIALS)]
        assert out.trace == ((Fraction(14), max(values)),)
        assert out.peak == max(values) > witnesses.THRESHOLD

    def test_bounded_ratio_inconclusive(self):
        out = falsify(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))
        assert isinstance(out, Inconclusive)
        assert any("no degree gap" in a for a in out.attempts)


# every rung `falsify` can reach: `T_LADDER` and all its extensions
FULL_LADDER = (
    *T_LADDER,
    *(T_LADDER[-1] * 10**e for e in range(1, witnesses.LADDER_EXTENSIONS + 1)),
)


def _matrix_side(m, rotation, mirrored):
    """The matrix-side orientation: `reverse_matrix` if mirrored, then
    ``(2n - rotation) mod 2n`` times `shift_matrix`."""
    n2 = 2 * m.rank
    if mirrored:
        m = reverse_matrix(m)
    for _ in range((n2 - rotation) % n2):
        m = shift_matrix(m)
    return m


class TestFalsifyOrientation:
    """`falsify` applies the symmetries to the ratio; its values must be the
    ones the matrix-side transforms give."""

    def test_counterexample_orbit_matches_matrix_side(self):
        mirror_first_differs = 0
        for member in util.orbit(UNBOUNDED_3OVER3):
            out = falsify(member)
            assert isinstance(out, Evidence)
            assert out.family == "counterexample-family"
            detail = dict(out.detail)
            rotation, mirrored = detail["rotation"], bool(detail["mirrored"])
            for t, value in out.trace:
                m = counterexample_matrix(t)
                assert eval_ratio(_matrix_side(m, rotation, mirrored), member) == value
                if mirrored:
                    # the other order: rotate the matrix first, then mirror it
                    shifted = _matrix_side(m, rotation, False)
                    mirror_first_differs += (
                        eval_ratio(reverse_matrix(shifted), member) != value
                    )
        assert mirror_first_differs > 0

    def test_degree_gap_matches_witness_matrix(self):
        rng = random.Random(5)
        checked = {3: 0, 4: 0}
        starts = set()
        for _ in range(200):
            r = util.random_st0_ratio(rng.choice([3, 4]), rng)
            if r is None or check_condition_m(r).holds or checked[r.rank] == 4:
                continue
            out = falsify(r)
            if not isinstance(out, Evidence) or out.family != "degree-gap":
                continue
            detail = dict(out.detail)
            arc = Arc(r.rank, detail["start"], detail["s"])
            for t, value in out.trace:
                assert eval_ratio(witness_matrix(r, arc, detail["k"], t), r) == value
            checked[r.rank] += 1
            starts.add(arc.start)
        assert checked == {3: 4, 4: 4}
        assert len(starts) > 1

    def test_sweep_reads_every_orientation_from_the_rung_table(self, monkeypatch, cold_families):
        rng = random.Random(14)
        screened = []
        while len(screened) < 20:
            r = util.random_st0_ratio(4, rng)
            if r is not None and check_condition_m(r).holds:
                screened.append(r)
        ratios = util.orbit(UNBOUNDED_3OVER3) + screened
        members = {t: counterexample_matrix(t) for t in FULL_LADDER}
        tables = {t: bracket_table(m.entries, Fraction(0), Fraction(1)) for t, m in members.items()}
        for r in ratios:
            for _, _, image in orientations(r):
                for t, table in tables.items():
                    read = ratio_value(image, lambda s: table[s.mask])
                    assert read == eval_ratio(members[t], image), (image, t)
        outcomes = [falsify(r) for r in ratios]
        assert {type(out) for out in outcomes} == {Evidence, Inconclusive}
        single = lambda grid, zero, one: {
            s.mask: plucker_eval(TPMatrix(len(grid), grid), s) for s in all_index_sets(len(grid))
        }
        monkeypatch.setattr(witnesses, "bracket_table", single)
        witnesses._rung_table.cache_clear()
        assert [falsify(r) for r in ratios] == outcomes
        assert witnesses._rung_table.cache_info().currsize >= len(T_LADDER)  # from `single`

    def test_falsify_transforms_no_matrix(self, monkeypatch):
        inconclusive = ratio(
            4, [(1, 2, 3, 4), (1, 4, 6, 7)], [(1, 2, 4, 7), (1, 3, 4, 6)]
        )
        member = util.orbit(UNBOUNDED_3OVER3)[11]
        expected = [falsify(r) for r in (member, inconclusive)]
        assert isinstance(expected[0], Evidence)
        assert isinstance(expected[1], Inconclusive)

        def forbidden(*args, **kwargs):
            raise AssertionError("falsify transformed or re-checked a matrix")

        for attr, original in (
            ("require_tp", require_tp),
            ("shift_matrix", shift_matrix),
            ("reverse_matrix", reverse_matrix),
        ):
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "tpratio" and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, forbidden)
        assert [falsify(r) for r in (member, inconclusive)] == expected


def _seeded_batch():
    """Two-over-two ST0 ratios at ranks 2 to 5, screen-passing and not, plus
    the unbounded three-over-three ratio and one mirror image of it."""
    rng = random.Random(23)
    batch = [UNBOUNDED_3OVER3, reversal_ratio(UNBOUNDED_3OVER3)]
    for rank in (2, 3, 4, 5):
        drawn = 0
        while drawn < 6:
            r = util.random_st0_ratio(rank, rng)
            if r is not None:
                batch.append(r)
                drawn += 1
    return batch


class TestFalsifierFamilies:
    """The counterexample rung tables and the random-search matrices are
    built once per process; what they hold must be what `falsify` would
    build fresh, and no call may see another's effects."""

    def test_random_trials_equal_fresh_builds(self, cold_families):
        for n in (2, 3, 4, 5):
            trials = witnesses._random_trials(n)
            assert len(trials) == witnesses.RANDOM_TRIALS
            for seed, m in enumerate(trials):
                assert m == random_tp(n, seed, magnitude=6), (n, seed)

    def test_rung_tables_equal_fresh_builds(self, cold_families):
        assert len(FULL_LADDER) == len(T_LADDER) + witnesses.LADDER_EXTENSIONS
        for t in FULL_LADDER:
            m = counterexample_matrix(t)
            expected = {s.mask: plucker_eval(m, s) for s in all_index_sets(4)}
            assert dict(witnesses._rung_table(t)) == expected, t

    def test_rung_table_is_read_only(self, cold_families):
        table = witnesses._rung_table(T_LADDER[0])
        mask, value = next(iter(table.items()))
        with pytest.raises(TypeError):
            table[mask] = value + 1
        with pytest.raises(TypeError):
            del table[mask]
        assert witnesses._rung_table(T_LADDER[0])[mask] == value

    def test_families_stay_bounded(self, cold_families):
        rung_tables, random_trials = cold_families
        batch = _seeded_batch()
        outcomes = [falsify(r) for r in batch]
        assert {type(out) for out in outcomes} == {Evidence, Inconclusive}
        ranks_seen = {r.rank for r in batch}
        assert len(T_LADDER) <= rung_tables.cache_info().currsize <= len(FULL_LADDER)
        assert 1 <= random_trials.cache_info().currsize <= len(ranks_seen)

    def test_outcomes_do_not_depend_on_call_order(self, cold_families):
        batch = _seeded_batch()
        forward = [falsify(r) for r in batch]
        backward = [falsify(r) for r in reversed(batch)]
        assert backward[::-1] == forward

    def test_import_builds_neither_family(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import tpratio.cli, tpratio.tpcore.witnesses as w\n"
            "print(w._rung_table.cache_info().currsize, w._random_trials.cache_info().currsize)"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


class TestSerialization:
    def test_matrix_string_round_trip(self):
        m = random_tp(3, 12)
        again = TPMatrix.of(_entries(m))
        assert again.entries == m.entries
