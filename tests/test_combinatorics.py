"""Index-set arithmetic, the counting screen, and the majorization screen."""

import itertools
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from tpratio.combinatorics import (
    Arc,
    ExponentVector,
    IndexSet,
    RatioExpr,
    all_index_sets,
    arcs_up_to_half,
    base_set,
    check_condition_m,
    check_st0,
    cyclic_shift,
    cyclic_shift_ratio,
    degree_gap,
    m_vector,
    minor_address,
    minor_to_plucker,
    orientations,
    reversal,
    reversal_ratio,
)
from tpratio.errors import InvalidInput
from tpratio.factorizer import basic_ratios_all
from tpratio.polycheck import is_subtraction_free, ratio_difference_poly

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


class TestIndexSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSet(2, (1, 1))
        with pytest.raises(ValueError):
            IndexSet(2, (1, 5))
        with pytest.raises(ValueError):
            IndexSet(2, (1, 2, 3))
        for elements in ((1.5, 3), (1.0, 3.0), (True, 3), (1, Fraction(3))):
            with pytest.raises(InvalidInput, match="must be integers"):
                IndexSet(2, elements)

    @pytest.mark.parametrize("rank, elements", [(2.0, (1, 3)), (True, (1,)), (Fraction(2), (1, 3))])
    def test_rank_must_be_exactly_int(self, rank, elements):
        # 2.0 == 2 and True == 1, so such a set would equal and hash as an int-rank one
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            IndexSet(rank, elements)

    def test_elements_must_be_a_tuple(self):
        # a list would build, then fail to hash with a bare TypeError
        with pytest.raises(InvalidInput, match="elements must be a tuple"):
            IndexSet(2, [1, 3])

    def test_ordering_and_hash(self):
        a, b = iset(2, 1, 3), iset(2, 1, 3)
        assert a == b and hash(a) == hash(b)
        assert iset(2, 1, 2) < iset(2, 1, 3) < iset(2, 2, 3)

    def test_base_set(self):
        assert base_set(3).elements == (4, 5, 6)


class TestMinorBridge:
    def test_minor_to_plucker_examples(self):
        assert minor_to_plucker(2, [1], [1]) == iset(2, 1, 3)
        assert minor_to_plucker(3, [1, 2, 3], [1, 2, 3]) == iset(3, 1, 2, 3)
        assert minor_to_plucker(2, [], []) == iset(2, 3, 4)
        assert minor_to_plucker(4, [3, 1, 2], (4, 2, 3)) == iset(4, 1, 2, 3, 8)  # sorted first

    def test_minor_address_examples(self):
        assert minor_address(iset(2, 1, 3)) == ((1,), (1,))
        assert minor_address(iset(2, 3, 4)) == ((), ())
        assert minor_address(iset(4, 1, 2, 3, 8)) == ((1, 2, 3), (2, 3, 4))
        assert minor_to_plucker(4, (1, 2, 3), (2, 3, 4)) == iset(4, 1, 2, 3, 8)

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            ([1, 2], [1], r"row set \(1, 2\) and column set \(1,\) differ in size"),
            ([3], [1], r"rows outside \[1, 2\]: \(3,\)"),
            ([0], [1], r"rows outside \[1, 2\]: \(0,\)"),
            ([1], [3], r"cols outside \[1, 2\]: \(3,\)"),
            ([2, 2], [1, 2], r"rows must be strictly increasing: \(2, 2\)"),
            ([1, 2], [1, 1], r"cols must be strictly increasing: \(1, 1\)"),
        ],
    )
    def test_minor_to_plucker_rejects(self, rows, cols, message):
        with pytest.raises(InvalidInput, match=message):
            minor_to_plucker(2, rows, cols)

    @pytest.mark.parametrize(
        "rank",
        [
            2.0,  # a bare TypeError from `range`
            0,  # "rows outside [1, 0]: (1,)", blaming the rows
        ],
        ids=["float", "zero"],
    )
    def test_minor_to_plucker_checks_its_rank(self, rank):
        with pytest.raises(InvalidInput, match=f"rank must be a positive integer, got {rank!r}"):
            minor_to_plucker(rank, (1,), (1,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        labels = range(1, n + 1)
        pairs = [
            (rows, cols)
            for size in range(n + 1)
            for rows in itertools.combinations(labels, size)
            for cols in itertools.combinations(labels, size)
        ]
        assert len(pairs) == len(all_index_sets(n))
        for rows, cols in pairs:
            assert minor_address(minor_to_plucker(n, rows, cols)) == (rows, cols)
        for alpha in all_index_sets(n):
            assert minor_to_plucker(n, *minor_address(alpha)) == alpha


class TestShiftAndReversal:
    def test_examples(self):
        assert cyclic_shift(iset(2, 1, 4)) == iset(2, 1, 2)
        assert cyclic_shift(iset(2, 3, 4)) == iset(2, 1, 4)
        assert reversal(iset(2, 1, 3)) == iset(2, 2, 4)
        assert reversal(iset(3, 1, 2, 3)) == iset(3, 4, 5, 6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijections_exhaustive(self, n):
        sets = all_index_sets(n)
        assert sorted(cyclic_shift(a) for a in sets) == sets
        assert sorted(reversal(a) for a in sets) == sets
        for a in sets:
            out = a
            for _ in range(2 * n):
                out = cyclic_shift(out)
            assert out == a
            assert reversal(reversal(a)) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_step_count_is_repeated_single_shifts(self, n):
        # single shifts have period 2n (above), so k steps are k mod 2n of them
        for a in all_index_sets(n):
            singles = [a]
            for _ in range(2 * n - 1):
                singles.append(cyclic_shift(singles[-1]))
            for k in range(-2 * n, 2 * n + 1):
                assert cyclic_shift(a, k) == singles[k % (2 * n)], (a, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_masks_move_as_the_elements_do(self, n):
        # every result is the one shared set of its value, so equal results
        # are one object
        shared = {}
        for a in all_index_sets(n):
            moved = [(reversal(a), util.mirror_elements(a))]
            moved += [
                (cyclic_shift(a, k), util.shift_elements(a, k))
                for k in range(-2 * n - 1, 2 * n + 2)
            ]
            for got, expected in moved:
                assert got == expected, (a, got, expected)
                assert got.mask == expected.mask
                assert shared.setdefault(got, got) is got

    @pytest.mark.parametrize("steps", [2.0, True, False, Fraction(2), "2", None])
    def test_steps_must_be_exactly_int(self, steps):
        with pytest.raises(InvalidInput, match="steps must be an integer"):
            cyclic_shift(iset(2, 1, 3), steps)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_orientations_rotate_then_mirror(self, rank):
        rng = random.Random(rank)
        for _ in range(5):
            r = util.random_shared_split_ratio(rank, rng)
            images = orientations(r)
            assert isinstance(images, types.GeneratorType)  # `falsify` stops at the first climb
            assert list(images) == [
                (rotation, mirrored, reversal_ratio(rotated) if mirrored else rotated)
                for rotation in range(2 * rank)
                for rotated in [cyclic_shift_ratio(r, rotation)]
                for mirrored in (False, True)
            ]

    @pytest.mark.parametrize("rank, count", [(2, 2), (3, 18), (4, 120), (5, 700)])
    def test_orientations_map_the_generators_onto_themselves(self, rank, count):
        # so each symmetry maps a cone certificate to a cone certificate
        basics = basic_ratios_all(rank)
        vectors = {b.vector() for b in basics}
        assert len(basics) == len(vectors) == count
        symmetries = list(zip(*(orientations(b.expr()) for b in basics)))
        assert len(symmetries) == 4 * rank
        for images in symmetries:
            assert {ExponentVector.of_ratio(image) for _, _, image in images} == vectors


class TestSt0:
    def test_holds(self):
        assert check_st0(ratio(2, [(1, 2), (3, 4)], [(1, 3), (2, 4)])).holds
        assert check_st0(UNBOUNDED_3OVER3).holds

    def test_fails_with_witness(self):
        verdict = check_st0(ratio(2, [(1, 2), (1, 2)], [(1, 2), (3, 4)]))
        assert not verdict.holds
        assert verdict.witness == 1
        assert (verdict.numerator_count, verdict.denominator_count) == (2, 1)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_splits_are_the_filtered_combinations(self, rank):
        # `util.random_st0_ratio` draws from `util.st0_splits`; the same
        # list in the same order keeps every seeded draw as it was when it
        # filtered all C(2n, n) combinations
        labels = range(1, 2 * rank + 1)
        rng = random.Random(rank)
        pools = [sorted((*labels[:rank], *labels[:rank])), sorted(labels)]  # all or no label doubled
        pools += [sorted((*rng.sample(labels, rank), *rng.sample(labels, rank))) for _ in range(30)]
        for pool in pools:
            filtered = [
                c
                for c in itertools.combinations(range(2 * rank), rank)
                if len({pool[i] for i in c}) == rank
                and len({pool[i] for i in range(2 * rank) if i not in c}) == rank
            ]
            assert util.st0_splits(pool) == filtered, pool


class TestMajorization:
    def test_examples(self):
        assert util.majorizes((2, 0), (1, 1))
        assert not util.majorizes((1, 1), (2, 0))
        assert util.majorizes((2, 1), (2, 1))
        assert util.majorizes((3,), (1, 1, 1))
        assert degree_gap((1, 1), (2, 0)) == 1
        assert degree_gap((2, 0), (1, 1)) is None
        assert degree_gap((2, 1), (2, 1)) is None
        assert degree_gap((2, 2), (3, 1)) == 2
        assert degree_gap((), ()) is None

    def test_conjugation_duality(self):
        """Every pair of profiles of 1-4 sets on an arc of length 1-5: with
        equal totals, ``x`` majorizes ``y`` exactly when `degree_gap` finds
        no ``k``, and a ``k`` it finds is the least one."""
        for length in range(1, 6):
            for sets in range(1, 5):
                profiles = list(
                    itertools.combinations_with_replacement(range(length, -1, -1), sets)
                )
                for x, y in itertools.product(profiles, repeat=2):
                    k = degree_gap(x, y)
                    if sum(x) == sum(y):
                        assert (k is None) == util.majorizes(x, y), (x, y)
                    exceeds = [
                        sum(min(a, j) for a in x) > sum(min(b, j) for b in y)
                        for j in range(1, length + 1)
                    ]
                    assert k == (exceeds.index(True) + 1 if any(exceeds) else None), (x, y)


class TestArcs:
    def test_members_wrap(self):
        assert Arc(2, 4, 2).members == (1, 4)
        assert Arc(2, 2, 2).members == (2, 3)

    @pytest.mark.parametrize(
        "start, length, message",
        [
            (0, 2, r"start outside \[1, 4\]: 0"),
            (5, 2, r"start outside \[1, 4\]: 5"),
            (1, 0, r"length outside \[1, 3\]: 0"),
            (1, 4, r"length outside \[1, 3\]: 4"),
        ],
    )
    def test_range_checks(self, start, length, message):
        with pytest.raises(InvalidInput, match=message):
            Arc(2, start, length)

    @pytest.mark.parametrize(
        "rank, start, length, message",
        [
            (2.0, 1, 1, "rank must be a positive integer"),  # built, with members (1.0,)
            (True, 1, 1, "rank must be a positive integer"),
            (0, 1, 1, "rank must be a positive integer"),
            (2, 1.0, 1, "start and length must be integers"),
            (2, True, 1, "start and length must be integers"),
            (2, 1, 1.0, "start and length must be integers"),
        ],
    )
    def test_rank_start_and_length_must_be_exactly_int(self, rank, start, length, message):
        with pytest.raises(InvalidInput, match=message):
            Arc(rank, start, length)

    @pytest.mark.parametrize("n, count", [(2, 8), (3, 18), (4, 32)])
    def test_counts(self, n, count):
        arcs = arcs_up_to_half(n)
        assert len(arcs) == count == 2 * n * n

    def test_complements_are_arcs(self):
        for arc in arcs_up_to_half(3):
            comp = arc.complement()
            assert comp.length >= 3
            assert set(comp.members) == set(range(1, 7)) - set(arc.members)

    def test_m_vector_examples(self):
        sets = [iset(4, 1, 2, 3, 8), iset(4, 2, 3, 4, 5), iset(4, 4, 6, 7, 8)]
        assert m_vector(sets, Arc(4, 2, 2)) == (2, 2, 0)
        assert m_vector(sets, Arc(4, 1, 1)) == (1, 0, 0)
        assert m_vector([iset(2, 1, 2)], Arc(2, 1, 2)) == (2,)


class TestConditionM:
    def test_known_unbounded_ratio_passes_screen(self):
        assert check_condition_m(UNBOUNDED_3OVER3).holds

    def test_failure_witness_is_first(self):
        verdict = check_condition_m(ratio(2, [(1, 3), (2, 4)], [(1, 4), (2, 3)]))
        assert not verdict.holds
        assert (verdict.witness.start, verdict.witness.length) == (2, 2)
        assert verdict.m_numerator == (1, 1)
        assert verdict.m_denominator == (2, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_is_the_first_arc_not_majorized(self, n):
        # every two-over-two ratio, ST0 or not, against the prefix-sum
        # definition on each arc in (start, length) order
        pairs = list(itertools.combinations_with_replacement(all_index_sets(n), 2))
        for num, den in itertools.product(pairs, repeat=2):
            first = next(
                (
                    arc
                    for arc in arcs_up_to_half(n)
                    if not util.majorizes(m_vector(num, arc), m_vector(den, arc))
                ),
                None,
            )
            verdict = check_condition_m(RatioExpr.of(n, num, den))
            assert (verdict.holds, verdict.witness) == (first is None, first), (num, den)

    def test_basic_ratios_pass(self):
        for b in basic_ratios_all(3):
            assert check_condition_m(b.expr()).holds

    def test_condition_m_implies_st0(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            n = rng.choice([2, 3])
            sets = [
                IndexSet.of(n, rng.sample(range(1, 2 * n + 1), n)) for _ in range(4)
            ]
            r = RatioExpr.of(n, sets[:2], sets[2:])
            if check_condition_m(r).holds:
                assert check_st0(r).holds
            checked += 1

    def test_complement_transfer(self):
        # majorization on an arc forces it on the complement when totals agree
        rng = random.Random(3)
        for _ in range(60):
            n = 3
            sets = [
                IndexSet.of(n, rng.sample(range(1, 2 * n + 1), n)) for _ in range(4)
            ]
            num, den = sets[:2], sets[2:]
            for arc in arcs_up_to_half(n):
                mn, md = m_vector(num, arc), m_vector(den, arc)
                if not util.majorizes(mn, md):
                    continue
                comp = arc.complement()
                assert util.majorizes(m_vector(num, comp), m_vector(den, comp))

    def test_invariance_under_shift_and_reversal_exhaustive_n3(self):
        # verdicts computed from precomputed intersection tables for speed
        sets = all_index_sets(3)
        arcs = arcs_up_to_half(3)
        table = {
            (s, arc): (s.mask & arc.mask).bit_count() for s in sets for arc in arcs
        }
        pairs = list(itertools.combinations_with_replacement(sets, 2))

        def verdict(num, den):
            for arc in arcs:
                a = sorted((table[num[0], arc], table[num[1], arc]), reverse=True)
                b = sorted((table[den[0], arc], table[den[1], arc]), reverse=True)
                if a[0] < b[0] or a[0] + a[1] != b[0] + b[1]:
                    return False
            return True

        for num in pairs:
            for den in pairs:
                r = RatioExpr.of(3, num, den)
                v = verdict(num, den)
                assert check_condition_m(cyclic_shift_ratio(r)).holds == v
                assert check_condition_m(reversal_ratio(r)).holds == v

    def test_agrees_with_temperley_lieb_matchings(self):
        # a second route to the paper's theorem that shares no code with the
        # screens: every two-over-two ST0 ratio at ranks 2-4, then 300 seeded
        # draws at each rank 5-8; about 1.5 s
        for n, count, bounded in ((2, 27, 23), (3, 480, 285), (4, 11_235, 4_255)):
            ratios = util.st0_ratios(n)
            verdicts = [util.tl_bounded(r) for r in ratios]
            assert (len(ratios), sum(verdicts)) == (count, bounded)
            assert verdicts == [check_condition_m(r).holds for r in ratios]
            if n == 3:  # the edge rule: each TL immanant is subtraction free
                free = [is_subtraction_free(ratio_difference_poly(r)).subtraction_free
                        for r in ratios]
                assert verdicts == free
        for n, bounded in ((5, 136), (6, 89), (7, 72), (8, 51)):
            rng = random.Random(n)
            ratios = [util.random_st0_ratio(n, rng) for _ in range(300)]
            verdicts = [util.tl_bounded(r) for r in ratios]
            assert sum(verdicts) == bounded
            assert verdicts == [check_condition_m(r).holds for r in ratios]

    def test_exhaustive_script_agrees_at_rank_3(self):
        # `scripts/check_rank5_theorem.py` runs rank 5 outside the suite; here
        # the same script at rank 3, where the counts are the ones above
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_rank5_theorem.py"
        done = subprocess.run(
            [sys.executable, str(script), "--rank", "3"], capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        counts = "ratios: 480\nscreens pass: 285\ntl bounded: 285\nfactored: 285\ndisagreements: 0\n"
        assert done.stdout.startswith(counts)


class TestRatioExpr:
    def test_padding(self):
        r = RatioExpr.of(2, [iset(2, 1, 2)], [])
        assert r.denominator == (base_set(2),)
        r2 = RatioExpr.of(2, [iset(2, 1, 2), iset(2, 1, 3)], [iset(2, 1, 4)])
        assert r2.denominator == (iset(2, 1, 4), base_set(2))
        # the empty ratio is 1, written with one set a side
        r3 = RatioExpr.of(3, [], [])
        assert r3.numerator == r3.denominator == (base_set(3),)

    @pytest.mark.parametrize(
        "numerator, denominator, message",
        [
            ((iset(2, 1, 2),), (iset(3, 1, 2, 3),), "mixed ranks: expected 2, got 3"),
            ((iset(2, 1, 2), iset(2, 1, 3)), (iset(2, 1, 4),), "lengths differ; use RatioExpr.of"),
            # lists built, then failed to hash with a bare TypeError
            ([iset(2, 1, 3)], [iset(2, 2, 4)], "must be tuples of index sets"),
            # raised AttributeError: 'tuple' object has no attribute 'rank'
            (((1, 3),), (iset(2, 2, 4),), "ratio terms must be index sets"),
        ],
        ids=["mixed-ranks", "side-lengths", "list-sides", "tuple-term"],
    )
    def test_ratio_expr_rejects(self, numerator, denominator, message):
        with pytest.raises(InvalidInput, match=message):
            RatioExpr(2, numerator, denominator)

    @pytest.mark.parametrize(
        "rank", [2.0, True, Fraction(2), 0], ids=["float", "bool", "fraction", "zero"]
    )
    def test_ratio_expr_rank_must_be_a_positive_int(self, rank):
        # 2.0 built and equalled the rank-2 ratio; `of` raised a bare TypeError
        a, b = iset(2, 1, 3), iset(2, 2, 4)
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            RatioExpr(rank, (a,), (b,))
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            RatioExpr.of(rank, [a], [b])

    def test_exponent_vector_cancellation(self):
        r = ratio(2, [(1, 2), (1, 2)], [(1, 2), (3, 4)])
        vec = ExponentVector.of_ratio(r)
        assert vec.as_dict() == {iset(2, 1, 2): 1, iset(2, 3, 4): -1}
        trivial = ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)])
        assert ExponentVector.of_ratio(trivial).is_zero

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((iset(2, 1, 2), 1), (iset(2, 1, 2), 2)), "strictly increasing"),  # a repeated key
            (((iset(2, 1, 3), 1), (iset(2, 1, 2), 2)), "strictly increasing"),
            (((iset(3, 1, 2, 3), 1),), "index sets of rank 2"),
            (((iset(2, 1, 2), 1), (iset(3, 1, 2, 3), 1)), "index sets of rank 2"),
            (((iset(2, 1, 2), 0),), "zero entries"),
            (((iset(2, 1, 2), 0.5),), "must be integers"),
            (((iset(2, 1, 2), 2.0),), "must be integers"),
            (((iset(2, 1, 2), Fraction(1, 2)),), "must be integers"),
            (((iset(2, 1, 2), True),), "must be integers"),
            ((((1, 3), 1),), "index sets of rank 2"),  # a bare tuple key
            ([(iset(2, 1, 3), 1)], r"a tuple of \(index set, exponent\) pairs"),  # a list
            (([iset(2, 1, 3), 1],), r"a tuple of \(index set, exponent\) pairs"),  # a list entry
            (((iset(2, 1, 3), 1, 2),), r"a tuple of \(index set, exponent\) pairs"),  # not a pair
        ],
    )
    def test_exponent_vector_rejects(self, entries, message):
        with pytest.raises(InvalidInput, match=message):
            ExponentVector(2, entries)

    @pytest.mark.parametrize("rank", [2.0, 0, -3], ids=["float", "zero", "negative"])
    def test_exponent_vector_rank_must_be_a_positive_int(self, rank):
        # 0 and -3 built, where `IndexSet` and `RatioExpr` raised
        with pytest.raises(InvalidInput, match="rank must be a positive integer"):
            ExponentVector(rank, ())
