"""Exact matrices, the Grassmannian bridge, path families, and witnesses."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from tpratio.combinatorics import (
    Arc,
    IndexSet,
    MinorSpec,
    RatioExpr,
    all_index_sets,
    all_minor_specs,
    check_condition_m,
    check_st0,
    cyclic_shift_ratio,
    minor_to_plucker,
    reversal_ratio,
)
from tpratio.errors import BudgetExceeded, InvalidInput, NotTotallyPositive
from tpratio.tpcore import (
    Evidence,
    Inconclusive,
    NetworkParams,
    TPMatrix,
    counterexample_matrix,
    eval_ratio,
    falsify,
    grassmann_embed,
    lgv_minors,
    minor,
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
from tpratio.tpcore.matrices import require_tp
from tpratio.tpcore.network import all_ones_params, staircase_word

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


class TestNetwork:
    def test_staircase_word(self):
        assert staircase_word(2) == (1,)
        assert staircase_word(3) == (1, 2, 1)
        assert staircase_word(4) == (1, 2, 1, 3, 2, 1)

    def test_all_ones_n2(self):
        m = network_matrix(all_ones_params(2))
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

    def test_positive_weights_required(self):
        with pytest.raises(InvalidInput, match="network weight 0 is not positive"):
            NetworkParams.of(2, [0], [1, 1], [1])


class TestVerifyTp:
    def test_examples(self):
        assert verify_tp(TPMatrix.of([[1, 1], [1, 2]]))
        assert not verify_tp(TPMatrix.of([[1, 0], [0, 1]]))
        assert not verify_tp(TPMatrix.of([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_networks_are_tp(self, n):
        for seed in range(30):
            assert verify_tp(random_tp(n, seed))


class TestRandomTp:
    def test_deterministic(self):
        assert random_tp(3, 7) == random_tp(3, 7)
        assert random_tp(3, 7) != random_tp(3, 8)

    def test_many_seeds_tp_n4(self):
        for seed in range(100):
            assert verify_tp(random_tp(4, seed))


class TestGrassmann:
    def test_lower_block_n2(self):
        rep = grassmann_embed(TPMatrix.of([[1, 1], [1, 2]]))
        assert rep.rows[2] == (Fraction(0), Fraction(1))
        assert rep.rows[3] == (Fraction(-1), Fraction(0))

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
            assert top == minor(m, MinorSpec.of(n, range(1, n + 1), range(1, n + 1)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bridge_identity_exhaustive(self, n):
        for seed in range(3):
            m = random_tp(n, seed)
            for spec in all_minor_specs(n):
                assert plucker_eval(m, minor_to_plucker(spec)) == minor(m, spec)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_brackets_positive(self, n):
        m = random_tp(n, 9)
        assert all(plucker_eval(m, a) > 0 for a in all_index_sets(n))

    def test_minor_conventions(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
        assert minor(m, MinorSpec.of(2, [], [])) == 1
        assert minor(m, MinorSpec.of(2, [1, 2], [1, 2])) == 1
        assert minor(m, MinorSpec.of(2, [2], [1])) == 1

    def test_eval_ratio_examples(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
        assert eval_ratio(m, ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)])) == Fraction(1, 2)
        assert eval_ratio(m, ratio(2, [(1, 2), (3, 4)], [(3, 4), (1, 2)])) == 1


class TestShortPlucker:
    @pytest.mark.parametrize("n", [2, 3])
    def test_relation_everywhere(self, n):
        labels = range(1, 2 * n + 1)
        for seed in range(5):
            m = random_tp(n, seed + 20)
            rep = grassmann_embed(m)
            for quad in itertools.combinations(labels, 4):
                i1, i2, j1, j2 = quad
                rest = [e for e in labels if e not in quad]
                for core in itertools.combinations(rest, n - 2):
                    br = lambda *xs: rep.bracket(IndexSet.of(n, xs + core))
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

    def test_outputs_are_tp(self):
        m = TPMatrix.of([[1, 1], [1, 2]])
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

    def test_tp_at_1_and_10(self):
        assert verify_tp(counterexample_matrix(Fraction(1)))
        assert verify_tp(counterexample_matrix(Fraction(10)))

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
        p = all_ones_params(2)
        assert lgv_minors(p, MinorSpec.of(2, [1, 2], [1, 2])) == 1
        assert lgv_minors(p, MinorSpec.of(2, [2], [2])) == 2
        assert lgv_minors(p, MinorSpec.of(2, [], [])) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_exhaustive(self, n):
        p = random_network(n, 42, magnitude=2)
        m = network_matrix(p)
        for spec in all_minor_specs(n):
            assert lgv_minors(p, spec) == minor(m, spec)

    def test_oracle_equivalence_sampled_n4(self):
        p = random_network(4, 17, magnitude=2)
        m = network_matrix(p)
        rng = random.Random(4)
        specs = rng.sample(all_minor_specs(4), 50)
        for spec in specs:
            assert lgv_minors(p, spec) == minor(m, spec)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            lgv_minors(all_ones_params(5), MinorSpec.of(5, [1], [1]))


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

    def test_bounded_ratio_inconclusive(self):
        out = falsify(ratio(2, [(1, 4), (2, 3)], [(1, 3), (2, 4)]))
        assert isinstance(out, Inconclusive)
        assert any("no degree gap" in a for a in out.attempts)


def _orbit(r):
    """The 2n rotations of ``r``, then their 2n mirror images."""
    rotations = [r]
    for _ in range(2 * r.rank - 1):
        rotations.append(cyclic_shift_ratio(rotations[-1]))
    return rotations + [reversal_ratio(m) for m in rotations]


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
        for member in _orbit(UNBOUNDED_3OVER3):
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

    def test_falsify_transforms_no_matrix(self, monkeypatch):
        inconclusive = ratio(
            4, [(1, 2, 3, 4), (1, 4, 6, 7)], [(1, 2, 4, 7), (1, 3, 4, 6)]
        )
        member = _orbit(UNBOUNDED_3OVER3)[11]
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


class TestSerialization:
    def test_matrix_string_round_trip(self):
        m = random_tp(3, 12)
        again = TPMatrix.of(m.to_strings())
        assert again.entries == m.entries
