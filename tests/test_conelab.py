"""Cone membership, Farkas certificates, and their independent verification."""

import copy
import functools
import gc
import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpratio import cli, conelab, eval_ratio, polycheck, random_tp, witness_family
from tpratio.combinatorics import (
    ExponentVector,
    IndexSet,
    RatioExpr,
    all_index_sets,
    orientations,
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
        # the simplex itself lands on the generator, every one at ranks 2-4,
        # whether or not it is in the starting basis
        for rank in (2, 3, 4):
            for b in basic_ratios_all(rank):
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
        alternative = InCone(tuple((b, Fraction(1)) for b in elementary_to_basics(e).basics))
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
        vec = util.negated(BasicRatio.of(2, 1, 3, ()).vector())
        verdict = cone_membership(vec, 2)
        assert isinstance(verdict, Outside)
        assert verify_certificate(vec, verdict, 2)

    def test_zero_vector(self):
        # rank 1 has no basic ratios: its cone is {0}
        for rank in (1, 2, 3, 4):
            verdict = cone_membership(ExponentVector.zero(rank), rank)
            assert verdict == InCone(())
            assert verify_certificate(ExponentVector.zero(rank), verdict, rank)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_off_span_vector_gets_a_balance_functional(self, rank):
        # a vector failing index balance leaves the generators' span: its
        # functional is an index-balance relation, 0 on every generator
        rng = random.Random(rank)
        sets, checked = all_index_sets(rank), 0
        while checked < 10:
            vec = ExponentVector.from_counts(
                rank, {rng.choice(sets): rng.randint(-2, 2) for _ in range(rng.randint(1, 5))}
            )
            counts = [sum(v for s, v in vec.as_dict().items() if i in s) for i in range(1, 2 * rank + 1)]
            if not any(counts):
                continue
            verdict = cone_membership(vec, rank)
            assert isinstance(verdict, Outside)
            assert verify_certificate(vec, verdict, rank)
            y = dict(verdict.certificate)
            for b in basic_ratios_all(rank):
                assert sum(y.get(s, 0) * v for s, v in b.vector().as_dict().items()) == 0, b
            checked += 1

    def test_deterministic(self):
        vec = ratio_to_vector(ratio(3, [(1, 4, 6), (2, 3, 5)], [(1, 3, 5), (2, 4, 6)]))
        assert cone_membership(vec, 3) == cone_membership(vec, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            cone_membership(ExponentVector.zero(5), 5)

    def test_rank5_certificates_verify(self, monkeypatch):
        # seeded two-over-two ST0 queries past the rank budget, lifted here
        # only: it also budgets the symbolic polynomials and path families
        monkeypatch.setattr(conelab, "MAX_RANK", 5)
        for seed in range(30):
            r = util.random_st0_ratio(5, random.Random(seed))
            if r is None:
                continue
            vec = ratio_to_vector(r)
            assert verify_certificate(vec, cone_membership(vec, 5), 5), r

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
        vec = util.negated(BasicRatio.of(2, 1, 3, ()).vector())
        verdict = cone_membership(vec, 2)
        assert isinstance(verdict, Outside)
        flipped = Outside(tuple((s, -c) for s, c in verdict.certificate))
        assert not verify_certificate(vec, flipped, 2)

    def test_negative_coefficient_rejected(self):
        b = BasicRatio.of(2, 1, 3, ())
        bad = InCone(((b, Fraction(-1)),))
        assert not verify_certificate(util.negated(b.vector()), bad, 2)

    def test_repeated_functional_key_rejected(self):
        # dict() of the pairs keeps the last, so the functional checked
        # would not be the one printed
        vec = ratio_to_vector(UNBOUNDED)
        verdict = cone_membership(vec, 4)
        assert isinstance(verdict, Outside)
        first_key = verdict.certificate[0][0]
        repeated = Outside(((first_key, Fraction(10**6)), *verdict.certificate))
        assert util.reference_verify_certificate(vec, repeated, 4)
        assert not verify_certificate(vec, repeated, 4)

    def test_functional_key_of_another_rank_rejected(self):
        # a rank-3 key pairs with no rank-4 coordinate, so the functional
        # checked would not be the one printed
        vec = ratio_to_vector(UNBOUNDED)
        verdict = cone_membership(vec, 4)
        stray = Outside(((IndexSet(3, (1, 2, 3)), Fraction(1)),) + verdict.certificate)
        assert util.reference_verify_certificate(vec, stray, 4)
        assert not verify_certificate(vec, stray, 4)

    def test_float_functional_rejected(self):
        vec = ratio_to_vector(UNBOUNDED)
        verdict = cone_membership(vec, 4)
        floats = Outside(tuple((k, float(v)) for k, v in verdict.certificate))
        assert util.reference_verify_certificate(vec, floats, 4)
        assert not verify_certificate(vec, floats, 4)

    def test_float_coefficient_rejected(self):
        e = ElementaryRatio(3, 1, 2, 4, 6, (3,))
        vec = ExponentVector.of_ratio(e.expr())
        verdict = cone_membership(vec, 3)
        assert isinstance(verdict, InCone)
        floats = InCone(tuple((b, float(c)) for b, c in verdict.coefficients))
        assert util.reference_verify_certificate(vec, floats, 3)
        assert not verify_certificate(vec, floats, 3)
        assert verify_certificate(vec, InCone(tuple((b, int(c)) for b, c in verdict.coefficients)), 3)


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

    def test_unbounded_orbit_is_outside(self):
        orbit = util.orbit(UNBOUNDED)
        assert len(set(orbit)) == 16
        for r in orbit:
            vec = ratio_to_vector(r)
            verdict = cone_membership(vec, 4)
            assert isinstance(verdict, Outside), r
            assert verify_certificate(vec, verdict, 4), r


# ---------------------------------------------------------------------------
# differential test against an independent phase-one solver


def fraction_phase_one(rows, rhs, n_cols):
    """An independent oracle: a phase-one simplex with Bland's rule and
    every tableau entry a `Fraction`, over ``rows @ lam = rhs, lam >= 0``
    with one artificial per row.  Returns ``(True, {column: value})`` when
    feasible, else ``(False, y)`` with ``y @ rows <= 0`` and ``y @ rhs > 0``."""
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


def _ratios(family):
    if family == "st0-rank3":
        return util.st0_ratios(3)
    if family == "orbit":
        return util.orbit(UNBOUNDED)
    if family == "rank4-pool":
        return [cli.parse_ratio(text) for _, _, text in util.rank4_pool()]
    if family == "rank5":  # past the rank budget: lift MAX_RANK first
        drawn = (util.random_st0_ratio(5, random.Random(seed)) for seed in range(30))
        return [r for r in drawn if r is not None]
    if family == "unbounded-orbit":  # rotations 0 and 2, the two fastest of 16 for the oracle
        return util.orbit(UNBOUNDED)[0:3:2]
    rng = random.Random(10)
    return [_random_3over3(rng) for _ in range(6)]


def _queries(family):
    if family == "generators":
        return [(b.vector(), rank) for rank in (2, 3, 4) for b in basic_ratios_all(rank)]
    return [(ratio_to_vector(r), r.rank) for r in _ratios(family)]


@functools.cache
def _oracle_rows(rank):
    """``rows[i]`` maps basic ratio ``j`` to its exponent at coordinate ``i``."""
    coords, basics = all_index_sets(rank), basic_ratios_all(rank)
    index_of = {c: i for i, c in enumerate(coords)}
    rows = [{} for _ in coords]
    for j, b in enumerate(basics):
        for key, val in b.vector().as_dict().items():
            rows[index_of[key]][j] = val
    return coords, basics, rows


def fraction_verdict(vec, rank):
    """The oracle's verdict on rows built here from the basic ratios' vectors."""
    coords, basics, rows = _oracle_rows(rank)
    wanted = vec.as_dict()
    feasible, payload = fraction_phase_one(rows, [wanted.get(c, 0) for c in coords], len(basics))
    if feasible:
        return InCone(tuple((basics[j], v) for j, v in sorted(payload.items())))
    return Outside(tuple((coords[i], y) for i, y in enumerate(payload) if y != 0))


@pytest.mark.parametrize("family", ["st0-rank3", "generators", "unbounded-orbit", "sampled-3x3"])
def test_integer_rows_match_the_fraction_solver(family):
    # certificates may differ between the solvers; verdicts may not
    for vec, rank in _queries(family):
        verdict, expected = cone_membership(vec, rank), fraction_verdict(vec, rank)
        assert type(verdict) is type(expected), vec
        assert verify_certificate(vec, verdict, rank), vec
        assert verify_certificate(vec, expected, rank), vec


# Digests of the verdicts of each kind the families below get, in their
# enumeration order.  They pin the certificates byte for byte, coefficient
# and functional order included, so a change to the pivots or to the
# functional's reading fails here, even in `_pivot`, which the dense tableau
# below shares.  The two kinds are pinned apart because the warm-start rows
# fix only the functionals: they choose which rows are left out of the basis,
# and so the balance part of every `Outside` functional, while the basis
# columns, the pivots and every `InCone` certificate stay the same.
CONE_DIGESTS = {
    "orbit": {
        Outside: "0d30c73db7700794b161c530c438f8e079938a7e0b0eed8d71514013bd4737d1",
    },
    "rank4-pool": {
        InCone: "51ef43d185383ef8494a67ee627bf8bebabc698eb858e8a6dd17fcabaf746769",
        Outside: "f4d506284923fd66c3deedfef42aa3660f0a35a49d70f93105555e2663f28282",
    },
    "st0-rank3": {
        InCone: "ba39945d46b99fa6cefbc7cd3a46b9d2fc096684706b40b6fd4027c13994a7b3",
        Outside: "e976da5a8267f595644802d9d0378f3a9723bd3642a25f3af6f6f88832890dc7",
    },
    "rank5": {
        InCone: "88b44e0688fc7f928c185e76403c7a25ff0415de2464ac435ebe795c4c884345",
        Outside: "64e5c129beffa43611a0c97165ed120b39ca70e3348d10d197f6973ef03128d0",
    },
}


@pytest.mark.parametrize("family", CONE_DIGESTS)
def test_cone_certificates_are_pinned(family, monkeypatch):
    monkeypatch.setattr(conelab, "MAX_RANK", 5)  # reached by the rank-5 family only
    hashes = {kind: hashlib.sha256() for kind in CONE_DIGESTS[family]}
    for vec, rank in _queries(family):
        verdict = cone_membership(vec, rank)
        assert type(verdict) in hashes, (family, vec)  # a verdict kind the family never gets
        hashes[type(verdict)].update(repr(verdict).encode() + b"\n")
    assert {kind: h.hexdigest() for kind, h in hashes.items()} == CONE_DIGESTS[family]


def test_moved_certificates_verify(monkeypatch):
    # every rotation and mirror maps the generator set onto itself, so it
    # maps a certificate for a ratio to one for the ratio's image; verifying
    # the moved certificate also proves the image's verdict kind
    monkeypatch.setattr(conelab, "MAX_RANK", 5)  # reached by the rank-5 family only
    checked = {InCone: 0, Outside: 0}
    for r in _ratios("orbit") + _ratios("rank4-pool") + _ratios("rank5"):
        verdict = cone_membership(ratio_to_vector(r), r.rank)
        for rotation, mirrored, image in orientations(r):
            moved = util.move_certificate(verdict, r.rank, rotation, mirrored)
            image_vector = ratio_to_vector(image)
            assert verify_certificate(image_vector, moved, r.rank), (r, rotation, mirrored)
            checked[type(moved)] += 1
    assert all(checked.values()) and sum(checked.values()) == 2392, checked  # 142 ratios


# ---------------------------------------------------------------------------
# the multiplier columns against the dense warm-start tableau


def dense_verdict(vec, rank):
    """The solver as it was before the multiplier columns: every row carries
    its full ``[B0^-1 A | B0^-1]``, merged here from the split cache rows,
    and the functional is read off the objective row's ``B0^-1`` columns."""
    coords, _, basics, rows, inverse, _, dens, basis = conelab._generator_basis(rank)
    wanted = vec.as_dict()
    b = [wanted.get(c, 0) for c in coords]
    for y in inverse[len(rows):]:  # the balance relations, paired densely
        if pairing := sum(v * b[i] for i, v in y.items()):
            sign = 1 if pairing > 0 else -1
            return Outside(tuple((coords[i], Fraction(sign * v)) for i, v in y.items()))
    n_cols, n_rows = len(basics), len(rows)
    mu = n_cols + len(coords)
    query = [(n_cols + i, v) for i, v in enumerate(b) if v]
    tableau = [
        {**part, **{n_cols + k: v for k, v in inv.items()}} for part, inv in zip(rows, inverse)
    ]
    for row in tableau:
        if x := sum(row.get(k, 0) * v for k, v in query):
            row[mu] = -x
    objective = {mu: -1}
    tableau.append(objective)
    dens, basis = [*dens, 1], list(basis)
    while True:
        entering = min(
            (j for j, v in objective.items() if v < 0 and not n_cols <= j < mu), default=None
        )
        if entering is None:
            return Outside(tuple(
                (coords[j - n_cols], Fraction(-v, dens[n_rows]))
                for j, v in sorted(objective.items()) if n_cols <= j < mu
            ))
        rising = [i for i in range(n_rows) if tableau[i].get(entering, 0) > 0]
        if not rising:
            break
        p = min(rising, key=basis.__getitem__)
        conelab._pivot(tableau, dens, p, entering)
        basis[p] = entering
    ray = {basis[i]: Fraction(-row[entering], dens[i])
           for i, row in enumerate(tableau[:n_rows]) if entering in row}
    ray[entering] = Fraction(1)
    scale = ray.pop(mu)
    return InCone(tuple((basics[j], x / scale) for j, x in sorted(ray.items())))


@pytest.mark.parametrize(
    "family", ["st0-rank3", "generators", "sampled-3x3", "orbit", "rank5"]
)
def test_multiplier_columns_match_the_dense_tableau(family, monkeypatch):
    # the same pivots, so the same verdicts and certificates, byte for byte
    if family == "rank5":  # the rank budget lifted as in test_rank5_certificates_verify
        monkeypatch.setattr(conelab, "MAX_RANK", 5)
    kinds = set()
    for vec, rank in _queries(family):
        verdict = cone_membership(vec, rank)
        assert verdict == dense_verdict(vec, rank), vec
        kinds.add(type(verdict))
    assert kinds == ({Outside} if family == "orbit" else {InCone} if family == "generators"
                     else {InCone, Outside})


def test_a_solve_leaves_the_generator_basis_as_built():
    built = copy.deepcopy(conelab._generator_basis(4))
    queries = [ratio_to_vector(r) for r in util.orbit(UNBOUNDED)]
    queries += [b.vector() for b in basic_ratios_all(4)[:20]]
    verdicts = [cone_membership(vec, 4) for vec in queries]
    assert copy.deepcopy(conelab._generator_basis(4)) == built
    assert [type(v) for v in verdicts] == [Outside] * 16 + [InCone] * 20


@functools.cache
def _rank5_ratios():
    """The two-over-two ST0 ratios that seeds 0-99 draw at rank 5."""
    drawn = (util.random_st0_ratio(5, random.Random(seed)) for seed in range(100))
    return [r for r in drawn if r is not None]


def _left_over_coordinates(rank):
    """The coordinates whose rows `_generator_basis` leaves out of the basis.

    Such a row is never a pivot row, so its coordinate's ``B0^-1`` column
    is nonzero in that row alone, one of the last; every other coordinate's
    column meets a basis row, since the basis rows of the invertible
    ``B0^-1`` are independent."""
    coords, _, _, rows, _, columns, _, _ = conelab._generator_basis(rank)
    left = {coords[k] for k, (held, _) in enumerate(columns) if min(held) >= len(rows)}
    assert len(left) == len(coords) - len(rows) == 2 * rank  # one balance relation per label
    return left


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_outside_functionals_vanish_on_the_left_over_coordinates(rank, monkeypatch):
    # a functional the simplex reads is a combination of basis rows of
    # B0^-1, so it is 0 on every left-over coordinate; a balance relation,
    # read for a vector outside the span, is one left-over row, and meets
    # its own coordinate there and no other
    monkeypatch.setattr(conelab, "MAX_RANK", 5)
    if rank == 4:
        ratios = _ratios("orbit") + _ratios("rank4-pool")
    elif rank == 5:
        ratios = _rank5_ratios()
    else:
        ratios = util.st0_ratios(rank)
    in_span = [(ratio_to_vector(r), 0) for r in ratios]
    off_span = [(ExponentVector(rank, ((c, 1),)), 1) for c in all_index_sets(rank)]
    left, checked = _left_over_coordinates(rank), {0: 0, 1: 0}
    for vec, met in in_span + off_span:
        verdict = cone_membership(vec, rank)
        if isinstance(verdict, Outside):
            assert len(left.intersection(k for k, _ in verdict.certificate)) == met, vec
            checked[met] += 1
    assert all(checked.values()), checked


def test_outside_functionals_stay_sparse(monkeypatch):
    # each generator enters the warm start in the row whose coordinate the
    # fewest generators hold, so the functionals' free balance part is
    # fixed where the check costs most; coordinate order alone gave the 16
    # orbit functionals 476 terms and the rank-5 ones 4,474
    monkeypatch.setattr(conelab, "MAX_RANK", 5)
    orbit = [cone_membership(ratio_to_vector(r), 4) for r in util.orbit(UNBOUNDED)]
    rank5 = [cone_membership(ratio_to_vector(r), 5) for r in _rank5_ratios()]
    assert sum(len(v.certificate) for v in orbit) <= 340
    assert sum(len(v.certificate) for v in rank5 if isinstance(v, Outside)) <= 3555


# ---------------------------------------------------------------------------
# the checker against the reference checker, on verdicts and mutations


def _checked_queries():
    """The orbit, every rank-4 pool ratio and every rank-3 ST0 two-over-two
    ratio, as (vector, rank) pairs."""
    ratios = _ratios("orbit") + _ratios("rank4-pool")
    ratios += util.st0_ratios(3)
    return [(ratio_to_vector(r), r.rank) for r in ratios]


def _mutations(verdict, rank):
    """Certificates near ``verdict``: some still valid, most not."""
    if isinstance(verdict, Outside):
        y = verdict.certificate
        yield Outside(tuple((k, -v) for k, v in y))
        yield Outside(y[1:])
        # raise one entry until a generator holding it with a positive
        # exponent pairs to 1
        values = dict(y)
        for i, (k, yk) in enumerate(y):
            for items in util.basic_ratio_vectors(rank):
                v = dict(items).get(k, 0)
                if v > 0:
                    pairing = sum(values.get(c, 0) * e for c, e in items)
                    raised = (k, yk + (1 - pairing) / v)
                    yield Outside((*y[:i], raised, *y[i + 1:]))
                    return
        return
    terms = verdict.coefficients
    other = basic_ratios_all(rank + 1)[0]
    if terms:
        (b, c), *rest = terms
        yield InCone(((b, -c), *rest))
        yield InCone(tuple(rest))
        yield InCone(((other, c), *rest))


def test_checker_agrees_with_the_reference_checker():
    answers = {True: 0, False: 0}
    for vec, rank in _checked_queries():
        verdict = cone_membership(vec, rank)
        assert verify_certificate(vec, verdict, rank), vec
        assert util.reference_verify_certificate(vec, verdict, rank), vec
        for mutated in _mutations(verdict, rank):
            expected = util.reference_verify_certificate(vec, mutated, rank)
            assert verify_certificate(vec, mutated, rank) == expected, (vec, mutated)
            answers[expected] += 1
    assert answers[False] > answers[True] > 0, answers  # the mutations bite


def test_zero_coefficient_term_of_another_rank_rejected():
    # it adds 0 to the combination, so the reference checker accepts it, but
    # the printed combination would name a ratio that is not a generator
    e = ElementaryRatio(3, 1, 2, 4, 6, (3,))
    vec = ExponentVector.of_ratio(e.expr())
    verdict = cone_membership(vec, 3)
    stray = InCone(verdict.coefficients + ((BasicRatio.of(4, 1, 3, (5, 6)), Fraction(0)),))
    assert util.reference_verify_certificate(vec, stray, 3)
    assert not verify_certificate(vec, stray, 3)
    checked = 0
    for vec, rank in _checked_queries():
        verdict = cone_membership(vec, rank)
        if isinstance(verdict, InCone):
            other = basic_ratios_all(rank + 1)[0]
            assert not verify_certificate(vec, InCone(verdict.coefficients + ((other, Fraction(0)),)), rank)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# memory held across calls


def _allocated_blocks_per_call(step, count):
    """``sys.getallocatedblocks()`` growth per call over ``count`` calls.

    A full collection empties CPython's free lists, so after it one more
    pass refills them before the count starts, with the collector off so
    that nothing is freed in between."""
    for i in range(count):
        step(i)
    gc.collect()
    gc.disable()
    try:
        for i in range(count):
            step(i)
        before = sys.getallocatedblocks()
        for i in range(count):
            step(i)
        return (sys.getallocatedblocks() - before) / count
    finally:
        gc.enable()


def test_repeated_calls_hold_no_memory():
    # tuple() of a generator reallocs its result, and CPython's tuple free
    # lists keep each such tuple, up to 2,000 per size.  Building each
    # per-call tuple from a list holds both loops under 0.03 blocks a call;
    # building any one of them from a generator again gives 0.19 or more.
    ratios = _ratios("orbit") + _ratios("rank4-pool")
    queries = [(r, ratio_to_vector(r)) for r in ratios]

    def cone_step(i):
        r, vec = queries[i % len(queries)]
        verdict = cone_membership(vec, 4)
        verify_certificate(vec, verdict, 4)
        if isinstance(verdict, Outside):
            polycheck.is_subtraction_free(polycheck.ratio_difference_poly(r))

    def family_build(i):
        witness_family(4, 1 + i % 4, 1, Fraction(i + 2))

    assert _allocated_blocks_per_call(cone_step, 500) < 0.1
    assert _allocated_blocks_per_call(family_build, 500) < 0.1
