"""A sampled three-over-three census at rank 4.

68 screen-passing three-over-three ratios: the 8 rotations of the known
unbounded ratio and 60 seeded random ones.  Cone membership decides
"product of basics" for each of them (the two-over-two factorizer does
not apply), and every verdict's certificate is re-checked from scratch.
The experimentally observed alignment is asserted where it is reported to
hold: every ratio outside the cone has a negative coefficient in its
difference polynomial.  The rotation orbit keeps the outside branch
exercised; the falsifier matches the fixture family up to rotation and
mirror, so the whole orbit yields growth evidence, while falsifier
outcomes for other outside ratios are counted but not asserted, since no
witness family is known for arbitrary inputs.

Run it alone with ``pytest tests/test_census.py -v -s`` to see the counts.
"""

import random

from tpratio import Evidence, falsify
from tpratio.combinatorics import (
    IndexSet,
    RatioExpr,
    check_condition_m,
    check_st0,
)
from tpratio.conelab import (
    InCone,
    Outside,
    cone_membership,
    ratio_to_vector,
    verify_certificate,
)
from tpratio.polycheck import is_subtraction_free, ratio_difference_poly

import util

UNBOUNDED = RatioExpr.of(
    4,
    [IndexSet.of(4, s) for s in ((1, 2, 3, 8), (2, 3, 4, 5), (4, 6, 7, 8))],
    [IndexSet.of(4, s) for s in ((1, 4, 6, 8), (2, 3, 4, 8), (2, 3, 5, 7))],
)


def _random_3over3(rng: random.Random) -> RatioExpr | None:
    labels = list(range(1, 9))
    nums = [IndexSet.of(4, rng.sample(labels, 4)) for _ in range(3)]
    pool = sorted(e for s in nums for e in s)
    for _ in range(200):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        dens = [sorted(shuffled[0:4]), sorted(shuffled[4:8]), sorted(shuffled[8:12])]
        if all(len(set(d)) == 4 for d in dens):
            return RatioExpr.of(4, nums, [IndexSet.of(4, d) for d in dens])
    return None


def test_sampled_survey_rank4():
    rng = random.Random(2024)
    screened = util.orbit(UNBOUNDED)[:8]  # the rotations
    while len(screened) < 68:
        r = _random_3over3(rng)
        if r is None or not check_st0(r).holds:
            continue
        if check_condition_m(r).holds:
            screened.append(r)

    in_cone = outside = 0
    outside_with_evidence = 0
    for r in screened:
        vec = ratio_to_vector(r)
        verdict = cone_membership(vec, 4)
        assert verify_certificate(vec, verdict, 4)
        if isinstance(verdict, InCone):
            in_cone += 1
        else:
            outside += 1
            assert not is_subtraction_free(ratio_difference_poly(r)).subtraction_free
            outcome = falsify(r)
            if isinstance(outcome, Evidence):
                outside_with_evidence += 1
    assert outside >= 8  # the rotation orbit stays outside the cone
    print(
        f"sampled survey: {len(screened)} screen-passing ratios, "
        f"{in_cone} in cone, {outside} outside (all certificates verified), "
        f"{outside_with_evidence}/{outside} outsiders with growth evidence"
    )
