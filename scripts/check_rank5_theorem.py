"""The paper's two-over-two theorem at rank 5, checked by two independent routes.

    python3 scripts/check_rank5_theorem.py            # rank 5, about 2.5 min
    python3 scripts/check_rank5_theorem.py --rank 4   # any rank, for a quick run

Run from the root of a checkout.  For every two-over-two ST0 ratio of the
rank (each ordered pair of index-set pairs with one index-count profile,
as `tests/util.st0_ratios` lists them: 293,328 at rank 5), three verdicts
must agree:

* the screens: `check_st0` and `check_condition_m` both hold;
* the Temperley-Lieb matching test `tests/util.tl_bounded`, which shares
  no code with the screens;
* `factor_to_basics` succeeds, that is returns a factorization whose
  basics multiply back to the ratio, where it raises the screen
  violation otherwise.

Prints the counts and the run time, and exits 1 on the first
disagreement.  The ratios are generated one profile group at a time, so
the whole list is never held.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from tpratio.combinatorics import RatioExpr, check_condition_m, check_st0  # noqa: E402
from tpratio.errors import ConditionMViolation, St0Violation  # noqa: E402
from tpratio.factorizer import factor_to_basics  # noqa: E402

import util  # noqa: E402


def st0_ratios(rank: int):
    """`util.st0_ratios`, in the same order, one profile group at a time."""
    for group in util.st0_pairs_by_profile(rank).values():
        for num, den in itertools.product(group, group):
            yield RatioExpr.of(rank, num, den)


def factors(ratio: RatioExpr) -> bool:
    try:
        factor_to_basics(ratio)
    except (St0Violation, ConditionMViolation):
        return False
    return True


def check(rank: int) -> dict[str, int]:
    """The counts of one rank's run; raises `AssertionError` naming the
    first ratio on which the three verdicts differ."""
    counts = {"ratios": 0, "screens pass": 0, "tl bounded": 0, "factored": 0}
    for ratio in st0_ratios(rank):
        screens = check_st0(ratio).holds and check_condition_m(ratio).holds
        verdicts = (screens, util.tl_bounded(ratio), factors(ratio))
        if len(set(verdicts)) != 1:
            raise AssertionError(f"{ratio}: screens, TL and factorization say {verdicts}")
        counts["ratios"] += 1
        for key, verdict in zip(("screens pass", "tl bounded", "factored"), verdicts):
            counts[key] += verdict
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rank", type=int, default=5)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        counts = check(args.rank)
    except AssertionError as disagreement:
        print(f"disagreement: {disagreement}")
        return 1
    for key, value in counts.items():
        print(f"{key}: {value:,}")
    print(f"disagreements: 0\nrank {args.rank} in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
