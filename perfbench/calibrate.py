"""Measure and write the inputs the workloads are built from.

    python3 perfbench/calibrate.py shares   # print screen-pass shares
    python3 perfbench/calibrate.py survey   # write survey_pool.tsv
    python3 perfbench/calibrate.py rank4    # write rank4_pool.tsv

``shares`` prints, per rank, the share of `SHARE_DRAWS` uniform
two-over-two ST0 draws that pass condition M; `survey-2x2` mixes passing
and failing ratios in these proportions (`workloads.SCREEN_PASS_SHARE`).

``survey`` writes `SURVEY_FAILING` uniform screen-failing two-over-two
draws per rank, each labelled with the outcome `falsify` gives it today
(``degree_gap``, ``counterexample_family``, ``random_search`` or
``inconclusive``).  `survey-2x2` draws its screen-failing queries from
this pool, the same number from each label in every run, in the label
shares of the pool.  The label only places a ratio in a stratum; it is
not checked against the outcome of a run.  Lines are
``rank<TAB>label<TAB>ratio``; writing the pool takes a few minutes.

``rank4`` writes `N3` uniform three-over-three and `N2` uniform
two-over-two screen-passing rank-4 draws, all distinct and none of them a
member of the unbounded orbit, each with its cone verdict.  `cone-r4` and
`falsify-r4` draw their screen-passing queries from this pool, so that a
ratio's cone verdict is known to both: `cone-r4` checks that it reproduces
the committed verdict, and `falsify-r4` checks that no ratio the cone
places `InCone` gets `Evidence`.  Lines are ``arity<TAB>verdict<TAB>ratio``;
writing the pool takes a few minutes.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tpratio import conelab  # noqa: E402
from tpratio.combinatorics import all_index_sets, check_condition_m  # noqa: E402
from tpratio.tpcore import witnesses  # noqa: E402

import workloads  # noqa: E402

SHARE_DRAWS = 20_000
SURVEY_FAILING = 300
N3, N2 = 64, 32


def shares() -> None:
    for rank in (3, 4, 5):
        rng = random.Random(f"screen-share/{rank}")
        sets = all_index_sets(rank)
        passing = sum(
            check_condition_m(workloads.draw_2x2(rng, rank, sets)).holds for _ in range(SHARE_DRAWS)
        )
        print(f"rank {rank}: {passing} of {SHARE_DRAWS} pass, share {passing / SHARE_DRAWS:.4f}")


def survey() -> None:
    lines = []
    for rank in (3, 4, 5):
        rng = random.Random(f"survey-pool/{rank}")
        sets = all_index_sets(rank)
        while len(lines) < SURVEY_FAILING * (rank - 2):
            ratio = workloads.draw_2x2(rng, rank, sets)
            if check_condition_m(ratio).holds:
                continue
            label = workloads.outcome_kind(witnesses.falsify(ratio)).removeprefix("evidence.")
            lines.append(f"{rank}\t{label}\t{ratio}\n")
        labels = [line.split("\t")[1] for line in lines[-SURVEY_FAILING:]]
        print(f"rank {rank}: " + ", ".join(f"{x} {labels.count(x)}" for x in sorted(set(labels))))
    (HERE / workloads.SURVEY_POOL_FILE).write_text("".join(lines))


def rank4() -> None:
    rng = random.Random("rank4-pool")
    sets = all_index_sets(4)
    seen = {workloads.canonical(str(r)) for r in workloads.unbounded_orbit()}
    lines = []
    for arity, count in (("3x3", N3), ("2x2", N2)):
        drawn = 0
        while drawn < count:
            if arity == "3x3":
                ratio = workloads.draw_3x3(rng, 4)
            else:
                ratio = workloads.draw_2x2(rng, 4, sets)
                if not check_condition_m(ratio).holds:
                    continue
            key = workloads.canonical(str(ratio))
            if key in seen:
                continue
            seen.add(key)
            start = time.perf_counter()
            vector = conelab.ratio_to_vector(ratio)
            verdict = conelab.cone_membership(vector, 4)
            if not conelab.verify_certificate(vector, verdict, 4):
                sys.exit(f"error: cone certificate for {ratio} does not verify")
            kind = "in_cone" if isinstance(verdict, conelab.InCone) else "outside"
            print(f"{arity} {kind:8s} {time.perf_counter() - start:7.3f} s  {ratio}", flush=True)
            lines.append(f"{arity}\t{kind}\t{ratio}\n")
            drawn += 1
    (HERE / workloads.RANK4_POOL_FILE).write_text("".join(lines))


def main() -> int:
    steps = {"shares": shares, "survey": survey, "rank4": rank4}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        sys.exit(f"usage: calibrate.py {{{','.join(steps)}}}")
    steps[sys.argv[1]]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
