"""Check the span recorder against call counts known for one query.

    python3 perfbench/check_tracer.py

`falsify` with its defaults on ``[1,2,3,4][1,4,6,7]/[1,2,4,7][1,3,4,6]``
(a screen-failing ratio whose degree-gap ladder dips, so the falsifier
also sweeps all 16 symmetries of the counterexample family and ends
`Inconclusive`) makes exactly 712 `require_tp` and 11,840 `det` calls,
counted over both modules that look them up (`matrices` and `grassmann`).
The counts belong to the falsifier as it stands; a change to the falsifier
that removes calls changes them.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATIO = "[1,2,3,4][1,4,6,7]/[1,2,4,7][1,3,4,6]"
EXPECTED = {"matrices.require_tp": 712, "matrices.det": 11840}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from tpratio.cli import parse_ratio
    from tpratio.tpcore import grassmann, matrices, witnesses

    from tracer import SpanRecorder, install

    originals = {(m, a): getattr(m, a) for m in (matrices, grassmann) for a in ("det", "require_tp")}
    recorder = SpanRecorder()
    restore = install(recorder)
    try:
        outcome = witnesses.falsify(parse_ratio(RATIO))
    finally:
        restore()

    problems = []
    if type(outcome).__name__ != "Inconclusive":
        problems.append(f"expected Inconclusive, got {outcome!r}")
    for name, want in EXPECTED.items():
        got = recorder.count(name)
        print(f"{name}.calls = {got} (expected {want})")
        if got != want:
            problems.append(f"{name}: {got} calls, expected {want}")
    if any(getattr(m, a) is not f for (m, a), f in originals.items()):
        problems.append("install() did not restore the original functions")
    # Self times partition the root spans: their sum equals the time of the
    # spans that have no parent.
    roots = sum(e - s for p, s, e in zip(recorder.parent_id, recorder.start_ns, recorder.end_ns) if p < 0)
    total_self = sum(recorder.self_ns[nid] for nid in set(recorder.span_name))
    if roots != total_self:
        problems.append(f"self times sum to {total_self} ns, root spans cover {roots} ns")
    if recorder.count("witnesses.falsify") != 1 or len(recorder.span_id) != sum(recorder.calls):
        problems.append("span bookkeeping is inconsistent")
    for line in problems:
        print(f"FAIL: {line}")
    print("tracer check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
