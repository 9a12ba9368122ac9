"""Span recorder that times calls into the library's public functions.

`install` replaces each traced function in every ``tpratio`` module that
holds it, which is where its callers look it up: ``grassmann.det`` and
``matrices.det`` are both wrapped, so a `det` reached through either module
is seen.  A wrapper records one span per call (name, query id, parent span,
start and end in `perf_counter_ns`) and adds to per-name call counts and
self time (span time minus the time covered by child spans).  Spans stay
in memory and are written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns
from typing import Callable

from tpratio import cli, combinatorics, conelab, factorizer, polycheck
from tpratio.conelab import InCone
from tpratio.tpcore import grassmann, matrices, witnesses


# (layer name it is reported under, module that defines it, attribute name)
TARGETS = (
    ("cli.parse_ratio", cli, "parse_ratio"),
    ("combinatorics.screens", combinatorics, "check_st0"),
    ("combinatorics.screens", combinatorics, "check_condition_m"),
    ("factorizer.factor_to_basics", factorizer, "factor_to_basics"),
    ("factorizer.split_once", factorizer, "split_once"),
    ("factorizer.basic_ratios_all", factorizer, "basic_ratios_all"),
    ("conelab.cone_membership", conelab, "cone_membership"),
    ("conelab.verify_certificate", conelab, "verify_certificate"),
    ("polycheck.ratio_difference_poly", polycheck, "ratio_difference_poly"),
    ("polycheck.is_subtraction_free", polycheck, "is_subtraction_free"),
    ("witnesses.falsify", witnesses, "falsify"),
    ("witnesses.witness_matrix", witnesses, "witness_matrix"),
    ("grassmann.eval_ratio", grassmann, "eval_ratio"),
    ("grassmann.shift_matrix", grassmann, "shift_matrix"),
    ("grassmann.reverse_matrix", grassmann, "reverse_matrix"),
    ("matrices.random_tp", matrices, "random_tp"),
    ("matrices.require_tp", matrices, "require_tp"),
    ("matrices.det", matrices, "det"),
)


class SpanRecorder:
    """In-memory spans plus per-name aggregates.  Single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.query = -1  # set by the runner before each query
        # one entry per finished span, in finishing order
        self.span_id = array("q")
        self.parent_id = array("q")
        self.span_query = array("q")
        self.span_name = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._next_id = 0
        self._open: list[int] = []  # span ids of the open spans
        self._child_ns: list[int] = []  # time covered by children, per open span

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        by_verdict = name == "conelab.cone_membership"  # self time split by verdict too

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            self._child_ns.append(0)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._open.pop()
                own = end - start - self._child_ns.pop()
                if self._child_ns:
                    self._child_ns[-1] += end - start
                self.calls[nid] += 1
                self.self_ns[nid] += own
                if by_verdict and result is not None:
                    label = "in_cone" if isinstance(result, InCone) else "outside"
                    self.self_ns[self.name_id(f"{name}.{label}")] += own
                self.span_id.append(sid)
                self.parent_id.append(parent)
                self.span_query.append(self.query)
                self.span_name.append(nid)
                self.start_ns.append(start)
                self.end_ns.append(end)

        return traced

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_seconds(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e9 if name in self._ids else 0.0

    def write_spans(self, path) -> None:
        """Tab-separated spans, one per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tquery\tname\tstart_ns\tend_ns\n")
            for k in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[k]}\t{self.parent_id[k]}\t{self.span_query[k]}\t"
                    f"{self.names[self.span_name[k]]}\t{self.start_ns[k]}\t{self.end_ns[k]}\n"
                )


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target wherever a ``tpratio`` module holds it; returns a
    function that puts the originals back."""
    undo = []
    for layer, home, attr in TARGETS:
        original = getattr(home, attr)
        wrapped = recorder.wrap(layer, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "tpratio":
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return restore
