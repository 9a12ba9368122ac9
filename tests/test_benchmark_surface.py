"""The benchmark's hold on the library: every function its tracer wraps
still exists, the first queries of each workload run and pass the
benchmark's own output checks, and the benchmark's copy of the unbounded
orbit is the library's.  A rename under ``src/`` that the benchmark
depends on fails here instead of only as a failed benchmark run.

Only reads ``perfbench/tracer.py`` and ``perfbench/workloads.py``."""

import importlib
import time
from pathlib import Path

from tpratio import cli
from tpratio.tpcore import witnesses

import util

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_and_first_queries(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    started = time.monotonic()
    originals = [getattr(home, attr) for _, home, attr in tracer.TARGETS]
    # each benchmark run is a fresh process: nothing built by earlier tests
    witnesses._rung_table.cache_clear()
    witnesses._random_trials.cache_clear()
    recorder = tracer.SpanRecorder()
    restore = tracer.install(recorder)  # getattr of every target
    try:
        for workload in workloads.WORKLOADS:
            for query in workloads.stream(workload, 1, 2):
                outcome = workload.recipe(query.text)
                assert workloads.check(query, outcome) is None, query.text
                assert workloads.summarize(outcome)
    finally:
        restore()
    assert recorder.count("conelab.cone_membership") == 2  # the cone-r4 queries
    # the per-layer figures for the exact kernels read these spans
    assert recorder.count("matrices.det") > 0
    assert recorder.count("matrices.random_tp") > 0
    assert [getattr(home, attr) for _, home, attr in tracer.TARGETS] == originals
    assert time.monotonic() - started < 2


def test_unbounded_orbit_is_the_library_orbit(monkeypatch):
    # the benchmark builds its own copy of the orbit; it must not drift from
    # the library's action
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.unbounded_orbit() == util.orbit(cli.parse_ratio(workloads.UNBOUNDED))
