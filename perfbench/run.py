"""The tpratio benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload survey-2x2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one query at a time, no
threads.  ``--trace 0`` measures the end-to-end metrics for ``--seconds``
seconds; ``--trace 1`` runs a fixed list of queries twice, untraced and then
under the span recorder, and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it name every
metric with its unit.  Spans and results are written under
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path, or stop with exit 1."""
    package = SRC / "tpratio" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package.relative_to(ROOT)} is missing; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tpratio

    if Path(tpratio.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported tpratio from {tpratio.__file__}, not the checkout")


def _environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def _percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _measure_setup(args) -> list[float]:
    """Wall time for a fresh interpreter to start, import tpratio and
    generate the seeded inputs, up to where the first query would start.
    Not scaled: in fresh processes the speed kernel of `speed.py` ran at
    anywhere from its nominal speed to twice it, and the set-up work did
    not follow it."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or ready != "ready\n":
            sys.exit(f"error: set-up probe failed with exit code {probe.returncode}")
        times.append(elapsed)
    return times


class Pass:
    """One closed-loop pass over a list of queries."""

    def __init__(self, workloads, workload, recorder=None):
        self.w = workloads
        self.workload = workload
        self.recorder = recorder
        self.digest = workloads.Digest()
        self.intervals: list[tuple[float, float]] = []  # perf_counter() per query
        self.failed = 0
        self.failures: list[str] = []
        self.kinds: dict[str, int] = {}
        self.strata: dict[str, int] = {}
        self.falsify_on_failing = 0
        self.useful_on_failing = 0
        self.poly_terms = 0
        self.elapsed_s = 0.0
        self.prefix_digest = "none (the run ended first)"
        self.ungated: dict = {}  # metrics printed and recorded, but not gated

    def query(self, query) -> None:
        if self.recorder is not None:
            self.recorder.query = self.attempted
        start = time.perf_counter()
        try:
            outcome = self.workload.recipe(query.text)
            error = None
        except Exception as exc:  # a raising query counts as failed; the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        self.intervals.append((start, time.perf_counter()))
        self.strata[query.stratum] = self.strata.get(query.stratum, 0) + 1
        if error is None:
            error = self.w.check(query, outcome)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{query.text}: {error}")
            self.digest.add(query.text, f"failed {error}")
            return
        kind = self.w.outcome_kind(outcome)
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if not query.screens_pass and kind != "factorization":
            self.falsify_on_failing += 1
            self.useful_on_failing += kind.startswith("evidence.")
        if isinstance(outcome, self.w.ConeOutcome):
            self.poly_terms += outcome.terms
        self.digest.add(query.text, self.w.summarize(outcome))

    def run(self, queries, seconds: float | None, digest_queries: int = 0) -> None:
        """All ``queries``, or with ``seconds`` set, queries until that many
        seconds of wall time have passed (repeating the list if it runs
        out), under a speed sampler.  The digest of the first
        ``digest_queries`` outcomes is kept apart, so that runs of different
        lengths can be compared."""
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            while True:
                self.query(queries[self.attempted % len(queries)])
                if self.attempted == digest_queries:
                    self.prefix_digest = self.digest.hexdigest()
                if seconds is None and self.attempted == len(queries):
                    break
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
            self.elapsed_s = time.perf_counter() - start
        self.sampler = sampler
        if self.attempted > len(queries):
            print(f"note: the stream of {len(queries)} queries ran out and was repeated")

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def latencies_s(self) -> list[float]:
        """Query times scaled to the nominal CPU speed, sorted."""
        return sorted(self.sampler.scaled(a, b) for a, b in self.intervals)

    @property
    def qps(self) -> float:
        """Queries per second of scaled query time."""
        return self.attempted / sum(self.latencies_s())

    def wall(self) -> tuple[float, float, float]:
        """Unscaled queries per second of run time, and p50 and tail query
        times in ms."""
        wall = sorted((b - a) * 1e3 for a, b in self.intervals)
        tail = _percentile(wall, self.workload.tail_percentile)[0]
        return self.attempted / self.elapsed_s, _percentile(wall, 50)[0], tail

    def report_wall(self) -> None:
        qps, p50, tail = self.wall()
        print(f"wall time: {qps:.4g} queries/s over {self.elapsed_s:.3f} s, p50 {p50:.4g} ms, "
              f"p{self.workload.tail_percentile:g} {tail:.4g} ms; "
              f"CPU speed {self.sampler.speed():.3f} of nominal "
              f"({len(self.sampler.took)} samples)")

    def report_mix(self) -> None:
        total = self.attempted
        ranks: dict[str, int] = {}
        arities: dict[str, int] = {}
        passing = 0
        for stratum, count in sorted(self.strata.items()):
            if stratum == "orbit":
                rank, arity, screen = "r4", "3x3", "pass"
            else:
                rank, arity, screen = stratum.split("/")[:3]
            ranks[rank] = ranks.get(rank, 0) + count
            arities[arity] = arities.get(arity, 0) + count
            passing += count if screen != "fail" else 0
        fmt = lambda d: ", ".join(f"{k} {v / total:.3f}" for k, v in sorted(d.items()))
        print(f"mix: rank {fmt(ranks)}; arity {fmt(arities)}; "
              f"screen-pass share {passing / total:.3f}; orbit share "
              f"{self.strata.get('orbit', 0) / total:.3f}")
        print("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(self.kinds.items())))
        for line in self.failures[:5]:
            print(f"failed: {line}", file=sys.stderr)


def _metric(metrics: dict, name: str, value: float, unit: str, extra: str = "") -> None:
    metrics[name] = {"value": value, "unit": unit}
    print(f"metric {name} = {value:.6g} {unit}{extra}")


def _wall_metrics(run: Pass, metrics: dict) -> None:
    """The unscaled counterparts of the three timings.  A plain run prints
    them and keeps them out of its gated metrics; a traced run reports them
    for its untraced pass."""
    qps, p50, tail = run.wall()
    _metric(metrics, "wall.throughput_qps", qps, "1/s", " (unscaled)")
    _metric(metrics, "wall.latency_p50_ms", p50, "ms", " (unscaled)")
    _metric(metrics, "wall.latency_tail_ms", tail, "ms",
            f" (unscaled, p{run.workload.tail_percentile:g})")


def _plain(args, w, workload) -> tuple[dict, Pass]:
    setup_times = _measure_setup(args)
    queries = w.stream(workload, args.seed, _stream_length(args, workload))
    run = Pass(w, workload)
    traced_list = _traced_length(args, workload)
    run.run(queries, args.seconds, traced_list)
    latencies = [t * 1e3 for t in run.latencies_s()]
    tail, beyond = _percentile(latencies, workload.tail_percentile)
    print(f"workload {workload.name}: closed loop, 1 client, {run.attempted} queries "
          f"in {run.elapsed_s:.3f} s")
    run.report_mix()
    print(f"CPU speed {run.sampler.speed():.3f} of nominal ({len(run.sampler.took)} samples)")
    metrics: dict = {}
    _metric(metrics, "throughput_qps", run.qps, "1/s")
    _metric(metrics, "latency_p50_ms", _percentile(latencies, 50)[0], "ms")
    _metric(metrics, "latency_tail_ms", tail, "ms",
            f" (p{workload.tail_percentile:g}, {beyond} of {len(latencies)} samples beyond)")
    _wall_metrics(run, run.ungated)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{workload.tail_percentile:g}")
    _metric(metrics, "success_share", (run.attempted - run.failed) / run.attempted, "share")
    print(f"failed_share = {run.failed / run.attempted:.6g} share "
          f"({run.failed} of {run.attempted})")
    _metric(metrics, "peak_rss_mib", _rss_mib(), "MiB")
    _metric(metrics, "setup_s", statistics.median(setup_times), "s",
            f" (median of {len(setup_times)}: " + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"verdict digest: {run.prefix_digest} over the first {traced_list} queries "
          f"(the traced run's list)")
    return metrics, run


PER_LAYER_TIMES = (
    "conelab.cone_membership",
    "conelab.verify_certificate",
    "factorizer.basic_ratios_all",
    "matrices.require_tp",
    "matrices.det",
    "matrices.random_tp",
    "grassmann.shift_matrix",
    "grassmann.reverse_matrix",
    "grassmann.eval_ratio",
    "witnesses.falsify",
    "witnesses.witness_matrix",
    "factorizer.factor_to_basics",
    "combinatorics.screens",
    "cli.parse_ratio",
    "polycheck.ratio_difference_poly",
    "polycheck.is_subtraction_free",
)
PER_LAYER_CALLS = tuple(n for n in PER_LAYER_TIMES if n != "polycheck.is_subtraction_free") + (
    "factorizer.split_once",
)


def _stream_length(args, workload) -> int:
    return math.ceil(args.seconds * workload.stream_qps)


def _traced_length(args, workload) -> int:
    return math.ceil(args.seconds * workload.traced_qps)


def _traced(args, w, workload) -> tuple[dict, Pass]:
    from tracer import SpanRecorder, install

    queries = w.stream(workload, args.seed, _traced_length(args, workload))
    plain = Pass(w, workload)
    plain.run(queries, None)
    recorder = SpanRecorder()
    restore = install(recorder)
    try:
        traced = Pass(w, workload, recorder)
        traced.run(queries, None)
    finally:
        restore()
    print(f"workload {workload.name}: traced run over a fixed list of {traced.attempted} queries")
    traced.report_mix()
    traced.report_wall()
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.failed += 1
        print("error: traced and untraced passes disagree on the verdicts", file=sys.stderr)
    metrics: dict = {}
    for name in PER_LAYER_CALLS:
        _metric(metrics, f"{name}.calls", recorder.count(name), "count")
    for name in PER_LAYER_TIMES:
        _metric(metrics, f"{name}.self_s", recorder.self_seconds(name), "s")
    _metric(metrics, "conelab.cone_membership.in_cone_s",
            recorder.self_seconds("conelab.cone_membership.in_cone"), "s")
    _metric(metrics, "conelab.cone_membership.outside_s",
            recorder.self_seconds("conelab.cone_membership.outside"), "s")
    _metric(metrics, "polycheck.terms", traced.poly_terms, "count")
    for family in ("degree_gap", "counterexample_family", "random_search"):
        _metric(metrics, f"witnesses.evidence.{family}",
                traced.kinds.get(f"evidence.{family}", 0), "count")
    _metric(metrics, "witnesses.inconclusive", traced.kinds.get("inconclusive", 0), "count")
    share = traced.useful_on_failing / traced.falsify_on_failing if traced.falsify_on_failing else 0.0
    _metric(metrics, "witnesses.evidence_share", share, "share",
            f" ({traced.useful_on_failing} of {traced.falsify_on_failing} screen-failing falsify calls)")
    _wall_metrics(plain, metrics)
    _metric(metrics, "trace.untraced_qps", plain.qps, "1/s")
    _metric(metrics, "trace.traced_qps", traced.qps, "1/s",
            f" (tracing overhead {plain.qps / traced.qps - 1:+.1%} in time per query)")
    print(f"verdict digest: {traced.digest.hexdigest()} over all {traced.attempted} queries")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
    recorder.write_spans(spans)
    print(f"spans: {len(recorder.span_id)} written to {spans.relative_to(ROOT)}")
    return metrics, traced


def _load(args, parser):
    """Import the library and the workload list; return the list's module
    and the named workload."""
    _import_library()
    import workloads

    by_name = {x.name: x for x in workloads.WORKLOADS}
    if args.workload not in by_name:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(by_name)}")
    return workloads, by_name[args.workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        w, workload = _load(args, parser)
        w.stream(workload, args.seed, _stream_length(args, workload))
        print("ready", flush=True)
        return 0

    w, workload = _load(args, parser)

    env = _environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics, run = (_traced if args.trace else _plain)(args, w, workload)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "workload": workload.name,
                                  "digest": run.digest.hexdigest(), **result,
                                  "ungated": run.ungated}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
