"""Benchmark of the conesing CLI: three closed-loop workloads, one client.

Run from the root of a checkout (no install step; the package is imported
from ``src``):

    python3 benchmarks/run.py --workload graph --seed 1 --seconds 15 --trace 0

Each request is one ``conesing.cli.main(argv)`` call made in-process with
stdout and stderr captured; the next request starts when the previous one
has been checked.  Whole cycles of the workload's request mix run until the
time spent inside ``main`` reaches ``--seconds`` and ten samples lie beyond
the workload's tail percentile.  Every answer goes to an
oracle outside the timed region.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``; per-layer metrics and the tracing overhead with
``--trace 1``).  The line before it carries sample counts and percentiles.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

# Fixed per workload so parent and child report the same percentile; a run
# keeps going until at least TAIL_BEYOND samples lie beyond it.
TAIL_PERCENTILE = {"catalog": 75, "graph": 98, "algebra": 80}
TAIL_BEYOND = 10
# A catalog cycle has one job per grid point, and only the few jobs near
# the median inform p50; three cycles give it six samples of each.
MIN_CYCLES = {"catalog": 3}
SETUP_RUNS = 31
WARM_UP = {
    "catalog": [("enumerate", "--epsilon0", "1", "--isotropy", "2", "--format", "json")],
    "graph": [("resolve", "--divisor", "0:1/2,1:1/3,inf:-4/5", "--format", "json"),
              ("mld", "--divisor", "inf:3")],
    "algebra": [("tjurina", "--poly", "x^2+y^3+z^5"), ("an-blowups", "--n", "5", "--format", "json")],
}


class SetupClock:
    """Wall times of fresh interpreters that import conesing.cli and exit.
    The first, untimed one writes the bytecode cache.  The SETUP_RUNS timed
    ones are spread evenly, between requests, over the first ``seconds`` of
    time inside main, so their median spans a stretch of machine time
    rather than one moment of it."""

    def __init__(self, seconds: float):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.command = [sys.executable, "-c", "import conesing.cli"]
        self.every = seconds / SETUP_RUNS
        self.samples: list[float] = []
        subprocess.run(self.command, env=self.env, check=True)

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.command, env=self.env, check=True)
        self.samples.append(time.perf_counter() - start)

    def between(self, busy_s: float) -> None:
        while len(self.samples) < SETUP_RUNS and busy_s >= len(self.samples) * self.every:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_RUNS:
            self.sample()
        return self.samples


def call(cli, argv, tracer=None, request_id=None):
    """One request: (exit code or error text, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.request_id = request_id
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.request_id = None
    return code, out.getvalue(), err.getvalue(), elapsed


class Checker:
    """Runs the workload's oracle on each answer and tallies verdicts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.catalog = oracles.CatalogOracle() if workload == "catalog" else None
        self.algebra = oracles.AlgebraOracle() if workload == "algebra" else None
        self.deferred = []
        self.verdicts: Counter = Counter()
        self.known_wrong: Counter = Counter()
        self.unexpected: list[dict] = []

    def check(self, request, code, out, err) -> None:
        if not isinstance(code, int):
            verdict = oracles.UNEXPECTED
        elif self.workload == "catalog":
            verdict = self.catalog.check(request, code, out, err)
        elif self.workload == "graph":
            verdict = oracles.check_graph(request, code, out, err)
        else:
            verdict = self.algebra.check(request, code, out, err)
            if verdict is None:
                self.deferred.append((request, code, out, err))
                return
        self._tally(request, verdict, code, err)

    def finish(self) -> None:
        for request, code, out, err in self.deferred:
            self._tally(request, self.algebra.finish(request, code, out, err), code, err)
        self.deferred = []

    def _tally(self, request, verdict, code, err) -> None:
        self.verdicts[verdict] += 1
        if verdict == oracles.KNOWN_WRONG:
            self.known_wrong[request.kind] += 1
        elif verdict == oracles.UNEXPECTED:
            self.unexpected.append({"argv": list(request.argv), "code": code, "stderr": err[-300:]})

    @property
    def failed(self) -> int:
        return self.verdicts[oracles.KNOWN_WRONG] + self.verdicts[oracles.UNEXPECTED]


def run_pass(cli, workload: str, seed: int, checker: Checker, done, tracer=None, between=None):
    """Closed loop over whole cycles until ``done(latencies by cycle)``.
    ``between(busy seconds so far)`` runs after each checked request.
    Returns the latency of every request, grouped by cycle."""
    by_cycle: list[list[float]] = []
    busy = 0.0
    while not by_cycle or not done(by_cycle):
        latencies = []
        for request in workloads.WORKLOADS[workload](seed, len(by_cycle)):
            request_id = sum(map(len, by_cycle)) + len(latencies)
            code, out, err, elapsed = call(cli, request.argv, tracer, request_id)
            latencies.append(elapsed)
            busy += elapsed
            checker.check(request, code, out, err)
            del out
            gc.collect()
            if between is not None:
                between(busy)
        by_cycle.append(latencies)
    return by_cycle


def busy_for(seconds: float):
    return lambda by_cycle: sum(map(sum, by_cycle)) >= seconds


def rate(by_cycle: list[list[float]]) -> float:
    """Requests completed per second of time inside main, over whole
    cycles of the mix."""
    return sum(map(len, by_cycle)) / sum(map(sum, by_cycle))


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    position = (len(sorted_values) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def tail(workload: str, latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's fixed tail
    percentile."""
    ordered = sorted(latencies)
    p = TAIL_PERCENTILE[workload]
    value = percentile(ordered, p)
    return p, value, sum(1 for x in ordered if x > value)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, args, checker: Checker):
    setup_clock = SetupClock(args.seconds)
    share = 100 - TAIL_PERCENTILE[args.workload]
    enough = busy_for(args.seconds)
    by_cycle = run_pass(
        cli, args.workload, args.seed, checker,
        lambda c: (enough(c) and len(c) >= MIN_CYCLES.get(args.workload, 1)
                   and sum(map(len, c)) * share >= 100 * TAIL_BEYOND),
        between=setup_clock.between)
    setup = setup_clock.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.finish()
    latencies = [x for cycle in by_cycle for x in cycle]
    p, tail_s, beyond = tail(args.workload, latencies)
    attempted = len(latencies)
    metrics = {
        "ops_per_s": metric(rate(by_cycle), "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": metric(tail_s * 1000, "ms"),
        "ok_ratio": metric((attempted - checker.failed) / attempted, "ratio"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    detail = {
        "cycles": len(by_cycle),
        "samples": attempted,
        "busy_s": sum(latencies),
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "setup_samples": len(setup),
    }
    return attempted, metrics, detail


def traced(cli, args, checker: Checker):
    """Untraced pass for half the time, then the same cycles traced."""
    plain = run_pass(cli, args.workload, args.seed, checker, busy_for(args.seconds / 2))
    tracer = Tracer()
    tracer.install()
    try:
        with_spans = run_pass(cli, args.workload, args.seed, checker,
                              lambda c: len(c) == len(plain), tracer)
    finally:
        tracer.uninstall()
    checker.finish()
    requests = sum(map(len, with_spans))
    metrics = {name: metric(value, unit)
               for name, (value, unit) in tracer.layer_metrics(requests).items()}
    untraced_rate, traced_rate = rate(plain), rate(with_spans)
    metrics["trace.ops_per_s_untraced"] = metric(untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = metric(untraced_rate - traced_rate, "1/s")
    spans_path = write_spans(tracer.spans, f"spans-{args.workload}-{args.seed}.jsonl.gz")
    detail = {"cycles": len(plain), "samples": requests, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(HERE.parent)),
              "calls_unit": "per request of the traced pass"}
    return sum(map(len, plain)) + requests, metrics, detail


def write_spans(spans, name: str) -> Path:
    """One JSON array per span: name, start, end (seconds from the first
    span), parent span index, request id."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / name
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for span_name, start, end, parent, request in spans:
            handle.write(json.dumps([span_name, start - origin, end - origin, parent, request]))
            handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conesing" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/conesing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from conesing import cli

    for warm_up in WARM_UP[args.workload]:
        call(cli, warm_up)
    workloads.WORKLOADS[args.workload](args.seed, 0)  # builds the generator's tables
    checker = Checker(args.workload)
    # What exists now lives for the whole run; freezing it keeps the
    # collection after every request short.
    gc.collect()
    gc.freeze()
    run = traced if args.trace else end_to_end
    attempted, metrics, detail = run(cli, args, checker)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_ratio=checker.failed / attempted, failed=checker.failed,
                  attempted=attempted, known_wrong=dict(checker.known_wrong),
                  unexpected=checker.unexpected[:5])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not checker.unexpected,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
