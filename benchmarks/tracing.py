"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces each function in ``TARGETS`` with a wrapper
that records one span per call: name, start, end, parent span and request
id.  A function that another ``conesing`` module imported by name is
replaced in that module's namespace too, and methods are replaced on their
class.  ``Tracer.uninstall()`` puts every original back.  Spans stay in
memory; ``layer_metrics()`` folds them into per-layer self times and the
counts recorded at the same call boundaries.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute path) of every traced function, in layer order.
TARGETS = (
    ("rationals", "solve_linear"),
    ("rationals", "is_negative_definite"),
    ("rationals", "hj_expand"),
    ("resolution", "discrepancies"),
    ("resolution", "build_graph"),
    ("divisors", "QDivisorP1.canonical_form"),
    ("divisors", "QDivisorP1.normalize_seifert"),
    ("cones", "log_fano_quotient"),
    ("catalog", "enumerate_catalog"),
    ("groebner", "buchberger"),
    ("groebner", "s_polynomial"),
    ("groebner", "normal_form"),
    ("groebner", "quotient_dimension"),
    ("toric_an", "enumerate_plt_blowups"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


COUNTS = (
    "resolution.discrepancies.nodes",
    "resolution.build_graph.nodes",
    "rationals.hj_expand.coeffs",
    "catalog.entries",
    "catalog.discrepancies_calls",
    "groebner.buchberger.basis_size",
    "groebner.normal_form.zero",
    "toric_an.enumerate_plt_blowups.rays",
)


def _count_result(tracer, name, args, result):
    """Counts taken where the work happens, from arguments and results."""
    counts = tracer.counts
    if name == "resolution.discrepancies":
        counts["resolution.discrepancies.nodes"] += len(args[0].nodes)
        if tracer.active["catalog.enumerate_catalog"]:
            counts["catalog.discrepancies_calls"] += 1
    elif name == "resolution.build_graph":
        counts["resolution.build_graph.nodes"] += len(result.nodes)
    elif name == "rationals.hj_expand":
        counts["rationals.hj_expand.coeffs"] += len(result)
    elif name == "catalog.enumerate_catalog":
        counts["catalog.entries"] += len(result)
    elif name == "groebner.buchberger":
        counts["groebner.buchberger.basis_size"] += len(result.generators)
    elif name == "groebner.normal_form" and result.is_zero():
        counts["groebner.normal_form.zero"] += 1
    elif name == "toric_an.enumerate_plt_blowups":
        counts["toric_an.enumerate_plt_blowups.rays"] += len(result)


class Tracer:
    """Records spans for calls made while a request id is set.

    Calls outside a request (oracle checks, warm-up) pass straight through,
    so only the timed requests are traced.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.request_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                    self.request_id]
            self.spans.append(span)
            self._stack.append(index)
            self.active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active[name] -= 1
                self._stack.pop()
                span[2] = time.perf_counter()
            _count_result(self, name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "conesing" or key.startswith("conesing."))]
        for module_name, attr in TARGETS:
            module = sys.modules[f"conesing.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-request calls and self seconds of every traced function, the
        recorded counts and the two useful-work ratios."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, seconds in self_times(self.spans):
            calls[name] += 1
            self_s[name] += seconds
        per = max(requests, 1)
        metrics: dict[str, tuple[float, str]] = {}
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            metrics[f"{name}.calls"] = (calls[name] / per, "count/req")
            metrics[f"{name}.self_s"] = (self_s[name] / per, "s/req")
        for key in COUNTS:
            metrics[key] = (self.counts[key] / per, "count/req")
        solves = self.counts["catalog.discrepancies_calls"]
        metrics["catalog.useful_ratio"] = (
            self.counts["catalog.entries"] / solves if solves else 0.0, "ratio")
        forms = calls["groebner.normal_form"]
        nonzero = forms - self.counts["groebner.normal_form.zero"]
        metrics["groebner.useful_ratio"] = (nonzero / forms if forms else 0.0, "ratio")
        return metrics


def self_times(spans):
    """Yield (name, self seconds) per span: its duration minus the part of
    its interval that its child spans cover."""
    covered = [0.0] * len(spans)
    reach = [span[1] for span in spans]  # where each span's uncovered part starts
    for _, start, end, parent, _ in spans:
        if parent is None:
            continue
        lo, hi = max(start, reach[parent]), min(end, spans[parent][2])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    for index, (name, start, end, _, _) in enumerate(spans):
        yield name, (end - start) - covered[index]
