"""Spans around the public callables of swedge, recorded from outside it.

``install`` replaces each callable where the package binds it with a
wrapper that records a span (name, start, end, parent, size).  Spans stay
in memory; ``layer_metrics`` turns them into the per-layer metrics.  No
program file changes.

Run as a script, it executes one traced CLI invocation and writes its
spans to a file:  python3 perfbench/tracing.py SPANS.json ARG...
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _cells(grid) -> int:
    return grid.n_clusters * grid.n_periods


# (module, attribute path, span name, size of the work: f(args, result)).
BINDINGS = (
    ("swedge.cli", "sweep", "power.sweep", None),
    ("swedge.cli", "design_power", "power.design_power", None),
    ("swedge.cli", "parse_design", "designs.parse", lambda a, r: _cells(r)),
    ("swedge.cli", "catalog_design", "designs.catalog", None),
    ("swedge.cli", "validate_design", "designs.validate", lambda a, r: _cells(a[0])),
    ("swedge.power", "design_power", "power.design_power", None),
    ("swedge.power", "closed_form_covariance", "variance.closed_form", None),
    ("swedge.power", "wald_power", "power.wald", None),
    ("swedge.variance", "information_matrix", "variance.information_matrix", None),
    ("swedge.variance", "closed_form_covariance", "variance.closed_form", None),
    ("swedge.variance", "oracle_covariance", "variance.oracle", None),
    ("swedge.designs", "parse_design", "designs.parse", lambda a, r: _cells(r)),
    ("swedge.designs", "validate_design", "designs.validate", lambda a, r: _cells(a[0])),
    ("swedge.designs", "DesignGrid.indicators", "designs.indicators", None),
    ("swedge.covariance", "CorrelationSpec.__init__", "covariance.spec", None),
    ("swedge.covariance", "CorrelationSpec.with_icc", "covariance.with_icc", None),
    ("swedge.covariance", "CorrelationSpec.cov_entries", "covariance.cov_entries", None),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1, size]
        self._open = [-1]

    def _traced(self, name, fn, size):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, open_[-1], 0]
            spans.append(span)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if size is not None:
                span[4] = size(args, result)
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._open[-1], 0]
        self.spans.append(span)
        self._open.append(idx)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def install(self):
        """Wrap every binding; returns a function that restores them."""
        saved = []
        for module, path, name, size in BINDINGS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._traced(name, original, size))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return restore

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another tracer, keeping parent links."""
        base = len(self.spans)
        self.spans.extend([n, s, e, p + base if p >= 0 else -1, z] for n, s, e, p, z in spans)


def layer_metrics(spans: list[list], *, points: int, pairs: int, traced_s: float) -> dict:
    """Per-layer metrics from spans.

    ``points`` is the number of (design, parameter point) evaluations the
    traced operations asked for and ``pairs`` the number of (design,
    operation) pairs; ``traced_s`` is the traced operations' wall time.
    """
    dur: dict[str, list[float]] = {}
    child = [0.0] * len(spans)
    size: dict[str, int] = {}
    for name, start, end, parent, work in spans:
        dur.setdefault(name, []).append(end - start)
        size[name] = size.get(name, 0) + work
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, list[float]] = {}
    cov_busy = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        own.setdefault(name, []).append(end - start - child[idx])
        if name.startswith("covariance.") and not (
                parent >= 0 and spans[parent][0].startswith("covariance.")):
            cov_busy += end - start

    def calls(name):
        return len(dur.get(name, ()))

    def p50_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.main_calls": calls("cli.main"),
        "cli.main_self_s": sum(own.get("cli.main", ())),
        "power.sweep_calls": calls("power.sweep"),
        "power.design_power_calls": calls("power.design_power"),
        "power.design_power_us_p50": p50_us(dur.get("power.design_power")),
        "power.design_power_self_us": p50_us(own.get("power.design_power")),
        "power.wald_calls": calls("power.wald"),
        "power.wald_us_p50": p50_us(dur.get("power.wald")),
        "power.wald_busy_share": ratio(sum(dur.get("power.wald", ())), traced_s),
        "variance.closed_form_calls": calls("variance.closed_form"),
        "variance.closed_form_us_p50": p50_us(dur.get("variance.closed_form")),
        "variance.information_matrix_calls": calls("variance.information_matrix"),
        "variance.information_matrix_us_p50": p50_us(dur.get("variance.information_matrix")),
        "variance.summaries_per_design": ratio(calls("variance.information_matrix"), pairs),
        "variance.oracle_calls": calls("variance.oracle"),
        "variance.oracle_us_p50": p50_us(dur.get("variance.oracle")),
        "covariance.spec_calls": sum(calls(n) for n in dur if n.startswith("covariance.")),
        "covariance.busy_s": cov_busy,
        "designs.parse_calls": calls("designs.parse"),
        "designs.cells_parsed": size.get("designs.parse", 0),
        "designs.parse_us_per_cell": ratio(sum(dur.get("designs.parse", ())) * 1e6,
                                           size.get("designs.parse", 0)),
        "designs.validate_us_per_cell": ratio(sum(dur.get("designs.validate", ())) * 1e6,
                                              size.get("designs.validate", 0)),
        "designs.indicators_calls": calls("designs.indicators"),
        "designs.indicators_per_point": ratio(calls("designs.indicators"), points),
    }


def dump(spans: list[list], path) -> None:
    """Write spans as {"names": [...], "spans": [[name index, start, end, parent, size]]}."""
    names = sorted({s[0] for s in spans})
    index = {n: k for k, n in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "spans": [[index[n], s, e, p, z] for n, s, e, p, z in spans]}, fh)


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[names[n], s, e, p, z] for n, s, e, p, z in doc["spans"]]


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    import swedge.cli

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main"):
        code = swedge.cli.main(argv)
    sys.stdout.flush()
    dump(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
