"""In-memory span recorder that instruments indexvar from outside the package.

A span is (name, start, end, parent, unit, attrs). Spans are opened around
calls into each module's public functions by replacing the function under
the name its caller looks it up by (for example both ``select.fit_ciaar``
and ``estimators.fit_ciaar``), so nothing under ``src/`` changes. Spans are
kept in a list until the run ends; per-layer metrics, including self time
(duration minus the time covered by direct child spans), are computed from
that list and the list itself is dumped as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, UNIT, ATTRS = range(6)

# units whose spans are kept in the dump but left out of the layer metrics
UNCOUNTED_UNITS = ("check",)


class Tracer:
    """Records nested spans; ``unit`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit: object = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._layers: dict[str, tuple] = {}   # layer name -> counter names

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.unit, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block; yields the span's attrs dict."""
        rec = self.open(name)
        try:
            yield rec[ATTRS]
        finally:
            self.close(rec)

    def declare(self, name: str, counters: tuple = ()) -> None:
        """Register a layer so its metrics read 0 on runs that never enter it."""
        self._layers[name] = tuple(counters)

    def instrument(self, name: str, targets, attrs=None, counters: tuple = ()) -> None:
        """Wrap each ``(module, attribute)`` target in a span called ``name``.

        attrs(arguments, result) returns counters for the span, keyed by full
        metric name, plus an optional "sublayer" whose spans also count as
        layer ``name.sublayer``. A target the module no longer has is listed
        in ``missing`` rather than failing the run.
        """
        self.declare(name, counters)
        for module, attr in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, attrs))

    def _wrap(self, name, fn, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if attrs:
                rec[ATTRS].update(attrs(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Flat metric dict: <layer>.{calls,ms_total,ms_p50,ms_p99,self_ms} and counters."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        durations = defaultdict(list)
        self_s = defaultdict(float)
        counters = defaultdict(float)
        for layer, names in self._layers.items():
            durations.setdefault(layer, [])
            for c in names:
                counters[c] = 0
        for i, rec in enumerate(self.spans):
            if rec[UNIT] in UNCOUNTED_UNITS:
                continue
            dur = rec[END] - rec[START]
            layers = [rec[NAME]]
            for key, value in rec[ATTRS].items():
                if key == "sublayer":
                    layers.append(f"{rec[NAME]}.{value}")
                else:
                    counters[key] += value
            for layer in layers:
                durations[layer].append(dur)
                self_s[layer] += dur - child_s[i]
        out = dict(counters)
        for layer, ds in durations.items():
            out[f"{layer}.calls"] = len(ds)
            out[f"{layer}.ms_total"] = 1e3 * math.fsum(ds)
            out[f"{layer}.ms_p50"] = 1e3 * statistics.median(ds) if ds else 0.0
            out[f"{layer}.ms_p99"] = 1e3 * nearest_rank(ds, 0.99) if ds else 0.0
            out[f"{layer}.self_ms"] = 1e3 * self_s[layer]
        return out

    def dump(self, path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "unit", "attrs")
        with open(path, "w") as fh:
            json.dump(
                {**header, "missing_targets": self.missing,
                 "spans": [dict(zip(keys, rec)) for rec in self.spans]},
                fh,
            )
            fh.write("\n")


def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule (an observed value)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]
