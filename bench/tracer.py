"""Spans around the calls into vitalchirp's public functions.

The benchmark wraps each traced function from outside the package: the
wrapper replaces the function in every loaded ``vitalchirp`` module that
binds it (``scenario`` and ``radar`` import some functions by name), so
calls made inside the package are recorded too.  Each span holds a name,
its iteration id, its parent span, start and end times, and an optional
measured quantity (bytes, or the filter spec).  Spans stay in memory
until the caller dumps or aggregates them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Functions traced, per module.  Names missing from a module are skipped,
# so the benchmark keeps running when the package drops one of them.
LAYERS = {
    "scenario": ("run_scenario", "validate_scenario"),
    "physio": ("synth_motion",),
    "photonics": ("contact_intensity",),
    "radar": ("synth_dechirp_frames",),
    "pipelines": ("range_profile", "extract_target_phase", "contactless_rates",
                  "contact_rates", "resolution_sweep"),
    "dsp": ("design_bandpass", "filter_zero_phase", "spectrum", "peak_search",
            "bandwidth_3db", "unwrap_phase"),
    "formats": ("write_bundle", "write_frames", "write_series_csv", "read_bundle",
                "read_frames", "read_intensity_csv"),
    "cli": ("main",),
}


def _file_size(path) -> int:
    return os.path.getsize(path)


# What each span measures besides time, from (args, kwargs, result).
MEASURES = {
    "radar.synth_dechirp_frames": lambda a, k, r: r.samples.shape[0] * r.samples.shape[1] * 8,
    "formats.write_frames": lambda a, k, r: _file_size(a[1]),
    "formats.read_frames": lambda a, k, r: _file_size(a[0]),
    "formats.write_series_csv": lambda a, k, r: _file_size(a[0]),
    "dsp.design_bandpass": lambda a, k, r: repr(a[0] if a else k["spec"]),
    "pipelines.contactless_rates": lambda a, k, r: len(r),
}

# Span fields, in the order a span is stored and dumped.
NAME, ITERATION, PARENT, START, END, VALUE = range(6)


class Tracer:
    """Records nested spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (no nesting below it)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.iteration, parent, start, end, None])

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self.iteration, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if measure is not None:
                record[VALUE] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded vitalchirp module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vitalchirp" or n.startswith("vitalchirp."))]
        for short, names in LAYERS.items():
            home = sys.modules.get(f"vitalchirp.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def append_spans(dest: list[list], spans: list[list]) -> None:
    """Append spans recorded elsewhere to ``dest``, re-indexing their parents."""
    offset = len(dest)
    for span in spans:
        parent = span[PARENT]
        dest.append([*span[:PARENT], None if parent is None else parent + offset,
                     *span[PARENT + 1:]])


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and
    their durations add up to the time they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, self and inclusive seconds, and the measured values.

    Numeric values (bytes, report counts) are summed in ``total``; string
    values (filter specs) are collected per iteration in ``distinct``.
    """
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "total": 0, "distinct": set()}
    )
    for span, own in zip(spans, self_times(spans)):
        agg = out[span[NAME]]
        agg["calls"] += 1
        agg["self_s"] += own
        agg["incl_s"] += span[END] - span[START]
        value = span[VALUE]
        if isinstance(value, str):
            agg["distinct"].add((span[ITERATION], value))
        elif value is not None:
            agg["total"] += value
    return out


def top_level_seconds(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)
