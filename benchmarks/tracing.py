"""Spans around the public calls of pilotc's layers, recorded from outside.

While a ``Tracer`` is active, each function named in ``SITES`` is replaced,
in every pilotc module that holds it, by a wrapper that records a span:
name, parent span, start, end and round.  A site whose attribute does not
exist is skipped and reported absent, so a refactor that renames or drops
a call leaves the run intact.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc

SITES = {
    "pipeline.compress": ("pilotc.pipeline", "compress"),
    "pipeline.segment": ("pilotc.pipeline", "segment"),
    "pipeline.resample": ("pilotc.pipeline", "resample"),
    "pipeline.validate": ("pilotc.pipeline", "validate_and_correct"),
    "container.serialize": ("pilotc.container", "serialize"),
    "container.parse": ("pilotc.container", "parse"),
    "reconstruct.decompress_uniform": ("pilotc.reconstruct", "decompress_uniform"),
    "reconstruct.init": ("pilotc.reconstruct", "Reconstructor.__init__"),
    "reconstruct.query": ("pilotc.reconstruct", "Reconstructor.query"),
    "cli.read_csv": ("pilotc.cli", "read_trajectory_csv"),
    "cli.write_csv": ("pilotc.cli", "write_positions_csv"),
}

# per-layer time metrics, in report order: (layer, metric name)
LAYERS = (
    ("pipeline.segment", "pipeline.segment_s"),
    ("pipeline.resample", "pipeline.resample_s"),
    ("pipeline.compress", "pipeline.compress_self_s"),
    ("pipeline.validate", "pipeline.validate_self_s"),
    ("reconstruct.grid_in_validate", "reconstruct.grid_in_validate_s"),
    ("container.serialize", "container.serialize_s"),
    ("container.parse", "container.parse_s"),
    ("reconstruct.grid_in_init", "reconstruct.grid_in_init_s"),
    ("reconstruct.init", "reconstruct.init_self_s"),
    ("reconstruct.query", "reconstruct.query_s"),
    ("cli.read_csv", "cli.read_csv_s"),
    ("cli.write_csv", "cli.write_csv_s"),
)

# spans whose tracemalloc peak a memory pass records: (span, metric name)
PEAKS = (
    ("pipeline.compress", "pipeline.peak_alloc_mb"),
    ("reconstruct.init", "reconstruct.peak_alloc_mb"),
)

NAME, PARENT, START, END, ROUND, PEAK = range(6)


class Tracer:
    """Context manager that wraps the sites on entry and restores them on exit.

    With ``memory=True`` the spans in ``PEAKS`` also record the peak of
    tracemalloc above its level at entry; the caller starts tracemalloc.
    A peak span nested in another (the Reconstructor that validation builds
    inside compress) records none, so the outer peak is not reset.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []  # NAME, PARENT (-1 at top), START, END, ROUND, PEAK
        self.absent: list[str] = []
        self.round = 0
        self._memory = memory
        self._stack: list[int] = []
        self._peak_depth = 0
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for name, (module_name, path) in SITES.items():
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # a function is also reachable under every name another pilotc
            # module imported it as (cli.compress is pipeline.compress)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "pilotc":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        peaks = self._memory and name in dict(PEAKS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.round, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            base = None
            if peaks:
                if self._peak_depth == 0:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                self._peak_depth += 1
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                if peaks:
                    self._peak_depth -= 1
                    if base is not None:
                        span[PEAK] = tracemalloc.get_traced_memory()[1] - base

        return wrapper

    def dump(self, path, **meta) -> None:
        """Write every span, with its parent's index, as one JSON file."""
        fields = ("name", "parent", "start", "end", "round", "peak_bytes")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "absent": self.absent, "fields": fields,
                       "spans": self.spans}, fh)


def _ancestor(spans, i: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    i = spans[i][PARENT]
    while i >= 0 and spans[i][NAME] != name:
        i = spans[i][PARENT]
    return i


def _layer_of(spans, i: int) -> str | None:
    """The per-layer metric a span's time goes to.

    The Reconstructor that validation builds belongs to validation: its grid
    decode is ``grid_in_validate`` and the rest counts in validation's self
    time.  ``init``, ``grid_in_init`` and ``query`` cover the read path only.
    """
    name = spans[i][NAME]
    in_validate = _ancestor(spans, i, "pipeline.validate") >= 0
    if name == "reconstruct.decompress_uniform":
        if in_validate:
            return "reconstruct.grid_in_validate"
        parent = spans[i][PARENT]
        return "reconstruct.grid_in_init" if parent >= 0 and spans[parent][NAME] == "reconstruct.init" else None
    if name in ("reconstruct.init", "reconstruct.query") and in_validate:
        return None
    return name


def layer_metrics(spans, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Median per round of each layer's time and call count."""
    children = [0.0] * len(spans)   # time covered by direct children
    grids = [0.0] * len(spans)      # time of grid decodes below a validate span
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        if s[PARENT] >= 0:
            children[s[PARENT]] += duration
        if s[NAME] == "reconstruct.decompress_uniform":
            v = _ancestor(spans, i, "pipeline.validate")
            if v >= 0:
                grids[v] += duration
    times = {layer: [0.0] * n_rounds for layer, _ in LAYERS}
    calls = {layer: [0] * n_rounds for layer, _ in LAYERS}
    for i, s in enumerate(spans):
        layer = _layer_of(spans, i)
        if layer not in times:
            continue
        duration = s[END] - s[START]
        if layer == "pipeline.validate":
            duration -= grids[i]
        elif layer in ("pipeline.compress", "reconstruct.init"):
            duration -= children[i]
        times[layer][s[ROUND]] += duration
        calls[layer][s[ROUND]] += 1
    out = {}
    for layer, metric in LAYERS:
        out[metric] = (statistics.median(times[layer]), "s")
        out[layer + ".calls"] = (statistics.median(calls[layer]), "count")
    return out


def peak_metrics(spans) -> dict[str, tuple[float, str]]:
    """Largest tracemalloc peak of each span in ``PEAKS``, in MB."""
    out = {}
    for span, metric in PEAKS:
        peaks = [s[PEAK] for s in spans if s[NAME] == span and s[PEAK] is not None]
        out[metric] = (max(peaks, default=0) / 2**20, "MB")
    return out


def absent_layers(metrics) -> list[str]:
    return [layer for layer, _ in LAYERS if metrics[layer + ".calls"][0] == 0]
