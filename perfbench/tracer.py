"""Spans around fpnn's public functions, recorded from outside the program.

``Tracer.install()`` swaps a timing wrapper in for each function in
``TARGETS`` at every fpnn module attribute bound to it, the ones through
which fpnn itself reaches it included, and puts the originals back on exit;
nothing under src/ is edited. Each span
records its name, start, end, parent span, workload and request id, plus an
optional value measured at the boundary (bytes, a cache size, an input key).
Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _file_bytes(bound, result):
    return Path(bound.arguments["path"]).stat().st_size


def _fleet_key(bound, result):
    a = bound.arguments
    return [[r.battery_id for r in a["records"]], a["n_input_cycles"], a["grid_side"],
            a["seed"], a["smooth"]]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _forward_cache_bytes(bound, result):
    return _nbytes(result[2]) if bound.arguments["want_cache"] else None


def _cell_failed(bound, result):
    return 1 if result.error else 0


def _forward_mode(bound):
    return bound.arguments["mode"]


# (span name, fpnn function, measure(bound args, result), name suffix(bound args)).
# A function is found by name in every loaded fpnn module, so the wrapper sees
# calls through the package namespace and through each module that imports it.
TARGETS = [
    ("dataset.load_canonical_dataset", "load_canonical_dataset", None, None),
    ("preprocess.preprocess_fleet", "preprocess_fleet", _fleet_key, None),
    ("preprocess.assemble_samples", "assemble_samples", None, None),
    ("preprocess.hampel_filter", "hampel_filter", None, None),
    ("preprocess.savitzky_golay", "savitzky_golay", None, None),
    ("preprocess.resample_to_grid", "resample_to_grid", None, None),
    ("preprocess.fit_scaler", "fit_scaler", None, None),
    ("preprocess.apply_scaler", "apply_scaler", None, None),
    ("preprocess.from_pairs", "SampleSet.from_pairs", None, None),
    ("io.write_tensors", "write_tensors", _file_bytes, None),
    ("io.read_tensors", "read_tensors", _file_bytes, None),
    ("training.train", "train", None, None),
    ("training.evaluate", "evaluate", None, None),
    ("training.mse_loss", "mse_loss", None, None),
    ("training.adam_step", "adam_step", None, None),
    ("model.fpnn_forward", "fpnn_forward", _forward_cache_bytes, _forward_mode),
    ("model.fpnn_backward", "fpnn_backward", None, None),
    ("ops.batchnorm2d_forward", "batchnorm2d_forward", None, None),
    ("ops.batchnorm2d_backward", "batchnorm2d_backward", None, None),
    ("ops.max_pool2d", "max_pool2d", None, None),
    ("ops.avg_pool2d", "avg_pool2d", None, None),
    ("ops.pool2d_backward", "pool2d_backward", None, None),
    ("ops.leaky_relu_forward", "leaky_relu_forward", None, None),
    ("ops.leaky_relu_backward", "leaky_relu_backward", None, None),
    ("hyperopt.run_sweep_cell", "run_sweep_cell", _cell_failed, None),
]


def _fpnn_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "fpnn" or k.startswith("fpnn."))]


def _bindings(qualname: str) -> list[tuple[object, str, object]]:
    """(owner, attribute, value) for every binding of the fpnn function
    ``qualname`` (``name`` or ``Class.method``) in the loaded fpnn modules."""
    cls_name, _, name = qualname.rpartition(".")
    found = []
    for module in _fpnn_modules():
        owner = getattr(module, cls_name, None) if cls_name else module
        if owner is None or (cls_name and not inspect.isclass(owner)):
            continue
        value = vars(owner).get(name)
        fn = value.__func__ if isinstance(value, classmethod) else value
        if (inspect.isfunction(fn) and fn.__name__ == name
                and fn.__module__.startswith("fpnn")
                and (owner, name, value) not in found):
            found.append((owner, name, value))
    return found


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.request = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, measure, suffix):
        sig = inspect.signature(fn)
        needs_args = measure is not None or suffix is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            full = name
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if suffix is not None:
                    full = f"{name}.{suffix(bound)}"
            span = {"name": full, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload, "request": self.request, "value": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span["value"] = measure(bound, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        """Wrap every target; a target fpnn no longer has is skipped and its
        metrics read 0."""
        saved = []
        try:
            for name, qualname, measure, suffix in TARGETS:
                wrappers = {}
                for owner, attr, value in _bindings(qualname):
                    if id(value) not in wrappers:
                        if isinstance(value, classmethod):
                            wrappers[id(value)] = classmethod(
                                self._wrap(value.__func__, name, measure, suffix))
                        else:
                            wrappers[id(value)] = self._wrap(value, name, measure, suffix)
                    saved.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({**s, "id": i, "start": s["start"] - t0,
                                     "end": s["end"] - t0}) + "\n")

    def summarize(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Span durations and self times grouped by name and by request.

    Self time is a span's duration minus the time its child spans cover;
    calls are single-threaded, so children never overlap.
    """

    def __init__(self, spans: list[dict]):
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self.durations = defaultdict(list)  # name -> per-call seconds
        # name -> request -> [seconds, self seconds, calls, measured values]
        self.by_request = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, []]))
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            self.durations[s["name"]].append(dur)
            row = self.by_request[s["name"]][s["request"]]
            row[0] += dur
            row[1] += dur - child_time[i]
            row[2] += 1
            if s["value"] is not None:
                row[3].append(s["value"])

    def _per_request(self, name, pick) -> float:
        rows = self.by_request.get(name)
        return float(statistics.median(pick(r) for r in rows.values())) if rows else 0.0

    def ms(self, name) -> float:
        """Median over requests of the time spent in ``name``."""
        return 1e3 * self._per_request(name, lambda r: r[0])

    def self_ms(self, name) -> float:
        return 1e3 * self._per_request(name, lambda r: r[1])

    def calls(self, name) -> float:
        return self._per_request(name, lambda r: r[2])

    def value_sum_per_request(self, name) -> float:
        return self._per_request(name, lambda r: sum(r[3]))

    def ms_p50(self, name) -> float:
        d = self.durations.get(name)
        return 1e3 * float(statistics.median(d)) if d else 0.0

    def _values(self, name) -> list:
        return [v for r in self.by_request.get(name, {}).values() for v in r[3]]

    def value_median(self, name) -> float:
        v = self._values(name)
        return float(statistics.median(v)) if v else 0.0

    def distinct_ratio(self, name) -> float:
        """Median over requests of distinct measured keys per call."""
        rows = self.by_request.get(name)
        if not rows:
            return 0.0
        return float(statistics.median(
            len({json.dumps(v) for v in r[3]}) / r[2] for r in rows.values()))
