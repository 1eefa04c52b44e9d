"""Spans around pel's public functions, recorded from outside the package.

``Tracer.install`` wraps each listed function and rebinds every attribute of
a loaded ``pel`` module that refers to it, so the call site looks the wrapper
up whether it imported the function by name (``pel.nogo`` uses
``apply_mesh_to_vectors``) or calls it inside its own module
(``pel.interferometer.lift`` calls ``apply_mesh_to_vectors`` too).
``uninstall`` puts the originals back.  Nothing is rebound unless
``install`` is called, so an untraced run executes pel unchanged.

A span is ``(id, name, start, end, parent_id, job_id, error, extra)``.  Spans
stay in memory and are written out once, at the end of a run.
"""

import itertools
import json
import math
import statistics
import sys
import threading
import time
from functools import lru_cache

#: (layer, function) pairs wrapped in a traced run; the layer is the module
TRACED = (
    ("cli", "run_spec"),
    ("cli", "validate_spec"),
    ("cli", "emit"),
    ("nogo", "maximize_X"),
    ("nogo", "verify_commutation"),
    ("interferometer", "apply_mesh_to_vectors"),
    ("interferometer", "apply_interferometer"),
    ("interferometer", "lift"),
    ("fock", "coherent_amplitudes"),
    ("fock", "min_eigenvalue"),
    ("fock", "tensor_all"),
    ("fock", "trace_distance"),
    ("fock", "partial_trace"),
    ("channels", "invert_loss"),
    ("channels", "apply_loss"),
    ("channels", "apply_loss_lindblad"),
    ("efficiency", "generalized_efficiency"),
    ("measurement", "condition"),
)

_BYTES_PER_COMPLEX = 16


@lru_cache(maxsize=64)
def mesh_work(modes: int, cutoff: int, batch: int) -> tuple:
    """Computed (flops, bytes moved) of one ``apply_mesh_to_vectors`` call on a
    (dimension, batch) array, derived from the public basis and mesh layout.

    Each rotation on modes (x, x+1) acts on the total-occupation-s sector of
    that pair as an (s+1) x (s+1) complex matrix times an (s+1) x
    (orbits * batch) block, with orbits = (states with n_x + n_y = s) / (s+1).
    A complex multiply-add is 8 real flops; the GEMM reads and writes its
    block once and reads the (s+1)^2 matrix.  Between rotations the batch is
    re-sorted by one gather (read + write of every element); the first sort
    and the final un-sort add two more.  The output phases cost one complex
    multiply (6 flops) per element, read and written once.  Bytes ignore
    caches: they are a count, not a measurement.
    """
    from pel.fock import FockBasis
    from pel.interferometer import mesh_layout

    basis = FockBasis(modes, cutoff)
    occ = basis.occupations
    elements = basis.dimension * batch
    flops = 0
    moved = 0
    layout = mesh_layout(modes)
    for pair in layout:
        pair_total = occ[:, pair] + occ[:, pair + 1]
        for s in range(1, cutoff + 1):
            count = int((pair_total == s).sum())
            orbits = count // (s + 1)
            if not orbits:
                continue
            columns = orbits * batch
            flops += 8 * (s + 1) ** 2 * columns
            moved += _BYTES_PER_COMPLEX * (2 * (s + 1) * columns + (s + 1) ** 2)
    gathers = len(layout) + 1 if layout else 0
    moved += gathers * 2 * _BYTES_PER_COMPLEX * elements
    flops += 6 * elements
    moved += 2 * _BYTES_PER_COMPLEX * elements
    return flops, moved


def _mesh_extra(args, kwargs, result):
    vectors, _params, modes, basis = args[:4]
    return mesh_work(int(modes), int(basis.cutoff), int(vectors.shape[1]))


def _search_extra(args, kwargs, result):
    return result.evaluations


_EXTRA = {
    "interferometer.apply_mesh_to_vectors": _mesh_extra,
    "nogo.maximize_X": _search_extra,
}


class Tracer:
    """Wraps pel functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._rebound = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        extra_of = _EXTRA.get(name)
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if extra_of is not None and not error:
                    extra = extra_of(args, kwargs, result)
                spans.append(
                    (span_id, name, start, end, parent, tracer.job, error, extra)
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pel" or key.startswith("pel."))
        ]
        for layer, function in TRACED:
            original = getattr(sys.modules[f"pel.{layer}"], function)
            wrapper = self._wrap(f"{layer}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job", "error", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_stats(spans) -> dict:
    """Per-function span durations, self time, error count, extras and
    child-call counts.  Self time is a span's duration minus its children's
    durations (children of one span never overlap: they run on the caller's
    thread)."""
    child_time = {}
    child_calls = {}
    names = {}
    for span_id, name, start, end, parent, _job, _error, _extra in spans:
        names[span_id] = name
    for span_id, name, start, end, parent, _job, _error, _extra in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            key = (parent, name)
            child_calls[key] = child_calls.get(key, 0) + 1
    stats = {}
    for span_id, name, start, end, parent, _job, error, extra in spans:
        entry = stats.setdefault(
            name,
            {"durations": [], "self_s": 0.0, "errors": 0, "extras": [],
             "children": {}},
        )
        duration = end - start
        entry["durations"].append(duration)
        entry["self_s"] += duration - child_time.get(span_id, 0.0)
        entry["errors"] += int(error)
        if extra is not None:
            entry["extras"].append(extra)
    for (parent, name), count in child_calls.items():
        parent_entry = stats[names[parent]]["children"]
        parent_entry[name] = parent_entry.get(name, 0) + count
    return stats


def per_layer_metrics(spans) -> dict:
    """The benchmark's per-layer metrics from one traced phase.  A function
    not called in the phase reports zero calls and zero time."""
    stats = layer_stats(spans)

    def entry(name):
        return stats.get(name, {"durations": [], "self_s": 0.0, "errors": 0,
                                "extras": [], "children": {}})

    def basic(name):
        e = entry(name)
        return len(e["durations"]), math.fsum(e["durations"]), e

    def us_p50(e):
        return statistics.median(e["durations"]) * 1e6 if e["durations"] else 0.0

    out = {}
    for layer, function in TRACED:
        name = f"{layer}.{function}"
        calls, busy, _ = basic(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")

    calls, busy, e = basic("cli.run_spec")
    out["cli.run_spec.self_s"] = (e["self_s"], "s")

    calls, busy, e = basic("nogo.maximize_X")
    evals = sum(e["extras"])
    out["nogo.maximize_X.self_s"] = (e["self_s"], "s")
    out["nogo.maximize_X.evals"] = (evals, "count")
    out["nogo.maximize_X.ms_per_eval"] = (busy / evals * 1e3 if evals else 0.0, "ms")

    calls, busy, e = basic("interferometer.apply_mesh_to_vectors")
    flops = sum(x[0] for x in e["extras"])
    moved = sum(x[1] for x in e["extras"])
    out["interferometer.apply_mesh_to_vectors.us_p50"] = (us_p50(e), "us")
    out["interferometer.apply_mesh_to_vectors.gflop"] = (flops / 1e9, "GFLOP")
    out["interferometer.apply_mesh_to_vectors.mb_moved"] = (moved / 1e6, "MB")
    out["interferometer.apply_mesh_to_vectors.gflop_per_s"] = (
        flops / 1e9 / busy if busy else 0.0, "GFLOP/s")
    out["interferometer.apply_mesh_to_vectors.mflop_per_call"] = (
        flops / 1e6 / calls if calls else 0.0, "MFLOP")
    out["interferometer.apply_mesh_to_vectors.mb_per_call"] = (
        moved / 1e6 / calls if calls else 0.0, "MB")

    calls, busy, e = basic("channels.invert_loss")
    out["channels.invert_loss.us_p50"] = (us_p50(e), "us")
    out["channels.invert_loss.failed_ratio"] = (
        e["errors"] / calls if calls else 0.0, "fraction")

    calls, busy, e = basic("channels.apply_loss_lindblad")
    out["channels.apply_loss_lindblad.us_p50"] = (us_p50(e), "us")

    calls, busy, e = basic("efficiency.generalized_efficiency")
    out["efficiency.generalized_efficiency.self_s"] = (e["self_s"], "s")
    out["efficiency.generalized_efficiency.us_p50"] = (us_p50(e), "us")
    out["efficiency.generalized_efficiency.probes_per_call"] = (
        e["children"].get("channels.invert_loss", 0) / calls if calls else 0.0,
        "count")
    return out
