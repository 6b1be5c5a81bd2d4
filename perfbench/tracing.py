"""Spans around the package's public functions, recorded from outside ``src/``.

The package binds names at import time (``sweep.py`` does ``from .fisher
import fisher``), so a function is replaced at every name that refers to it
in any ``unruh_teleport`` module, which is where its callers look it up. The
two validating constructors are traced by replacing ``__init__`` on the class,
which also catches ``dataclasses.replace``. Everything replaced is put back
when the ``traced`` block ends.

Spans are kept in compact arrays in memory. Each has a name, start, end,
parent span and job id. Self time is a span's duration minus the time its
child spans cover; spans come from one thread and nest, so a span's children
never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator

import numpy as np

PACKAGE = "unruh_teleport"

# (module, name) of every traced function or class, by layer.
TARGETS = (
    ("cli", "main"),
    ("sweep", "figure_spec"),
    ("sweep", "spec_from_dict"),
    ("sweep", "run_sweep"),
    ("sweep", "render_rows"),
    ("sweep", "emit"),
    ("fisher", "fisher"),
    ("fisher", "bloch_teleported"),
    ("fisher", "bloch_partial"),
    ("fisher", "fisher_from_bloch"),
    ("teleport", "bloch_of"),
    ("teleport", "teleport_analytic"),
    ("teleport", "teleport_closed_form"),
    ("teleport", "teleport_circuit_oracle"),
    ("teleport", "InputState"),
    ("unruh", "accelerate"),
    ("unruh", "bogoliubov_oracle"),
    ("unruh", "UnruhParams"),
    ("channels", "dyadic_to_density"),
    ("channels", "validate_physical"),
    ("sampling", "sample_dyadic"),
    ("verify", "verify"),
    ("_linalg", "partial_trace"),
    ("_linalg", "min_eigenvalue"),
    ("_linalg", "hermiticity_gap"),
)

# Counts taken from results at the same boundaries, beyond calls and times.
EXTRA_COUNTS = (
    "fisher.fisher_from_bloch.pure_branch",
    "fisher.fisher_from_bloch.clamped",
    "sweep.render_rows.bytes",
    "sweep.emit.bytes",
)


class Tracer:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self.job = array("i")
        self.counts: Counter[str] = Counter()
        self.stack = [-1]
        self.job_id = -1

    def _id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, args, kwargs)``
        runs once the span has ended."""
        name_id = self._id(name)
        start, end, parent, names, job, stack = (
            self.start, self.end, self.parent, self.name_id, self.job, self.stack
        )

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            job.append(self.job_id)
            stack.append(span)
            end.append(0.0)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """The spans as columns, indexed by span id (the order they started)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the total duration of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def layer_table(tracer: Tracer, job_scale: list[float] | None = None) -> dict[str, dict[str, float]]:
    """``{"module.function": {"calls", "total_s", "self_s"}}`` over every span.

    ``job_scale[j]`` multiplies the durations of the spans of job ``j``.
    """
    spans = tracer.spans()
    duration = spans["end"] - spans["start"]
    if job_scale is not None:
        duration = duration * np.asarray(job_scale)[spans["job"]]
    own = self_times(duration, spans["parent"])
    size = len(tracer.names)
    calls = np.bincount(spans["name_id"], minlength=size)
    total = np.bincount(spans["name_id"], weights=duration, minlength=size)
    selfs = np.bincount(spans["name_id"], weights=own, minlength=size)
    table = {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
        for i, name in enumerate(tracer.names)
    }
    # Draws returned by the rejection sampler over the physicality checks
    # made inside it.
    sampler = tracer.name_of.get("sampling.sample_dyadic")
    checker = tracer.name_of.get("channels.validate_physical")
    inside = 0
    if sampler is not None and checker is not None:
        parent_name = spans["name_id"][np.maximum(spans["parent"], 0)]
        inside = int(np.sum((spans["name_id"] == checker) & (spans["parent"] >= 0)
                            & (parent_name == sampler)))
    draws = table.get("sampling.sample_dyadic", {}).get("calls", 0)
    table.setdefault("sampling.sample_dyadic", {})["accept_ratio"] = (
        draws / inside if inside else 0.0
    )
    for key, value in tracer.counts.items():
        module_function, stat = key.rsplit(".", 1)
        table.setdefault(module_function, {})[stat] = value
    return table


def _package_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _after_hooks(tracer: Tracer) -> dict[str, Callable]:
    counts = tracer.counts

    def fisher_value(result: Any, args: tuple, kwargs: dict) -> None:
        counts["fisher.fisher_from_bloch.pure_branch"] += bool(result.pure_branch)
        counts["fisher.fisher_from_bloch.clamped"] += bool(result.clamped)

    def rendered(result: str, args: tuple, kwargs: dict) -> None:
        counts["sweep.render_rows.bytes"] += len(result.encode("utf-8"))

    def emitted(result: None, args: tuple, kwargs: dict) -> None:
        destination = kwargs.get("destination", args[3] if len(args) > 3 else None)
        counts["sweep.emit.bytes"] += os.path.getsize(destination)

    return {
        "fisher.fisher_from_bloch": fisher_value,
        "sweep.render_rows": rendered,
        "sweep.emit": emitted,
    }


@contextmanager
def traced(tracer: Tracer) -> Iterator[list[str]]:
    """Replace every target by its traced form; yield the targets not found.

    On exit every replaced name refers to its original object again.
    """
    hooks = _after_hooks(tracer)
    modules = _package_modules()
    replaced: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(name)
                continue
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                setattr(original, "__init__", tracer.wrap(init, name))
                replaced.append((original, "__init__", init))
                continue
            wrapper = tracer.wrap(original, name, hooks.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        replaced.append((holder, key, original))
        yield missing
    finally:
        for holder, key, original in reversed(replaced):
            setattr(holder, key, original)
