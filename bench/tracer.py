"""Span tracer that wraps privaudit's public functions from outside ``src/``.

A target is a (module, function) pair. Installing the tracer replaces the
function wherever a ``privaudit.*`` module binds it: as a module global (so
``from .data import encode_record`` in ``shadow`` is traced too) or as a value
of a module-level dict (the CLI's attack table). Uninstalling restores every
binding. A target the program no longer defines is reported as absent.

Each call records a span (name, id, parent id, start, end). The parent is the
innermost open span of the calling thread; a worker thread with no open span
takes the innermost open span of the main thread, which is the call that
handed it the work. Self time is a span's duration minus the part of its
interval that its children cover, so overlapping children from two worker
threads are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Counter = Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Target:
    module: str             # privaudit submodule that defines the function
    function: str
    counters: dict[str, Counter] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


TARGETS = (
    Target("data", "encode"),
    Target("data", "encode_record"),
    Target("data", "load_csv"),
    Target("shadow", "run_shadow_experiment"),
    Target("shadow", "dataset_fingerprint"),
    Target("shadow", "query_features"),
    Target("dpsgd", "train"),
    Target("dpsgd", "features_and_labels"),
    Target("dpsgd", "noisy_aggregate", {"rows": lambda a, k, r: int(np.shape(a[0])[0])}),
    Target("models", "batch_per_sample_gradients", {"rows": lambda a, k, r: int(r.shape[0])}),
    Target("models", "per_example_loss"),
    Target("synthesizers", "fit_marginal"),
    Target("synthesizers", "sample", {"rows": lambda a, k, r: len(r)}),
    Target("attacks", "evaluate", {"scores": lambda a, k, r: int(r.n_runs),
                                   "thresholds": lambda a, k, r: len(r.roc) - 1}),
    Target("attacks", "attack_lira"),
    Target("attacks", "attack_loss_threshold"),
    Target("attacks", "attack_dcr"),
    Target("attacks", "attack_groundhog"),
    Target("attacks", "save_report"),
    Target("attacks", "save_roc_csv"),
    Target("core_stats", "effective_epsilon_lower_bound"),
    Target("audit", "audit_step_mechanism", {"trials": lambda a, k, r: int(r.trials)}),
    Target("audit", "save_verdict"),
    Target("seeds", "derive_seed"),
    Target("cli", "main"),
)

PACKAGE = "privaudit"

Span = tuple  # (name, span id, parent id or None, start, end)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds)."""
    children = defaultdict(list)
    for _, sid, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for name, sid, _, t0, t1 in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += (t1 - t0) - covered(t0, t1, children.get(sid, ()))
    return {k: (c, s) for k, (c, s) in out.items()}


class Tracer:
    """Context manager that wraps TARGETS while active.

    ``spans`` and ``counts`` accumulate until ``take()`` returns and clears
    them, so each op can be aggregated on its own.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn, counters: dict[str, Counter]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1]
            except IndexError:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((name, sid, parent, t0, t1))
            if counters:
                with self._lock:
                    for key, count in counters.items():
                        self.counts[f"{name}.{key}"] += count(args, kwargs, result)
            return result

        return traced

    # -- install / uninstall ------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        for t in self.targets:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{t.module}")
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, t.function, None)
            if not callable(fn):
                self.absent.append(t.name)
                continue
            self._rebind(fn, self._wrap(t.name, fn, t.counters))
        return self

    def _rebind(self, fn, wrapped) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._patches.append((m, key, fn))
                    setattr(m, key, wrapped)
                elif isinstance(value, dict):
                    for dk, dv in list(value.items()):
                        if dv is fn:
                            self._patches.append((value, dk, fn))
                            value[dk] = wrapped

    def __exit__(self, *exc) -> None:
        for owner, key, fn in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patches.clear()

    def take(self) -> dict[str, float]:
        """Per-target metrics since the last take: ``<name>.calls``,
        ``<name>.self_s`` and each counter. Absent targets read 0."""
        times = self_times(self.spans)
        out: dict[str, float] = {}
        for t in self.targets:
            calls, self_s = times.get(t.name, (0, 0.0))
            out[f"{t.name}.calls"] = calls
            out[f"{t.name}.self_s"] = self_s
            for key in t.counters:
                out[f"{t.name}.{key}"] = self.counts.get(f"{t.name}.{key}", 0)
        self.spans = []
        self.counts.clear()
        return out
