"""Span tracer that times qbcsim's public functions from outside the package.

Each wrapped function records one span per call: name, start, end, parent
span and the part of the run it belongs to (a small integer tag the
benchmark sets). Spans live in per-thread arrays, so the verifier thread
that a TCP session starts records its own spans without a lock, and are
reduced to call counts and self times when the run ends. A span's self
time is its duration minus the time its direct child spans cover.

Nothing under ``src/`` is changed on disk: :meth:`Tracer.install` rebinds
each target in every ``qbcsim`` module (and class) that holds a reference
to it, checks that none was missed, and :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

#: Span tags: which part of a traced run a span belongs to.
TAG_SETUP, TAG_PASS, TAG_TCP, TAG_PROBE = 1, 2, 3, 4


class _ThreadLog:
    """Spans and counters recorded by one thread."""

    __slots__ = ("names", "parents", "tags", "starts", "ends", "stack", "counters", "keys")

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.tags = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()  # (tag, counter name) -> value
        self.keys: dict = {}  # (tag, set name) -> set of distinct keys


class UnwrappedAliasError(RuntimeError):
    """A qbcsim module still calls a target through a reference the tracer missed."""


class Tracer:
    """Wraps qbcsim functions and methods and records one span per call."""

    def __init__(self):
        self.tag = 0
        self.pass_no = 0
        self.labels: list[str] = []
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, label: str, fn, observe):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        current_log = self._log
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = current_log()
            stack = log.stack
            index = len(log.starts)
            log.names.append(label_id)
            log.parents.append(stack[-1] if stack else -1)
            log.tags.append(tracer.tag)
            log.ends.append(0.0)
            stack.append(index)
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, log, args, kwargs, result)
            return result

        return traced

    # --- installation --------------------------------------------------------

    @staticmethod
    def _namespaces():
        """Every qbcsim module namespace and every class defined in one."""
        spaces = []
        for name, module in list(sys.modules.items()):
            if name != "qbcsim" and not name.startswith("qbcsim."):
                continue
            spaces.append(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    spaces.append(value)
        return spaces

    def install(self, targets) -> None:
        """Wrap each ``(label, module, attribute, observer)`` target.

        ``attribute`` is ``"func"`` or ``"Class.method"``. A target the
        package no longer defines is listed in ``self.missing`` and reports
        zero calls. Raises UnwrappedAliasError if any qbcsim namespace
        still refers to an original after rebinding.
        """
        for _, module_name, _, _ in targets:
            importlib.import_module(module_name)
        spaces = self._namespaces()
        for label, module_name, attribute, observe in targets:
            owner = sys.modules[module_name]
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            self.originals[label] = original
            traced = self._wrap(label, original, observe)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, key, traced)
                        self._undo.append((space, key, original))
        for space in self._namespaces():
            for key, value in vars(space).items():
                for label, original in self.originals.items():
                    if value is original:
                        raise UnwrappedAliasError(f"{space.__name__}.{key} still refers to {label}")

    def uninstall(self) -> None:
        for space, key, original in reversed(self._undo):
            setattr(space, key, original)
        self._undo.clear()

    # --- completeness probe ----------------------------------------------------

    def count_original_calls(self, run) -> Counter:
        """Run ``run()`` under a profile hook and count calls that reach each
        original function's code object, whichever name they came through.

        This count does not depend on the rebinding, so comparing it with
        the span count proves the wrappers saw every call.
        """
        codes = {fn.__code__: label for label, fn in self.originals.items()}
        counts: Counter = Counter()
        lock = threading.Lock()

        def profile(frame, event, arg):
            if event == "call":
                label = codes.get(frame.f_code)
                if label is not None:
                    with lock:
                        counts[label] += 1

        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        return counts

    # --- reduction ----------------------------------------------------------

    def _arrays(self):
        with self._lock:
            logs = list(self._logs)
        names, tags, durations, self_times = [], [], [], []
        for log in logs:
            count = min(len(log.starts), len(log.ends))
            if count == 0:
                continue
            starts = np.array(log.starts[:count], dtype=float)
            ends = np.array(log.ends[:count], dtype=float)
            parents = np.array(log.parents[:count], dtype=np.int64)
            duration = ends - starts
            covered = np.zeros(count)
            has_parent = parents >= 0
            np.add.at(covered, parents[has_parent], duration[has_parent])
            names.append(np.array(log.names[:count], dtype=np.int32))
            tags.append(np.array(log.tags[:count], dtype=np.int8))
            durations.append(duration)
            self_times.append(duration - covered)
        if not names:
            empty = np.zeros(0)
            return empty.astype(np.int32), empty.astype(np.int8), empty, empty
        return (np.concatenate(names), np.concatenate(tags),
                np.concatenate(durations), np.concatenate(self_times))

    def summary(self, tags) -> dict[str, dict[str, float]]:
        """Per label: calls, total seconds and self seconds over spans whose
        tag is in ``tags``. Targets the package does not define read zero."""
        names, span_tags, durations, self_times = self._arrays()
        keep = np.isin(span_tags, list(tags))
        size = len(self.labels)
        calls = np.bincount(names[keep], minlength=size)
        total = np.bincount(names[keep], weights=durations[keep], minlength=size)
        own = np.bincount(names[keep], weights=self_times[keep], minlength=size)
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.missing}
        for i, label in enumerate(self.labels):
            out[label] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        return out

    def counter(self, name: str, tags) -> float:
        with self._lock:
            logs = list(self._logs)
        return sum(log.counters[(tag, name)] for log in logs for tag in tags)

    def distinct(self, name: str, tags) -> int:
        with self._lock:
            logs = list(self._logs)
        seen = set()
        for log in logs:
            for tag in tags:
                seen |= log.keys.get((tag, name), set())
        return len(seen)


def add_count(name: str, amount):
    """Observer factory: add ``amount(args, kwargs, result)`` to a counter."""

    def observe(tracer, log, args, kwargs, result):
        log.counters[(tracer.tag, name)] += amount(args, kwargs, result)

    return observe


def add_key(name: str, key):
    """Observer factory: remember ``key(args, kwargs)`` in a distinct-key set.

    Keys are kept per pass (``tracer.pass_no``), so distinct counts add up
    over passes instead of collapsing when passes repeat their inputs.
    """

    def observe(tracer, log, args, kwargs, result):
        log.keys.setdefault((tracer.tag, name), set()).add((tracer.pass_no, key(args, kwargs)))

    return observe
