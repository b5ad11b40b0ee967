"""Spans around calls into deformgabor's public functions, recorded from outside.

A probe replaces a function at the place where its callers look it up:
`layer.py` imports `sample_grid` by name, so the probe for the layer's
gather sits on `deformgabor.layer.sample_grid`, and patching
`deformgabor.deform.sample_grid` alone would miss every call the layer
makes. The same rule splits `tensor.conv2d` into its plain-block caller
(`model.conv2d`) and its offset-predictor caller (`deform.conv2d`).

Spans are kept in flat in-memory arrays (name, start, end, parent span,
request id) and written out once, when the run ends. The request id is the
number of the innermost request under way: an optimizer step, a
validation pass, a scored bag or a loss evaluation. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np


class Site(NamedTuple):
    """A function to wrap: `owner.attr`, reported as `name`."""

    owner: object
    attr: str
    name: str
    counts: Callable | None = None  # (args, kwargs, result) -> {counter: value}
    request: bool = False           # each call starts a new request (a step, a bag)


class Tracer:
    """Records nested spans and shape-derived counts for the probes it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self.count_sum: dict[str, float] = {}
        self.count_max: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str, new_request: bool = False) -> int:
        if new_request:
            self.request_id += 1
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_request: bool = False):
        idx = self.enter(name, new_request)
        try:
            yield
        finally:
            self.exit(idx)

    def add_count(self, key: str, value: float) -> None:
        self.count_sum[key] = self.count_sum.get(key, 0.0) + value
        self.count_max[key] = max(self.count_max.get(key, 0.0), value)

    def wrap(self, site: Site) -> None:
        """Replace `site.owner.attr` by a spanning wrapper until `unwrap_all`.

        Counters returned by `site.counts` are recorded as `name.counter`.
        """
        original = getattr(site.owner, site.attr)
        name, counts, request = site.name, site.counts, site.request

        def probe(*args, **kwargs):
            idx = self.enter(name, request)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(idx)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.add_count(f"{name}.{key}", float(value))
            return result

        setattr(site.owner, site.attr, probe)
        self._installed.append((site.owner, site.attr, original))

    def install(self, sites) -> None:
        for site in sites:
            self.wrap(site)

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def spans(self, name: str):
        """(start, end) arrays of every finished span called `name`, in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0), np.zeros(0)
        sel = np.frombuffer(self.name_id, dtype=np.int64) == nid
        return (np.frombuffer(self.start, dtype=np.float64)[sel],
                np.frombuffer(self.end, dtype=np.float64)[sel])

    def summary(self) -> dict:
        """{name: (busy_s, self_s, calls)} summed over every span of that name."""
        n = len(self.start)
        if n == 0:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        k = len(self.names)
        busy = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - covered, minlength=k)
        calls = np.bincount(nid, minlength=k)
        return {name: (float(busy[i]), float(own[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64))
