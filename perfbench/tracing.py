"""In-memory spans recorded around calls into the program's public functions.

A span is one call: its name, start and end (perf_counter seconds), the index
of the span that was open when it started, the request it served (image,
scene or CLI step) and a small dict of attributes. Spans stay in memory and
are written out once, when the run ends.

Wrappers are transparent: they return exactly what the wrapped function
returns and re-raise exactly what it raises. ``install`` rebinds a function
in every ``tactwin`` namespace that holds it, so calls made through any import
path are seen; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._open: list = []

    def open(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else -1
        span = [name, time.perf_counter(), None, parent, self.request, {}]
        self.spans.append(span)
        self._open.append((len(self.spans) - 1, span))
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def step(self, name: str):
        """A span that is also the current request, for a with-block."""
        self.request = name
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            self.request = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "request": s[REQUEST], "attrs": s[ATTRS]},
                                    sort_keys=True) + "\n")


def wrap(tracer: Tracer, name: str, fn, request=None, on_call=None, on_result=None):
    """Wrap fn so that every call records one span named ``name``.

    request(args, kwargs) names the request the call starts; on_call and
    on_result fill the span's attributes, after the span has closed so that
    their cost is not counted as the call's.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if request is not None:
            tracer.request = request(args, kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            span[ATTRS]["error"] = True
            raise
        tracer.close(span)
        if on_call is not None:
            on_call(span[ATTRS], args, kwargs)
        if on_result is not None:
            on_result(span[ATTRS], result)
        return result

    return traced


@dataclass
class Target:
    """One function to trace: ``owner.attr`` where owner is a module or class."""

    name: str
    owner: object
    attr: str
    request: object = None
    on_call: object = None
    on_result: object = None


@dataclass
class Installation:
    restores: list = field(default_factory=list)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.restores):
            setattr(holder, attr, original)
        self.restores.clear()


def _namespaces(prefix: str):
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == prefix or name.startswith(prefix + ".")):
            yield mod


def install(tracer: Tracer, targets, prefix: str = "tactwin") -> Installation:
    """Rebind each target in its owner and in every ``prefix`` module that
    looks it up by name."""
    inst = Installation()
    for t in targets:
        original = getattr(t.owner, t.attr)
        wrapper = wrap(tracer, t.name, original, t.request, t.on_call, t.on_result)
        holders = [t.owner] if isinstance(t.owner, type) else list(_namespaces(prefix))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    inst.restores.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
    return inst


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------

def covered(interval, children) -> float:
    """Length of the part of ``interval`` covered by the union of children."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part its direct children cover."""
    children: dict = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [(s[END] - s[START]) - covered((s[START], s[END]), children.get(i, []))
            for i, s in enumerate(spans)]


def inside(spans, ancestor_name: str) -> list:
    """Per span: True if some enclosing span is named ancestor_name."""
    flags = []
    for s in spans:
        p = s[PARENT]
        flags.append(p >= 0 and (spans[p][NAME] == ancestor_name or flags[p]))
    return flags


# ---------------------------------------------------------------------------
# Percentiles.
# ---------------------------------------------------------------------------

MIN_TAIL_SAMPLES = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the q-th percentile position of n samples."""
    return n - math.ceil(n * q / 100.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; a tail percentile (q > 50) must have at
    least MIN_TAIL_SAMPLES samples beyond it."""
    n = len(values)
    if n == 0:
        return 0.0
    if q > 50 and samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{q:g} of {n} samples has only "
                         f"{samples_beyond(n, q)} samples beyond it")
    xs = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
