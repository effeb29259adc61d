"""In-memory span tracing by rebinding functions from outside the program.

A :class:`Tracer` replaces named module attributes (functions, or methods on a
class) with wrappers that record one span per call: name, start, end, the
index of the enclosing span and optional counts taken from the call. Nothing
is written while the run measures; spans stay in memory until the caller
writes them out. Targets that no longer exist are reported as missing instead
of failing the run, so a refactor of the traced program cannot crash it.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One rebinding: ``module.attr`` (``attr`` may be ``Class.method``) is
    wrapped and its calls are recorded as spans called ``span``. ``info``
    maps (args, kwargs, result) to a dict of counts stored on the span."""

    span: str
    module: str
    attr: str
    info: Callable | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if target.info is not None:
                self.spans[index].info = target.info(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Rebind every target that exists; record the rest as missing."""
        for target in targets:
            owner_path, _, name = f"{target.module}.{target.attr}".rpartition(".")
            try:
                owner = _resolve(owner_path)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(target.span)
                continue
            # look up the raw attribute so a method is restored exactly
            raw = owner.__dict__.get(name, fn) if isinstance(owner, type) else fn
            self._undo.append((owner, name, raw))
            setattr(owner, name, self._wrap(target, fn))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self, spans: list[Span], offset: int = 0) -> list[float]:
        """Per span: its duration minus the time its direct children cover.
        ``spans`` is a slice of ``self.spans`` that starts at ``offset``."""
        out = [s.duration for s in spans]
        for s in spans:
            if s.parent is not None and s.parent >= offset:
                out[s.parent - offset] -= s.duration
        return out

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "info": s.info,
                }) + "\n")


def _resolve(path: str):
    """Import ``a.b`` as a module, then follow remaining parts as attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(path)
