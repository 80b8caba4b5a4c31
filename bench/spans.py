"""In-memory span recorder that wraps library functions from outside.

A ``Tracer`` replaces a function attribute in the module namespace where the
program looks it up (``kacdisc.rootfind.newton_ratio`` is what ``find_roots``
calls) with a wrapper that records one span per call: its name, start, end,
parent span and a few attributes.  Spans stay in memory until the caller
writes them out.  A target that no longer exists is skipped and listed in
``absent``, so the benchmark keeps working after the program drops or
renames a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# An observer gets (attrs, args, kwargs, result) after the call returns; it
# derives counts from the call without adding to the span's own time.
# Signature drift in the program makes an observer skip, never fail the run.
_OBSERVE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


class Tracer:
    """Records nested spans of one thread; ``restore`` undoes every wrap.

    ``installed`` holds the span names with at least one live wrapper and
    ``absent`` the ``module.attr`` targets that could not be wrapped.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module: str, attr: str, name: str, observe=None) -> bool:
        """Replace ``module.attr`` by a recording wrapper; False if absent."""
        target = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.add(target)
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                try:
                    observe(span.attrs, args, kwargs, result)
                except _OBSERVE_ERRORS:
                    pass
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self.installed.add(name)
        return True

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]
