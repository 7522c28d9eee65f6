"""Spans and op counts recorded from outside the program, by wrapping attributes.

A :class:`Tracer` replaces named functions of the ``sentigraph`` package with
thin wrappers while it is installed. A span wrapper times the call and
charges its duration to the enclosing (parent) span, so each span name gets
its total and its self time: the duration minus the part its child spans
cover. A count wrapper only counts calls, charged to the innermost open
span and, when that span closes, to its parent, so every span carries the
op counts of everything beneath it. Spans are aggregated per name in memory
as they close.

Targets are looked up by dotted attribute path, for example
``encoders.bilstm_encode`` or ``model.AspectSentimentModel.forward``. A
module-level function is replaced in every loaded ``sentigraph`` module that
binds the same function object, so ``from .corpus import build_vocab`` in
another module is traced too. A target that no longer exists is recorded in
:attr:`Tracer.absent` and skipped; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "sentigraph"
_INHERITED = object()  # marks a method patched onto a class that only inherited it


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    items: int = 0                      # e.g. samples handed to evaluate()
    ops: Counter = field(default_factory=Counter)  # op counts beneath the span

    def mean_ms(self) -> float:
        return self.total_ns / self.calls / 1e6 if self.calls else 0.0

    def mean_self_ms(self) -> float:
        return self.self_ns / self.calls / 1e6 if self.calls else 0.0


class _Frame:
    __slots__ = ("name", "start", "child_ns", "ops")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_ns = 0
        self.ops = Counter()


def _resolve(path: str):
    """(owner, attribute, value) for ``module.attr`` or ``module.Class.attr``."""
    parts = path.split(".")
    module = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _items(items_of, args) -> int:
    if items_of is None:
        return 0
    try:
        return int(items_of(args))
    except (IndexError, TypeError):  # the traced function's signature changed
        return 0


class Tracer:
    """In-memory span recorder; install() patches the targets, uninstall() restores them.

    ``spans`` maps each span target to an optional function of the call's
    positional arguments giving the number of items it handles; ``counts``
    lists the count targets.
    """

    def __init__(self, spans: dict[str, object], counts: list[str]):
        self.span_targets = spans
        self.count_targets = counts
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter_ns())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, items: int = 0) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
            parent.ops.update(frame.ops)
        stats = self.stats.setdefault(frame.name, SpanStats())
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += duration - frame.child_ns
        stats.items += items
        stats.ops.update(frame.ops)

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _count(self, name: str) -> None:
        if self._stack:
            self._stack[-1].ops[name] += 1

    # -- patching ----------------------------------------------------------

    def _span_wrapper(self, name, fn, items_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, _items(items_of, args))
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, path: str, make_wrapper) -> None:
        try:
            owner, attr, original = _resolve(path)
        except (ImportError, AttributeError):
            self.absent.append(path)
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        self.absent = []
        for path, items_of in self.span_targets.items():
            self._patch(path, lambda fn, p=path, f=items_of: self._span_wrapper(p, fn, f))
        for path in self.count_targets:
            self._patch(path, lambda fn, p=path: self._count_wrapper(p, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def summary(self) -> dict:
        return {name: {"calls": s.calls, "mean_ms": s.mean_ms(),
                       "mean_self_ms": s.mean_self_ms(), "items": s.items,
                       "ops": sum(s.ops.values())}
                for name, s in sorted(self.stats.items())}
