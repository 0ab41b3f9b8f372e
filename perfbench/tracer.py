"""In-memory span tracer for the traced benchmark run.

The tracer times calls into each layer's public functions from outside
the program: it replaces a function object by a timing wrapper *in every
``repro`` module that binds it* (``from x import f`` copies the
reference, so patching only the defining module would miss most
callers), replaces methods on their classes, and swaps the experiment
entries of the registry dict.  :meth:`Tracer.uninstall` restores every
original object.

Spans are kept in memory.  Each records its name, layer, start and end
(``time.perf_counter``), the id of the enclosing span on the same
thread, the request id the calling thread carries (serve only) and a few
counts.  Self time is a span's duration minus the durations of its
direct children.  All bookkeeping is thread-safe, because the serve
workload runs its clients, the server loop and the executor as threads
of one process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "rid", "attrs", "child_s")

    def __init__(self, id_: int, name: str, layer: str, parent: int | None, rid: Any):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.rid = rid
        self.attrs: dict[str, Any] = {}
        self.child_s = 0.0
        self.start = _clock()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "self_s": self.self_s,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        sp = Span(sid, name, layer, stack[-1].id if stack else None,
                  getattr(self._local, "rid", None))
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _clock()
            stack.pop()
            if stack:
                stack[-1].child_s += sp.duration
            with self._lock:
                self.spans.append(sp)

    @contextlib.contextmanager
    def request(self, rid: Any) -> Iterator[None]:
        """Tag every span this thread opens with ``rid``."""
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = None

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str | Callable, layer: str,
              probe: Callable | None) -> Callable:
        """A timing wrapper around ``fn``.  ``name`` may be a function of
        the call's first argument (per-instance names, e.g. cache levels).
        ``probe(args, kwargs)`` runs before the call and returns a
        function of the result that gives the span's counts."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                label = name(args[0]) if callable(name) else name
                inner = fn(*args, **kwargs)
                while True:
                    with tracer.span(label, layer) as sp:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        if probe is not None:
                            sp.attrs.update(probe(args, kwargs)(item))
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            with tracer.span(label, layer) as sp:
                finish = probe(args, kwargs) if probe is not None else None
                result = fn(*args, **kwargs)
                if finish is not None:
                    sp.attrs.update(finish(result))
                return result

        return wrapper

    def wrap_function(self, module: str, attr: str, name: str, layer: str,
                      probe: Callable | None = None) -> None:
        """Wrap the function ``module.attr`` wherever a ``repro`` module
        binds it, under any local name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, name, layer, probe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def wrap_method(self, cls: type, attr: str, name: str | Callable, layer: str,
                    probe: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, layer, probe))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def wrap_entries(self, table: dict, name: Callable[[str], str], layer: str) -> None:
        """Wrap every value of a dispatch table (the experiment registry)."""
        for key, original in list(table.items()):
            table[key] = self._wrap(original, name(key), layer, None)
            self._undo.append(functools.partial(table.__setitem__, key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

