"""Spans around calls into the package's modules, recorded from outside.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the benchmark runs and written out once at the end.  Three kinds of call are
wrapped:

* calls the benchmark itself makes, through the wrappers ``Tracer.wrap``
  returns;
* calls one package module makes into a function of another, public or
  private: ``instrument`` rebinds each function a module imported from a
  sibling module (``diagram._numeric_rank`` becomes a span named
  ``linalg._numeric_rank``), and ``restore`` puts the originals back;
* calls of a method of a class that a sibling module imported (the
  cyclotomic ``IntPoly`` arithmetic the exact rank elimination runs on, for
  example), from whichever module they come, except calls from inside a
  span of the class's own module.

Calls of a module's own functions are not wrapped, so the hot loops of the
rank search stay untouched.  Methods of ``Enum`` and exception classes are
not wrapped either.  The module a span belongs to is the first component of
its name.
"""

from __future__ import annotations

import csv
import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from types import FunctionType

MODULES = ("cyclotomic", "linalg", "kd", "states", "diagram", "verify", "plotting", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.meta: dict[int, object] = {}
        self._stack = [-1]
        self._modules = [""]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, module: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self._modules.append(module)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._modules.pop()

    def wrap(self, name: str, fn, annotate=None, nested: bool = True):
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` stores extra data for the span in ``meta``.  With
        ``nested=False`` a call made inside a span of the same module records
        nothing: its time counts for that module either way."""
        module = name.split(".")[0]

        def traced(*args, **kwargs):
            if not nested and self._modules[-1] == module:
                return fn(*args, **kwargs)
            sid = self._open(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if annotate is not None:
                self.meta[sid] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """One span around the body of a ``with`` block."""
        sid = self._open(name, name.split(".")[0])
        try:
            yield sid
        finally:
            self._close(sid)

    def instrument(self, annotate: dict) -> None:
        """Wrap every cross-module binding of a package function and every
        method of a package class used across modules; ``annotate`` maps
        span names to annotate functions for ``wrap``."""
        mods = {m: importlib.import_module(f"kduncd.{m}") for m in MODULES}
        classes = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                home = _home(obj)
                if home is None or home == m:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, (Enum, BaseException)):
                        classes[id(obj)] = (home, obj)
                elif callable(obj):
                    name = f"{home}.{obj.__name__}"
                    self._patch(mod, attr, obj, self.wrap(name, obj, annotate.get(name)))
        for home, cls in classes.values():
            for attr, obj in list(vars(cls).items()):
                name = f"{home}.{cls.__name__}.{attr}"
                if isinstance(obj, (staticmethod, classmethod)):
                    wrapped = type(obj)(self.wrap(name, obj.__func__, nested=False))
                elif isinstance(obj, FunctionType):
                    wrapped = self.wrap(name, obj, nested=False)
                else:
                    continue
                self._patch(cls, attr, obj, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self, durations) -> dict[str, float]:
        """Seconds per module: each span's entry in ``durations`` minus the
        entries of its children."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name.split(".")[0]] += durations[i] - child[i]
        return totals

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.names else 0.0
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, self.parent[i], name, f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}"]
                )


def _home(obj) -> str | None:
    """The package module that defines ``obj``, or None."""
    module = getattr(obj, "__module__", None) or ""
    prefix, _, name = module.partition(".")
    return name if prefix == "kduncd" and name in MODULES else None
