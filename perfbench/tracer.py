"""Spans around library calls, recorded by wrapping the library from outside.

A span is a name, an optional key (such as a detector algorithm), a start,
an end and the span that was open when it began. A span's self time is its
duration minus the durations of the spans nested directly inside it.

`Tracer.wrap_function` replaces a module function at every place the package
holds a reference to it (modules that did ``from .x import f`` included);
`Tracer.wrap_method` replaces a class attribute. `Tracer.close` puts every
original back, so a run made after it carries no wrapper; `find_wrapped`
proves that.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    name: str
    key: str
    start: float
    parent: int
    end: float = float("nan")
    child_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Keeps every span in memory; wrappers record into it until `close`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str, key: str = "") -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, key, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} ended while another span was open")
        self._open.pop()
        span = self.spans[index]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.total_s

    def enclosing(self, index: int, name: str) -> Span | None:
        """The nearest span called `name` that encloses span `index`."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return self.spans[parent]
            parent = self.spans[parent].parent
        return None

    def _traced(self, original, name, key_of, after):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name, key_of(*args, **kwargs) if key_of else "")
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(index, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def wrap_function(self, module, attr: str, name: str, key_of=None, after=None) -> None:
        """Trace ``module.attr`` under every name the package binds it to.

        ``key_of(*args, **kwargs)`` labels the span; ``after(index, args,
        result)`` sees each successful call's result and must not raise.
        """
        original = getattr(module, attr)
        traced = self._traced(original, name, key_of, after)
        for mod in package_modules(module.__name__.split(".")[0]):
            for ref, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, ref, original))
                    setattr(mod, ref, traced)

    def wrap_method(self, cls, attr: str, name: str, key_of=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._traced(original, name, key_of, after))

    def close(self) -> None:
        """Restore every wrapped attribute; the spans stay readable."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def find_wrapped(package: str) -> list[str]:
    """Dotted names of module or class attributes that are still wrappers."""
    found = []
    for mod in package_modules(package):
        for ref, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{ref}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [
                    f"{mod.__name__}.{ref}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, _MARK, False)
                ]
    return found
