"""Spans around the public layer calls of dgquiver, recorded from outside.

`Tracer.install` rebinds each traced function in every dgquiver module
that holds it (and each traced method on its class) to a wrapper that
records a span: name, start, end, parent span and the op it belongs to.
Spans stay in memory until `write`.  Counters are read from the returned
objects after the span has been closed, so their cost is not in any span.
`remove` restores every original binding; `leftover_wrappers` proves it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute) of traced functions, and (module, class, method) of
# traced methods.  Span names are "<module>.<attribute>".
FUNCTIONS = [
    ("dg", "ginzburg_from_relations"),
    ("homology", "homology_dims"),
    ("homology", "build_truncated"),
    ("ideals", "find_admissibility_bound"),
    ("ideals", "bound_is_valid"),
    ("ideals", "algebra_dim"),
    ("ideals", "system_of_relations"),
    ("ideals", "generates_arrow_power"),
    ("ideals", "ext2_dim"),
    ("ideals", "split_extension_check"),
]
METHODS = [
    ("quiver", "GradedQuiver", "paths_by_degree"),
    ("quiver", "GradedQuiver", "enumerate_paths"),
    ("ideals", "TruncatedIdealSpan", "__init__"),
]
_MARK = "_perfbench_wrapper"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


def _path_count(result) -> dict:
    if isinstance(result, dict):  # paths_by_degree: degree -> paths
        return {"paths": sum(len(v) for v in result.values())}
    return {"paths": len(result)}


def _complex_counts(cx) -> dict:
    return {
        "max_len": cx.max_len,
        "basis": sum(len(b) for b in cx.components.values()),
        "nnz": sum(len(mx.entries) for mx in cx.matrices.values()),
    }


COUNTERS: dict[str, Callable] = {
    "quiver.paths_by_degree": _path_count,
    "quiver.enumerate_paths": _path_count,
    "homology.build_truncated": _complex_counts,
    "ideals.generates_arrow_power": lambda ok: {"true": int(ok)},
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    # ---------- spans ----------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call_op(self, fn, *args):
        """Call fn(*args) as one op, under a root span named "op"."""
        self.op += 1
        span = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counters = count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, True)
        return wrapper

    # ---------- installing and removing wrappers ----------

    def _modules(self):
        return [m for n, m in sys.modules.items() if n == "dgquiver" or n.startswith("dgquiver.")]

    def install(self) -> None:
        for mod_name, attr in FUNCTIONS:
            orig = getattr(getattr(self.lib, mod_name), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig)
            for module in self._modules():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(getattr(self.lib, mod_name), cls_name)
            orig = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}" if meth == "__init__" else f"{mod_name}.{meth}"
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def remove(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def leftover_wrappers(self) -> list[str]:
        """Every binding in a dgquiver module or class that is still a wrapper."""
        found = []
        for module in self._modules():
            for key, value in vars(module).items():
                if getattr(value, _MARK, False):
                    found.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        if getattr(fn, _MARK, False):
                            found.append(f"{module.__name__}.{key}.{meth}")
        return found

    # ---------- output ----------

    def self_time(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover.  Spans of one
        thread nest, so the children of a span never overlap."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([vars(s) for s in self.spans], fh)
