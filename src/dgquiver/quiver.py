"""Graded quivers, paths, and basic path combinatorics.

Composition convention: the product ``pq`` means "first p, then q", i.e.
``pq`` is the concatenation when the target of ``p`` equals the source of
``q``.  Many libraries use the opposite convention; every module here uses
this one.

Path enumeration is deterministic: paths are ordered by length, then
lexicographically by their arrow-name sequences (trivial paths in declared
vertex order), so matrix constructions and reports are reproducible.

Row and column indices key a path by its arrow tuple and a trivial path by
its vertex name, a `str` (`Path.key`, `paths_by_degree`), so the two never
collide.  The path walk yields tuples.  Two places build `Path`s from them:
`enumerate_paths`, and the ideal spans' `reduce` and `complement_basis`; both
go through `_path_of`, the key -> `Path` rule and the inverse of `_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int = 0


PathKey = tuple[str, ...] | str


def _key(arrows: tuple[str, ...], vertex: str) -> PathKey:
    return arrows or vertex


def _path_of(key: PathKey) -> Path:
    return Path(key) if type(key) is tuple else Path(base=key)


@dataclass(frozen=True, slots=True)
class Path:
    """A composable sequence of arrow names; a trivial path carries `base`.

    Exactly one of the two holds: `arrows` is nonempty and `base` is None,
    or `arrows` is empty and `base` names the vertex.
    """

    arrows: tuple[str, ...] = ()
    base: str | None = None

    def __post_init__(self):
        if bool(self.arrows) == (self.base is not None):
            raise ValueError("a path has either arrows or a base vertex, not both")

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def key(self) -> PathKey:
        """The arrow tuple, or the base vertex name of a trivial path."""
        return _key(self.arrows, self.base)


class GradedQuiver:
    """Finite directed multigraph with integer degrees on arrows.

    Vertex and arrow names are caller-supplied strings.  The constructor
    stores data as given; `validate` reports invariant violations (duplicate
    names, undeclared endpoints) without raising, so that malformed input can
    be diagnosed.  All other operations assume a valid quiver.
    """

    def __init__(self, vertices, arrows=()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._arrow_by_name: dict[str, Arrow] = {}
        for a in self.arrows:
            self._arrow_by_name.setdefault(a.name, a)
        self._out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source in self._out and a.target in self._out:
                self._out[a.source].append(a)

    # ---------- structure ----------

    def validate(self) -> list[str]:
        """List of violations; empty means the quiver is well formed."""
        return [msg for _, _, msg in self._problems()]

    def _problems(self):
        """Yield (field, i, message) for each violation: field "vertex" names
        vertices[i], and "name", "source" or "target" that field of arrows[i]."""
        seen_v = set()
        for i, v in enumerate(self.vertices):
            if v in seen_v:
                yield "vertex", i, f"duplicate vertex id {v!r}"
            seen_v.add(v)
        seen_a = set()
        for i, a in enumerate(self.arrows):
            if a.name in seen_a:
                yield "name", i, f"duplicate arrow id {a.name!r}"
            seen_a.add(a.name)
            if a.source not in self._vertex_index:
                yield "source", i, f"arrow {a.name!r} has undeclared source {a.source!r}"
            if a.target not in self._vertex_index:
                yield "target", i, f"arrow {a.name!r} has undeclared target {a.target!r}"

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_by_name

    def arrows_from(self, v: str) -> list[Arrow]:
        return list(self._out[v])

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertex_index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    def degrees(self) -> list[int]:
        return [a.degree for a in self.arrows]

    def is_acyclic(self) -> bool:
        """True iff there is no cycle of positive length: removing the
        vertices with no incoming arrow, one at a time, removes them all."""
        incoming = {v: 0 for v in self.vertices}
        for arrows in self._out.values():
            for a in arrows:
                incoming[a.target] += 1
        removed = [v for v, k in incoming.items() if not k]
        for v in removed:  # grows as the loop removes vertices
            for a in self._out[v]:
                incoming[a.target] -= 1
                if not incoming[a.target]:
                    removed.append(a.target)
        return len(removed) == len(incoming)

    # ---------- paths ----------

    def trivial_path(self, v: str) -> Path:
        self.vertex_index(v)
        return Path(base=v)

    def path(self, arrow_names) -> Path:
        """Build a path from arrow names, checking composability."""
        names = tuple(arrow_names)
        if not names:
            raise ValueError("use trivial_path for length-0 paths")
        prev = None
        for n in names:
            a = self.arrow(n)
            if prev is not None and prev.target != a.source:
                raise ValueError(
                    f"arrows {prev.name!r} and {a.name!r} do not compose"
                )
            prev = a
        return Path(arrows=names)

    def source_of(self, p: Path) -> str:
        return p.base if p.is_trivial else self.arrow(p.arrows[0]).source

    def target_of(self, p: Path) -> str:
        return p.base if p.is_trivial else self.arrow(p.arrows[-1]).target

    def degree_of(self, p: Path) -> int:
        return sum(self.arrow(n).degree for n in p.arrows)

    def is_cycle(self, p: Path) -> bool:
        return self.source_of(p) == self.target_of(p)

    def compose(self, p: Path, q: Path) -> Path | None:
        """pq (first p, then q), or None when the endpoints do not match."""
        if self.target_of(p) != self.source_of(q):
            return None
        if p.is_trivial:
            return q
        if q.is_trivial:
            return p
        return Path(arrows=p.arrows + q.arrows)

    def path_sort_key(self, p: Path):
        base_ix = self._vertex_index[p.base] if p.is_trivial else -1
        return (len(p.arrows), p.arrows, base_ix)

    def _walk(self, max_len: int, min_degree=-math.inf, max_degree=math.inf):
        """Yield the paths of length 0, 1, ..., max_len as lists of
        (arrows, source, target, degree) tuples, each list in
        `path_sort_key` order.

        Branches whose degree cannot re-enter [min_degree, max_degree] are
        pruned; with all arrow degrees <= 0 this makes deep windows cheap.
        The walk stops at the first empty level, so it yields no level for
        a length that no path has.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        degs = self.degrees()
        up = max(0, max(degs, default=0))     # max degree gain per extra arrow
        down = min(0, min(degs, default=0))   # max degree drop per extra arrow
        level = [((), v, v, 0) for v in self.vertices]
        yield level
        for length in range(1, max_len + 1):
            rem = max_len - length
            nxt = []
            for arrows, s, t, d in level:
                for a in self._out[t]:
                    nd = d + a.degree
                    if nd + rem * up < min_degree or nd + rem * down > max_degree:
                        continue
                    nxt.append((arrows + (a.name,), s, a.target, nd))
            if not nxt:
                return
            nxt.sort()  # the arrow tuples of one level are distinct
            yield nxt
            level = nxt

    def enumerate_paths(self, max_len: int) -> list[Path]:
        """All paths of length <= max_len, ordered by (length, arrow names)."""
        return [_path_of(_key(a, s)) for level in self._walk(max_len) for a, s, _, _ in level]

    def paths_by_degree(
        self, max_len: int, min_degree: int, max_degree: int
    ) -> dict[int, list[PathKey]]:
        """The keys (see `Path.key`) of the paths of length <= max_len,
        grouped by total degree within a window, each group in
        `enumerate_paths` order."""
        buckets = {d: [] for d in range(min_degree, max_degree + 1)}
        for level in self._walk(max_len, min_degree, max_degree):
            for arrows, s, _, d in level:
                if d in buckets:
                    buckets[d].append(_key(arrows, s))
        return buckets

    # ---------- derived quivers ----------

    def with_extra_arrows(self, extra) -> GradedQuiver:
        extra = tuple(extra)
        for a in extra:
            if a.name in self._arrow_by_name:
                raise ValueError(f"generated arrow name {a.name!r} already in use")
        return GradedQuiver(self.vertices, self.arrows + extra)

    def degree_part(self, degree: int) -> GradedQuiver:
        """Subquiver on all vertices and the arrows of the given degree."""
        return GradedQuiver(
            self.vertices, tuple(a for a in self.arrows if a.degree == degree)
        )

    def subquiver(self, arrow_names) -> GradedQuiver:
        keep = set(arrow_names)
        unknown = keep - set(self._arrow_by_name)
        if unknown:
            raise KeyError(f"unknown arrows {sorted(unknown)}")
        return GradedQuiver(
            self.vertices, tuple(a for a in self.arrows if a.name in keep)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedQuiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self) -> str:
        return f"GradedQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"
