"""Graded quivers, paths, and basic path combinatorics.

A `GradedQuiver` is well formed once built: its constructor refuses duplicate
names and undeclared endpoints with the messages `dsl.parse` reports.

Composition convention: the product ``pq`` means "first p, then q", i.e.
``pq`` is the concatenation when the target of ``p`` equals the source of
``q``.  Many libraries use the opposite convention; every module here uses
this one.

Path enumeration is deterministic: paths are ordered by length, then
lexicographically by their arrow-name sequences (trivial paths in declared
vertex order), so matrix constructions and reports are reproducible.

Row and column indices key a path by its arrow tuple and a trivial path by
its vertex name, a `str` (`Path.key`, `paths_by_degree`), so the two never
collide.  The path walk yields tuples, and only `enumerate_paths` builds
`Path`s from them.  A quiver has no mutator, so it keeps one set of count
tables (`_lesser`), by which `path_counts` and `path_positions` count and
place paths, walking none, and one column frame (`_Frame`) for its spans.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, partial


@dataclass(frozen=True, slots=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int = 0


PathKey = tuple[str, ...] | str


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
        return self.arrows or self.base


def _problems(vertices, arrows):
    """Yield (field, i, message) for each violation: field "vertex" names
    vertices[i], and "name", "source" or "target" that field of arrows[i]."""
    seen_v = set()
    for i, v in enumerate(vertices):
        if v in seen_v:
            yield "vertex", i, f"duplicate vertex id {v!r}"
        seen_v.add(v)
    seen_a = set()
    for i, a in enumerate(arrows):
        if a.name in seen_a:
            yield "name", i, f"duplicate arrow id {a.name!r}"
        seen_a.add(a.name)
        if a.source not in seen_v:
            yield "source", i, f"arrow {a.name!r} has undeclared source {a.source!r}"
        if a.target not in seen_v:
            yield "target", i, f"arrow {a.name!r} has undeclared target {a.target!r}"


def _lesser(out, steps, tables: dict, v: str | None, d: int, n: int) -> tuple[dict, int]:
    """The paths from v (any vertex if None) of degree d and length n, which
    out[v] lists by first arrow: (arrow a -> (those led by a lesser name, the
    same after a), their count), kept in `tables`; none outside n * steps,
    where the state is kept too, so each state is made by one call."""
    up, down = steps
    if (v, d, n) not in tables:
        after, total = {}, int(not n and not d)
        for a in out[v] if n and n * down <= d <= n * up else ():
            state = a.target, d - a.degree, n - 1
            rest, count = tables.get(state) or _lesser(out, steps, tables, *state)
            after[a.name], total = (total, rest), total + count
        tables[v, d, n] = after, total
    return tables[v, d, n]


class _Frame:
    """A quiver's paths as columns, grown a level at a time from one lazy walk:
    `index` maps each key (`Path.key`) to its column, level k takes the columns
    `offsets[k]:offsets[k + 1]`, and `shifts[a]` maps p -> a p and p -> p a."""

    def __init__(self, quiver: GradedQuiver):
        self._walk = quiver._walk(sys.maxsize)  # its level k does not depend on the cap
        self.index, self.offsets, self.shifts = {}, [0], {a.name: ({}, {}) for a in quiver.arrows}

    def reaches(self, length: int) -> bool:
        """Whether a path of that length exists; its level is held once True."""
        index, shifts = self.index, self.shifts
        while len(self.offsets) <= length + 1 and (level := next(self._walk, None)) is not None:
            for word, s, t, _ in level:
                index[word or s] = col = len(index)
                if word:
                    shifts[word[0]][0][index[word[1:] or t]] = col
                    shifts[word[-1]][1][index[word[:-1] or s]] = col
            self.offsets.append(len(index))
        return len(self.offsets) > length + 1

    def columns(self, length: int) -> int:
        """The number of held paths of length < `length`."""
        return self.offsets[min(length, len(self.offsets) - 1)]


class GradedQuiver:
    """Finite directed multigraph with integer degrees on arrows.

    Vertex and arrow names are caller-supplied strings.  The constructor
    raises ValueError naming each duplicate vertex or arrow name and each
    undeclared endpoint, so a built quiver's names identify its parts.
    """

    def __init__(self, vertices, arrows=()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        problems = [msg for _, _, msg in _problems(self.vertices, self.arrows)]
        if problems:
            raise ValueError("; ".join(problems))
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._arrow_by_name = {a.name: a for a in self.arrows}
        self._out: dict[str | None, list[Arrow]] = {v: [] for v in (*self.vertices, None)}
        for a in sorted(self.arrows, key=lambda a: a.name):  # by source, and all under None
            self._out[a.source].append(a)
            self._out[None].append(a)
        self._tables: dict = {}  # the one `_lesser` table set, filled by `path_counts`
        degrees = [0, *(a.degree for a in self.arrows)]
        self._steps = max(degrees), min(degrees)  # (up, down): most one arrow raises, lowers

    # ---------- structure ----------

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_by_name

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertex_index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    def is_acyclic(self) -> bool:
        """True iff there is no cycle of positive length: removing the
        vertices with no incoming arrow, one at a time, removes them all."""
        incoming = {v: 0 for v in self.vertices}
        for a in self.arrows:
            incoming[a.target] += 1
        removed = [v for v, k in incoming.items() if not k]
        for v in removed:  # grows as the loop removes vertices
            for a in self._out[v]:
                incoming[a.target] -= 1
                if not incoming[a.target]:
                    removed.append(a.target)
        return len(removed) == len(incoming)

    _frame = cached_property(_Frame)  # the column frame of the quiver's ideal spans

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

        Branches whose degree cannot re-enter [min_degree, max_degree] in the
        steps left (`_steps`) are pruned; arrow degrees <= 0 make deep windows cheap.
        The walk stops at the first empty level, so it yields no level for
        a length that no path has.

        Only level 1 is sorted: the walk extends a path by the arrows out of
        its target in name order, so extending a sorted level gives a sorted
        level.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        (up, down), out = self._steps, self._out
        level = [((), v, v, 0) for v in self.vertices]
        yield level
        for length in range(1, max_len + 1):
            rem = max_len - length
            nxt = []
            for arrows, s, t, d in level:
                for a in out[t]:
                    nd = d + a.degree
                    if nd + rem * up < min_degree or nd + rem * down > max_degree:
                        continue
                    nxt.append((arrows + (a.name,), s, a.target, nd))
            if not nxt:
                return
            if length == 1:
                nxt.sort()  # the arrow names of a valid quiver are distinct
            yield nxt
            level = nxt

    def enumerate_paths(self, max_len: int) -> list[Path]:
        """All paths of length <= max_len, ordered by (length, arrow names)."""
        walk = self._walk(max_len)
        return [Path(a) if a else Path(base=s) for level in walk for a, s, _, _ in level]

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
                    buckets[d].append(arrows or s)
        return buckets

    def path_counts(self, max_len: int, min_degree: int, max_degree: int) -> dict[int, int]:
        """The sizes of the `paths_by_degree` groups, counted.  The states (v, d,
        n) that can reach the window, from any vertex if in it, fill by ascending
        n, each by a `_lesser` call if not yet kept: one level deep."""
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        (up, down), tables = self._steps, self._tables
        lengths, count = range(1, max_len + 1), partial(_lesser, self._out, self._steps, tables)
        for n in lengths:
            low, high = min_degree - (max_len - n) * up, max_degree - (max_len - n) * down
            for d in range(max(n * down, low), min(n * up, high) + 1):
                for v in (*self.vertices, None) if min_degree <= d <= max_degree else self.vertices:
                    if (v, d, n) not in tables:
                        count(v, d, n)
        return {d: len(self.vertices) * (not d) + sum(tables.get((None, d, n), (0, 0))[1]
                                                      for n in lengths)
                for d in range(min_degree, max_degree + 1)}

    def path_positions(self, degree: int) -> Callable[[tuple[str, ...]], int]:
        """arrows -> the position of that nontrivial path of the given degree
        in `paths_by_degree(n, degree, degree)[degree]`, any n >= its length;
        counted, not walked.  Before it come the shorter paths, then for each
        i those that agree with it before arrow i and have there an arrow of
        a lesser name (`_lesser`, from any vertex if i = 0; `path_counts` fills it)."""
        root = partial(_lesser, self._out, self._steps, self._tables, None, degree)

        @cache
        def start(n: int) -> tuple[int, dict]:  # the shorter paths, and the table at length n
            shorter = sum(root(k)[1] for k in range(1, n)) + len(self.vertices) * (not degree)
            return shorter, root(n)[0]

        @cache
        def position(arrows: tuple[str, ...]) -> int:
            at, after = start(len(arrows))
            for name in arrows:
                lesser, after = after[name]
                at += lesser
            return at

        return position

    # ---------- derived quivers ----------

    def with_extra_arrows(self, extra) -> GradedQuiver:
        extra = tuple(extra)
        taken = set(self._arrow_by_name)
        for a in extra:
            if a.name in taken:
                raise ValueError(f"generated arrow name {a.name!r} already in use")
            taken.add(a.name)
        return GradedQuiver(self.vertices, self.arrows + extra)

    def degree_part(self, degree: int) -> GradedQuiver:
        """Subquiver on all vertices and the arrows of the given degree."""
        return self.subquiver(a.name for a in self.arrows if a.degree == degree)

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
