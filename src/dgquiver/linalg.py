"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal dimensions, homology ranks, membership tests,
normal forms) reduces to one kernel, the echelon row span `RowSpace`.
It eliminates fraction-free, in integers (Bareiss, Math. Comp. 22, 1968),
and reports exact rationals: no floating point anywhere, no modular
shortcuts.  Matrices are row-major semantic objects and "span" always
means row span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

SparseRow = dict  # column index -> nonzero int or Fraction


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _integral(row: Mapping) -> tuple[SparseRow, int]:
    """(s * row, s) for s the lcm of the denominators; int rows keep s = 1."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}, 1
    out = {c: as_rational(v).as_integer_ratio() for c, v in row.items()}
    s = lcm(*(d for _, d in out.values()))
    return {c: n * (s // d) for c, (n, d) in out.items() if n}, s


class RowSpace:
    """A row span W over Q, kept as an echelon basis of integer rows;
    `RowSpace(rows)` starts from the span of `rows`.

    Rows are sparse dicts {column: value}.  Each pivot row is a primitive
    integer row (its entries have gcd 1) with a positive leading entry in
    its pivot column, and no other pivot row leads there; older pivot rows
    are not cleared, yet every answer is canonical:

    * the pivot set P is the set of leading columns of the nonzero vectors
      of W, so it depends on W alone, not on the basis or insertion order;
    * a nonzero w in W leads in a column of P, so v + W holds exactly one
      vector with no entry on P, and that vector is what `reduce` returns.

    Elimination never divides: a remainder r of v carries a scalar s > 0
    with r - s*v in W, and the step r := a*r - b*p, with a*r[c] = b*p[c]
    and gcd(a, b) = 1, sets s := a*s.  The final r has no entry on P, so it
    is s times that vector, and `reduce` returns r / s.

    Hence `rank`, `pivot_columns`, `contains` and `reduce` are functions of
    W alone, and so are the normal forms and complement bases read from
    them (`TruncatedIdealSpan.reduce`, `complement_basis`).
    """

    def __init__(self, rows=()) -> None:
        self._pivots: dict[int, SparseRow] = {}  # pivot column -> pivot row
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def _eliminate(self, row: Mapping) -> tuple[SparseRow, int]:
        """Integer remainder r of `row`, free of P, and s with r - s*row in W."""
        r, s = _integral(row)
        pivots = self._pivots
        # A pivot row has no entry left of its pivot, so eliminating a pivot
        # column only introduces columns to its right, and sweeping
        # ascending pivot columns terminates.
        while True:
            hit = None
            for c in r:
                if c in pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return r, s
            p = pivots[hit]
            x, y = r.pop(hit), p[hit]
            g = gcd(x, y)
            a, b = y // g, x // g
            if a != 1:
                for c in r:
                    r[c] *= a
                s *= a
            for c, v in p.items():
                if c == hit:
                    continue
                new = r.get(c, 0) - b * v
                if new:
                    r[c] = new
                else:
                    r.pop(c, None)
            if a != 1:
                # cancel the part of s that the whole remainder shares
                g = gcd(s, *r.values())
                if g != 1:
                    r = {c: v // g for c, v in r.items()}
                    s //= g

    def reduce(self, row: Mapping) -> dict[int, Fraction]:
        """Normal form of `row` modulo the span (empty dict iff contained)."""
        r, s = self._eliminate(row)
        return {c: Fraction(v, s) for c, v in r.items()}

    def contains(self, row: Mapping) -> bool:
        return not self._eliminate(row)[0]

    def add(self, row: Mapping) -> bool:
        """Insert `row`; True iff the rank increased."""
        r, _ = self._eliminate(row)
        if not r:
            return False
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        self._pivots[lead] = {c: v // g for c, v in r.items()}
        return True


class SparseMatrix:
    """Immutable sparse matrix over Q; zero entries are never stored.

    `int` entries are stored as given, any other exact entry as `Fraction`.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        ent = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
            if type(v) is not int:
                v = as_rational(v)
            if v:
                ent[(i, j)] = v
        self.entries = ent

    def _stored_rows(self) -> dict[int, SparseRow]:
        """Row index -> row, for the rows with a stored entry only."""
        by_row: dict[int, SparseRow] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        return by_row

    def matmul(self, other: SparseMatrix) -> SparseMatrix:
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        other_rows = other._stored_rows()
        ent: dict[tuple[int, int], Fraction] = {}
        for i, r in self._stored_rows().items():
            acc: SparseRow = {}
            for k, v in r.items():
                for j, w in other_rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, v in acc.items():
                if v:
                    ent[(i, j)] = v
        return SparseMatrix(self.rows, other.cols, ent)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def rank(m: SparseMatrix) -> int:
    """Rank of `m` over Q, exact."""
    return RowSpace(m._stored_rows().values()).rank
