"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal dimensions, homology ranks, membership tests,
normal forms) reduces to one kernel, the echelon row span `RowSpace`.
Coefficients are `fractions.Fraction`, so all results are exact: no floating
point anywhere, no modular shortcuts.  Matrices are row-major semantic
objects and "span" always means row span.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

SparseRow = dict  # column index -> nonzero Fraction


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RowSpace:
    """A row span W over Q, kept as an echelon basis.

    Rows are sparse dicts {column: Fraction}.  Each pivot row has leading
    coefficient 1 in its pivot column, and no other pivot row leads there;
    older pivot rows are not cleared, yet every answer is canonical:

    * the pivot set P is the set of leading columns of the nonzero vectors
      of W, so it depends on W alone, not on the basis or insertion order;
    * a nonzero w in W leads in a column of P, so v + W holds exactly one
      vector with no entry on P, and that vector is what `reduce` returns.

    Hence `rank`, `pivot_columns`, `contains` and `reduce` are functions of
    W alone, and so are the normal forms and complement bases read from
    them (`TruncatedIdealSpan.reduce`, `complement_basis`,
    `split_extension_check`).
    """

    def __init__(self) -> None:
        self._pivots: dict[int, SparseRow] = {}  # pivot column -> pivot row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def reduce(self, row: Mapping[int, Fraction]) -> SparseRow:
        """Normal form of `row` modulo the span (empty dict iff contained)."""
        out = {c: as_rational(v) for c, v in row.items() if v}
        # A pivot row has no entry left of its pivot, so eliminating a pivot
        # column only introduces columns to its right, and sweeping
        # ascending pivot columns terminates.
        while True:
            hit = None
            for c in out:
                if c in self._pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return out
            coef = out.pop(hit)
            for c, v in self._pivots[hit].items():
                if c == hit:
                    continue
                new = out.get(c, 0) - coef * v
                if new:
                    out[c] = new
                else:
                    out.pop(c, None)

    def contains(self, row: Mapping[int, Fraction]) -> bool:
        return not self.reduce(row)

    def add(self, row: Mapping[int, Fraction]) -> bool:
        """Insert `row`; True iff the rank increased."""
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead]
        self._pivots[lead] = {c: v * inv for c, v in res.items()}
        return True


class SparseMatrix:
    """Immutable sparse matrix over Q; zero entries are never stored."""

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
            v = as_rational(v)
            if v:
                ent[(i, j)] = v
        self.entries = ent

    def iter_rows(self):
        by_row: dict[int, SparseRow] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        for i in range(self.rows):
            yield by_row.get(i, {})

    def matmul(self, other: SparseMatrix) -> SparseMatrix:
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        by_row: dict[int, SparseRow] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        other_rows: dict[int, SparseRow] = {}
        for (k, j), v in other.entries.items():
            other_rows.setdefault(k, {})[j] = v
        ent: dict[tuple[int, int], Fraction] = {}
        for i, r in by_row.items():
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
    space = RowSpace()
    for row in m.iter_rows():
        space.add(row)
    return space.rank
