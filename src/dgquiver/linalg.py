"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal dimensions, homology ranks, membership tests)
reduces to row spans of sparse matrices over Q.  Coefficients are
`fractions.Fraction`, so all results are exact: no floating point anywhere,
no modular shortcuts.  Matrices are row-major semantic objects and "span"
always means row span.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction

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
    """A row span over Q, maintained in reduced row-echelon form.

    Rows are sparse dicts {column: Fraction}.  Pivot rows are normalized to
    leading coefficient 1 and fully back-substituted, so `reduce` computes a
    canonical normal form modulo the span.  Insertion order is the only
    source of state, hence results are deterministic.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, SparseRow] = {}  # pivot column -> pivot row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def rows(self) -> list[SparseRow]:
        """The echelon basis rows, in insertion order of their pivots."""
        return [dict(r) for r in self._pivots.values()]

    def reduce(self, row: Mapping[int, Fraction]) -> SparseRow:
        """Normal form of `row` modulo the span (empty dict iff contained)."""
        out = {c: as_rational(v) for c, v in row.items() if v}
        # Eliminating a pivot column only introduces columns to its right,
        # so sweeping ascending pivot columns terminates.
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
        res = {c: v * inv for c, v in res.items()}
        # keep reduced echelon form: clear the new pivot column everywhere
        for prow in self._pivots.values():
            coef = prow.get(lead)
            if coef is None:
                continue
            for c, v in res.items():
                new = prow.get(c, 0) - coef * v
                if new:
                    prow[c] = new
                else:
                    prow.pop(c, None)
        self._pivots[lead] = res
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


def quotient_dim(ambient_dim: int, subspace: SparseMatrix) -> int:
    """dim of ambient / (row span of subspace)."""
    if subspace.cols != ambient_dim:
        raise ValueError(f"subspace has {subspace.cols} columns, ambient {ambient_dim}")
    return ambient_dim - rank(subspace)
