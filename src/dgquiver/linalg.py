"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal dimensions, homology ranks, membership tests)
reduces to one kernel, the echelon row span `RowSpace`, which answers rank,
pivots and membership.  It eliminates fraction-free, in integers (Bareiss,
Math. Comp. 22, 1968), and answers exactly: no floating point anywhere, no
modular shortcuts; "span" always means row span.  As each pivot leads at its
least column, the pivots below column k count the rank of the span cut to
the columns < k, which lets `homology_dims` eliminate each degree once.
The homology drivers add each row of a truncated complex's differential as
it is made; `SparseMatrix` holds those rows only for a caller that reads a
whole matrix, columns in basis order (`TruncatedComplex.matrices`).
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


def _integral(row: Mapping) -> SparseRow:
    """s * row for s the lcm of the denominators, in a new dict; an int row
    is copied with s = 1.  An all-int row, as every row an ideal span adds is
    (shifted pivot rows and `ideals._integer_terms` relation rows), is
    scanned for types and zeros at C speed and copied whole if it has none."""
    values = row.values()
    if set(map(type, values)) <= {int}:
        return dict(row) if 0 not in values else {c: v for c, v in row.items() if v}
    out = {c: as_rational(v).as_integer_ratio() for c, v in row.items()}
    s = lcm(*(d for _, d in out.values()))
    return {c: n * (s // d) for c, (n, d) in out.items() if n}


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
      vector with no entry on P.

    Elimination never divides: the remainder r of v starts as a positive
    multiple of v, and a step r := a*r - b*p, with a*r[c] = b*p[c] and
    gcd(a, b) = 1, has a > 0 as p[c] > 0.  So the final r, free of P, is a
    positive multiple of that one vector, which `add` stores primitive.

    Hence `rank`, `pivot_columns` and `contains` are functions of W alone,
    and so are the complement bases read from them.
    """

    def __init__(self, rows=()) -> None:
        self._pivots: dict[int, SparseRow] = {}  # pivot column -> pivot row
        for row in rows:
            self.add(row)

    def __copy__(self) -> RowSpace:
        """A span that grows apart from this one, sharing the never-mutated pivot rows."""
        space = RowSpace()
        space._pivots = dict(self._pivots)
        return space

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def _eliminate(self, row: Mapping) -> SparseRow:
        """Integer remainder of `row`: free of P, a positive multiple of the
        one vector in row + W with no entry on P."""
        r = _integral(row)
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
                return r
            p = pivots[hit]
            x, y = r.pop(hit), p[hit]
            g = gcd(x, y)
            a, b = y // g, x // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in p.items():
                if c == hit:
                    continue
                new = r.get(c, 0) - b * v
                if new:
                    r[c] = new
                else:
                    r.pop(c, None)

    def contains(self, row: Mapping) -> bool:
        return not self._eliminate(row)

    def add(self, row: Mapping) -> bool:
        """Insert `row`; True iff the rank increased."""
        r = self._eliminate(row)
        if not r:
            return False
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        # r is a fresh dict (`_integral`), never the caller's, so it is kept as it is when primitive
        self._pivots[lead] = r if g == 1 else {c: v // g for c, v in r.items()}
        return True

    def take_on(self, other: RowSpace, image: Mapping[int, int]) -> None:
        """Take on as pivot rows, uneliminated, the images under the column
        map `image` of the pivot rows of `other` whose pivot it maps; on their
        columns it must be defined, injective and order-keeping, so each image
        is a pivot row again.  Else, or for an image led at a pivot already,
        it raises ValueError, and nothing is taken on."""
        taken = {}
        for old in image.keys() & other._pivots.keys():
            row, lead = other._pivots[old], image[old]
            try:
                new = {image[c]: v for c, v in row.items()}
            except KeyError:  # caught, not tested per entry: this loop is hot
                raise ValueError(f"the pivot row at {old} has a column the map lacks") from None
            if lead in self._pivots or lead in taken or lead != min(new) or len(new) < len(row):
                raise ValueError(f"the image of the pivot row at {old} is not a new pivot row")
            taken[lead] = new
        self._pivots.update(taken)


class SparseMatrix:
    """Immutable sparse matrix over Q; zero entries are never stored.

    `TruncatedComplex.matrices` alone makes one, through `_of_rows`: row-major,
    row -> {column: nonzero int or `Fraction`}, nonempty rows only, ascending.
    `rank` reads the rows; `entries`, (i, j) -> value, is derived on read.
    """

    __slots__ = ("rows", "cols", "_by_row")

    @classmethod
    def _of_rows(cls, rows: int, cols: int, by_row: dict[int, SparseRow]) -> SparseMatrix:
        """Unchecked: nonempty rows of nonzero int or `Fraction` entries, in range."""
        mx = cls.__new__(cls)
        mx.rows, mx.cols, mx._by_row = rows, cols, by_row
        return mx

    @property
    def entries(self) -> dict[tuple[int, int], int | Fraction]:
        return {(i, j): v for i, r in self._by_row.items() for j, v in r.items()}

    def __repr__(self) -> str:
        nnz = sum(map(len, self._by_row.values()))
        return f"SparseMatrix({self.rows}x{self.cols}, {nnz} entries)"


def rank(m: SparseMatrix) -> int:
    """Rank of `m` over Q, exact; fed last row first, as the row makers hand them."""
    return RowSpace(reversed(m._by_row.values())).rank
