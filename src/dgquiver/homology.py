"""Length-truncated homology of non-positively graded dg path algebras.

The differential of every generator produced by the constructions lies in
the ideal generated by the arrows, so d never shortens paths.  Paths longer
than a cutoff L therefore span a dg-ideal and the quotient is an honest
finite complex; its homology is the computable window used throughout.
`build_truncated` holds its path counts and a row maker per degree, which
hands each nonzero row of the matrix of d, made by the derivation kernel of
`dg` at the cutoff, to a sink as it is made: the rank drivers add it to a
`RowSpace`, and hold no matrix.  No term longer than L (zero in the
quotient) is formed, nor a row that must be zero (see `build_truncated`).
Columns are in basis order, by length first, so the cutoff-L matrix is the
cutoff-(L+1) one cut to a prefix of its columns, and `homology_dims`
eliminates each degree once.  Dimensions are computed at L; a `stabilized`
flag says whether they agree at L+1, compared from H^0 down to the first
that differs -- a convergence heuristic, not a theorem, and the reports say
which cutoff they used.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache

from .dg import DgAlgebra, _d_path
from .linalg import RowSpace, SparseMatrix


class TruncationError(ValueError):
    """Raised when a generator differential has a length-0 term, in which
    case killing long paths is not a dg-quotient."""


class _Assembled(Mapping):
    """Read-only degree -> the matrix of the rows `rows(d, ...)` hands over,
    over the keys of `degrees`, made afresh on every read and never kept."""

    def __init__(self, degrees, rows, dim):
        self._degrees, self._rows, self._dim = degrees, rows, dim

    def __getitem__(self, d: int) -> SparseMatrix:
        if d not in self._degrees:
            raise KeyError(d)
        by_row = {}
        self._rows(d, by_row.__setitem__, indexed=True)
        return SparseMatrix._of_rows(self._dim[d], self._dim[d + 1], dict(reversed(by_row.items())))

    def __contains__(self, d) -> bool:  # Mapping's would assemble
        return d in self._degrees

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self) -> int:
        return len(self._degrees)


@dataclass
class TruncatedComplex:
    """Path counts, and a row maker, per cohomological degree d of the window
    (the keys of `components` and `matrices`, ascending): `components[d]`
    indexes `paths_by_degree(max_len, d, d)[d]`; `rows(d, sink)` walks degree
    d alone and hands sink each nonzero row of the matrix of d, dim(d) x
    dim(d + 1) in these bases, last first: sink(row), or sink(i, row) with
    `indexed`.  `matrices[d]` collects them afresh on each read."""

    max_len: int
    components: dict[int, range]
    matrices: Mapping[int, SparseMatrix]
    rows: Callable[..., None]

    def dim(self, degree: int) -> int:
        return len(self.components.get(degree, ()))

    def row_space(self, d: int) -> RowSpace:
        """The row span of the matrix of d, filled straight from `rows`."""
        space = RowSpace()
        self.rows(d, space.add)
        return space


def build_truncated(dg: DgAlgebra, max_len: int, degrees) -> TruncatedComplex:
    """The truncated complex on a degree window: counts, and a row maker per degree.

    The dimensions are `path_counts`.  Row i of the matrix in degree d is
    `_d_path` of the i-th basis path at the cutoff max_len: a term longer
    than max_len lies in the dg-ideal of long paths, which is zero in the
    quotient, so it is never formed.  Column j is the j-th basis path of
    degree d + 1 (`path_positions`).  Nothing is walked here: each call of a
    row maker walks its degree, afresh, from the last basis path to the first.

    Rows that must be zero are not computed: that of a trivial path (keyed by
    its vertex name) or of a path with no arrow whose d is nonzero, and, with
    lmin the least length of a term of any d(a), that of a path a_1...a_n with
    n > max_len + 1 - lmin: replacing a_l by a term of length >= lmin gives
    length >= n - 1 + lmin > max_len.  So only the paths of length <= max_len
    + 1 - lmin are walked; in (length, arrow names) order they are a prefix of
    the basis.
    """
    q = dg.quiver
    lmin = max_len + 2  # with every d zero, only trivial paths are walked
    for a in q.arrows:
        least = dg.d(a.name).min_length()  # None where d(a) = 0
        if least == 0:
            raise TruncationError(
                f"d({a.name}) has a length-0 term; length truncation is not "
                f"a dg-quotient here"
            )
        lmin = min(lmin, least or lmin)
    moving = {a.name for a in q.arrows if not dg.d(a.name).is_zero()}
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("the degree window is empty")
    dims = q.path_counts(max_len, degrees[0], degrees[-1] + 1)

    def rows(d: int, sink, indexed: bool = False) -> None:
        # after the check above every image has positive length
        column = q.path_positions(d + 1)
        keys = q.paths_by_degree(max(0, max_len + 1 - lmin), d, d)[d]
        for i, key in zip(range(len(keys) - 1, -1, -1), reversed(keys)):
            if type(key) is tuple and not moving.isdisjoint(key):
                if row := {column(w): c for w, c in _d_path(dg, key, max_len).items() if c}:
                    sink(i, row) if indexed else sink(row)

    components = {d: range(dims[d]) for d in degrees}
    return TruncatedComplex(max_len, components, _Assembled(components, rows, dims), rows)


@dataclass
class HomologyReport:
    """Dimensions of H^{-i} of the truncated complex for 0 <= i <= m-1.

    `vosnex` records the vanishing of the dimensions strictly between 0 and
    m-1 ("vanishing of small negative extensions").
    """

    m: int
    max_len: int
    dims: dict[int, int]
    stabilized: bool
    vosnex: bool


def _dims_from_complex(cx: TruncatedComplex, m: int) -> Iterator[int]:
    """dim H^{-i} = dim C^{-i} - rank(d on C^{-i}) - rank(d into C^{-i}) for
    i = 0, 1, ..., m-1, yielded in turn: each degree's rows are made and
    eliminated once, when the first dimension that needs them is asked for."""
    rank_of = cache(lambda d: cx.row_space(d).rank if d in cx.components else 0)
    for i in range(m):
        yield cx.dim(-i) - rank_of(-i) - rank_of(-i - 1)


def homology_dims(dg: DgAlgebra, m: int, max_len: int) -> HomologyReport:
    """dim H^{-i} for 0 <= i <= m-1 at cutoff max_len; `stabilized` records
    whether the dimensions at max_len + 1 agree, compared from H^0 down.

    Each degree is eliminated once: while the comparison agrees, at max_len
    + 1, its rank at max_len read as the count of pivots among the columns of
    length <= max_len, a prefix (`RowSpace` leads each pivot at its least
    column, so that count is the rank of the cut); after the first H^{-i}
    that differs, at max_len alone.

    For `ginzburg_from_relations(q, R, m)`, m >= 3, degree 0 is KQ / ((R) +
    r^(max_len + 1)): its arrows are q's (the added ones have negative degree),
    and the degree -1 generators with d != 0 have d = +-rho.  So once max_len >=
    N - 1, dims[0] is `certify(q, R, N).dim()`, as r^N lies in (R) + r^k, k > N.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    at_l, at_l1 = (build_truncated(dg, n, range(-m, 1)) for n in (max_len, max_len + 1))
    dims, stabilized = {}, True

    @cache
    def ranks(d: int) -> tuple[int, int | None]:  # at max_len, and at max_len + 1 while compared
        if not stabilized:
            return at_l.row_space(d).rank, None
        space = at_l1.row_space(d)
        # the columns of length <= max_len; degree 1 is outside the window
        short = at_l.dim(d + 1) if d else dg.quiver.path_counts(max_len, 1, 1)[1]
        return bisect_left(space.pivot_columns(), short), space.rank

    for i in range(m):
        (r, r1), (s, s1) = ranks(-i), ranks(-i - 1)
        dims[i] = at_l.dim(-i) - r - s
        stabilized = stabilized and at_l1.dim(-i) - r1 - s1 == dims[i]
    vosnex = all(dims[i] == 0 for i in range(1, m - 1))
    return HomologyReport(m=m, max_len=max_len, dims=dims, stabilized=stabilized, vosnex=vosnex)


def h0_presentation(dg: DgAlgebra):
    """Quiver presentation of H^0: the degree-0 subquiver together with the
    differentials of the degree -1 arrows as relations.

    Valid when all arrows have non-positive degree (raises otherwise).
    """
    q = dg.quiver
    positive = [a.name for a in q.arrows if a.degree > 0]
    if positive:
        raise ValueError(f"positive-degree arrows present: {positive}")
    zero_part = q.degree_part(0)
    relations = [
        dg.d(a.name).rebind(zero_part)
        for a in q.arrows
        if a.degree == -1
    ]
    return zero_part, relations


def default_truncation_length(m: int, relations, bound: int | None = None) -> int:
    """max(m + 2, 2 * bound, longest relation + 2); the workhorse default."""
    longest = max((r.body.max_length() or 0 for r in relations), default=0)
    return max(m + 2, 2 * (bound or 0), longest + 2)
