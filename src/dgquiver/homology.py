"""Length-truncated homology of non-positively graded dg path algebras.

The differential of every generator produced by the constructions lies in
the ideal generated by the arrows, so d never shortens paths.  Paths longer
than a cutoff L therefore span a dg-ideal and the quotient is an honest
finite complex; its homology is the computable window used throughout.
`build_truncated` holds its path counts, and the matrix of d in the path
bases, made on every read.  Each row comes from the derivation kernel of
`dg` at the cutoff, so a term longer than L, zero in that quotient, is never
formed; nor is a row that must be zero: if every term of every d(a) has
length >= lmin, a path longer than L + 1 - lmin has d of length > L.  So a
read walks that one degree, to length L + 1 - lmin.  Columns are in basis
order, by length first, so the cutoff-L matrix is the cutoff-(L+1) one cut
to a prefix of its columns, and `homology_dims` eliminates each degree once.
Dimensions are computed at L; a `stabilized` flag says whether they agree
at L+1, compared from H^0 down to the first that differs -- a convergence
heuristic, not a theorem, and the reports say which cutoff they used.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cache

from .dg import DgAlgebra, _d_path
from .linalg import SparseMatrix, _row_space, rank


class TruncationError(ValueError):
    """Raised when a generator differential has a length-0 term, in which
    case killing long paths is not a dg-quotient."""


class _Assembled(Mapping):
    """Read-only degree -> `assemble(d)` over the keys of `degrees`, made
    afresh on every read and never kept."""

    def __init__(self, degrees, assemble):
        self._degrees, self._assemble = degrees, assemble

    def __getitem__(self, d: int) -> SparseMatrix:
        if d not in self._degrees:
            raise KeyError(d)
        return self._assemble(d)

    def __contains__(self, d) -> bool:  # Mapping's would assemble
        return d in self._degrees

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self) -> int:
        return len(self._degrees)


@dataclass
class TruncatedComplex:
    """Path counts, and a matrix made on every read, per cohomological
    degree d of the window (the keys of `components` and `matrices`,
    ascending): `components[d] = range(dim(d))` indexes the basis paths of
    length <= max_len, `paths_by_degree(max_len, d, d)[d]`; the matrix of d,
    dim(d) x dim(d + 1) in these bases (columns in basis order, by length
    first), is made afresh on each read, which walks degree d alone."""

    max_len: int
    components: dict[int, range]
    matrices: Mapping[int, SparseMatrix]

    def dim(self, degree: int) -> int:
        return len(self.components.get(degree, ()))


def build_truncated(dg: DgAlgebra, max_len: int, degrees) -> TruncatedComplex:
    """The truncated complex on a degree window: counts, and a matrix made on every read.

    The dimensions are `path_counts`.  Row i of the matrix in degree d is
    `_d_path` of the i-th basis path at the cutoff max_len: a term longer
    than max_len lies in the dg-ideal of long paths, which is zero in the
    quotient, so it is never formed.  A trivial path (keyed by its vertex
    name) has d = 0 and an empty row.  Column j is the j-th basis path of
    degree d + 1 (`path_positions`).  Nothing is walked here: a read of a
    matrix walks that degree's rows, afresh.

    Rows zero by length are not computed.  With lmin the least length of a
    term of any d(a), a path a_1...a_n with n > max_len + 1 - lmin has a zero
    row: replacing a_l by a term of length >= lmin gives length >= n - 1 +
    lmin > max_len.  So only the paths of length <= max_len + 1 - lmin are
    walked; in (length, arrow names) order they are a prefix of the basis.
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
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("the degree window is empty")
    dims = q.path_counts(max_len, degrees[0], degrees[-1] + 1)

    def assemble(d: int) -> SparseMatrix:
        # after the check above every image has positive length
        column, rows = q.path_positions(d + 1), {}
        for i, key in enumerate(q.paths_by_degree(max(0, max_len + 1 - lmin), d, d)[d]):
            if type(key) is tuple:
                image = _d_path(dg, key, max_len)
                if row := {column(w): c for w, c in image.items() if c}:
                    rows[i] = row
        return SparseMatrix._of_rows(dims[d], dims[d + 1], rows)

    components = {d: range(dims[d]) for d in degrees}
    return TruncatedComplex(max_len, components, _Assembled(components, assemble))


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
    i = 0, 1, ..., m-1, yielded in turn: each matrix is made and ranked once,
    when the first dimension that needs it is asked for, and not kept."""
    rank_of = cache(lambda d: rank(cx.matrices[d]) if d in cx.matrices else 0)
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
            return rank(at_l.matrices[d]), None
        space = _row_space(at_l1.matrices[d])
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
