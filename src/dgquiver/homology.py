"""Length-truncated homology of non-positively graded dg path algebras.

The differential of every generator produced by the constructions lies in
the ideal generated by the arrows, so d never shortens paths.  Paths longer
than a cutoff L therefore span a dg-ideal and the quotient is an honest
finite complex; its homology is the computable window used throughout.
`build_truncated` computes each matrix row with the derivation kernel of
`dg` at the cutoff, so a term longer than L, which is zero in that
quotient, is never formed at all; nor is a row that must be zero: if every
term of every d(a) has length >= lmin, a path longer than L + 1 - lmin has d
of length > L, a zero row at cutoff L.  So only paths of length <= L + 1 -
lmin are walked: dimensions are path counts, rows are indexed by basis
position, and columns in first-hit order, which `columns` names.
Dimensions are computed at L; a `stabilized` flag says whether they agree
at L+1, compared from H^0 down to the first that differs -- a convergence
heuristic, not a theorem, and the reports say which cutoff they used.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

from .dg import DgAlgebra, _d_path
from .linalg import SparseMatrix, rank
from .quiver import GradedQuiver, PathKey


class TruncationError(ValueError):
    """Raised when a generator differential has a length-0 term, in which
    case killing long paths is not a dg-quotient."""


class _Basis(Sequence):
    """The keys of the paths of length <= max_len in one degree, in
    `paths_by_degree` order: its length is their count, and the keys are
    enumerated on the first index or iteration."""

    def __init__(self, q: GradedQuiver, max_len: int, degree: int, count: int):
        self._q, self._max_len, self._degree, self._count = q, max_len, degree, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._keys[i]

    @cached_property
    def _keys(self) -> list[PathKey]:
        d = self._degree
        return self._q.paths_by_degree(self._max_len, d, d)[d]


class _Assembled(Mapping):
    """Read-only degree -> part i (0: matrix, 1: columns) of `assemble(d)`,
    made on the first read of either part and kept in `done`, keyed by the
    degree window and shared by the two parts."""

    def __init__(self, done: dict, assemble, i: int):
        self._done, self._assemble, self._i = done, assemble, i

    def __getitem__(self, d: int):
        if self._done[d] is None:
            self._done[d] = self._assemble(d)
        return self._done[d][self._i]

    def _read(self, d: int):
        """`self[d]`, but made afresh and not kept if it was never read."""
        return (self._done[d] or self._assemble(d))[self._i]

    def __contains__(self, d) -> bool:
        return d in self._done

    def __iter__(self):
        return iter(self._done)

    def __len__(self) -> int:
        return len(self._done)


@dataclass
class TruncatedComplex:
    """Per cohomological degree d of the window (the keys of `components`,
    `matrices` and `columns`, ascending): the keys of the basis paths of
    length <= max_len (`components[d]`, whose length is their count), and
    the dim(d) x dim(d + 1) matrix of d, made when it or `columns[d]` is
    first read.  Row i is the i-th basis path; column j is `columns[d][j]`,
    columns in first-hit order, and the unhit ones zero."""

    max_len: int
    components: dict[int, Sequence[PathKey]]
    matrices: Mapping[int, SparseMatrix]
    columns: Mapping[int, list[PathKey]]

    def dim(self, degree: int) -> int:
        return len(self.components.get(degree, ()))


def build_truncated(dg: DgAlgebra, max_len: int, degrees) -> TruncatedComplex:
    """Set up the truncated complex on the requested degree window.

    The dimensions are `path_counts`.  Row i of the matrix in degree d is
    `_d_path` of the i-th basis path at the cutoff max_len: a term longer
    than max_len lies in the dg-ideal of long paths, which is zero in the
    quotient, so it is never formed.  A trivial path (keyed by its vertex
    name) has d = 0 and an empty row.  A column is indexed on its first
    nonzero entry (`columns[d]`); one that no row hits adds 1 to the
    dimension and 0 to the rank.  The rows are walked here, but a degree's
    matrix is made only when it or its columns are first read.

    Rows zero by length are not computed.  With lmin the least length of a
    term of any d(a), a path a_1...a_n with n > max_len + 1 - lmin has a zero
    row: replacing a_l by a term of length >= lmin gives length >= n - 1 +
    lmin > max_len.  So only the paths of length <= max_len + 1 - lmin are
    walked; in (length, arrow names) order they are a prefix of the basis.
    """
    q = dg.quiver
    for a in q.arrows:
        if dg.d(a.name).min_length() == 0:
            raise TruncationError(
                f"d({a.name}) has a length-0 term; length truncation is not "
                f"a dg-quotient here"
            )
    # with every d zero, lmin = max_len + 2: only trivial paths are walked
    lmin = min(filter(None, (dg.d(a.name).min_length() for a in q.arrows)), default=max_len + 2)
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("the degree window is empty")
    dims = q.path_counts(max_len, degrees[0], degrees[-1] + 1)
    walked = q.paths_by_degree(max(0, max_len + 1 - lmin), degrees[0], degrees[-1])

    def assemble(d: int) -> tuple[SparseMatrix, list[PathKey]]:
        # after the check above every image has positive length
        column = {}
        rows = {}
        for i, key in enumerate(walked[d]):
            if type(key) is tuple:
                image = _d_path(dg, key, max_len)
                if row := {column.setdefault(w, len(column)): c for w, c in image.items() if c}:
                    rows[i] = row
        return SparseMatrix._of_rows(dims[d], dims[d + 1], rows), list(column)

    components = {d: _Basis(q, max_len, d, dims[d]) for d in degrees}
    done = dict.fromkeys(degrees)
    matrices, columns = (_Assembled(done, assemble, i) for i in (0, 1))
    return TruncatedComplex(max_len, components, matrices, columns)


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
    rank_of = cache(lambda d: rank(cx.matrices._read(d)) if d in cx.matrices else 0)
    for i in range(m):
        yield cx.dim(-i) - rank_of(-i) - rank_of(-i - 1)


def homology_dims(dg: DgAlgebra, m: int, max_len: int) -> HomologyReport:
    """dim H^{-i} for 0 <= i <= m-1 at cutoff max_len; `stabilized` records
    whether the dimensions at max_len + 1 agree, compared from H^0 down: the
    pass stops at the first that differs and ranks no matrix below it.

    For `ginzburg_from_relations(q, R, m)`, m >= 3, degree 0 is KQ / ((R) +
    r^(max_len + 1)): its arrows are q's (the added ones have negative degree),
    and the degree -1 generators with d != 0 have d = +-rho.  So once max_len >=
    N - 1, dims[0] is `certify(q, R, N).dim()`, as r^N lies in (R) + r^k, k > N.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    degrees = range(-m, 1)
    at_l = dict(enumerate(_dims_from_complex(build_truncated(dg, max_len, degrees), m)))
    at_l1 = _dims_from_complex(build_truncated(dg, max_len + 1, degrees), m)
    vosnex = all(at_l[i] == 0 for i in range(1, m - 1))
    return HomologyReport(
        m=m,
        max_len=max_len,
        dims=at_l,
        stabilized=all(a == b for a, b in zip(at_l.values(), at_l1)),
        vosnex=vosnex,
    )


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
