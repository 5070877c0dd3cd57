"""Length-truncated homology of non-positively graded dg path algebras.

The differential of every generator produced by the constructions lies in
the ideal generated by the arrows, so d never shortens paths.  Paths longer
than a cutoff L therefore span a dg-ideal and the quotient is an honest
finite complex; its homology is the computable window used throughout.
`build_truncated` computes each matrix row with the derivation kernel of
`dg` at the cutoff, so a term longer than L, which is zero in that
quotient, is never formed at all; nor is a row that must be zero: if every
term of every d(a) has length >= lmin, a path longer than L + 1 - lmin has d
of length > L, a zero row at cutoff L.
Dimensions are recomputed at L and L+1 and reported together with a
`stabilized` flag -- agreement is a convergence heuristic, not a theorem,
and the reports say which cutoff they used.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from .algebra import Superpotential
from .dg import (
    DgAlgebra,
    _d_path,
    _require_degree_zero,
    ginzburg_dg_algebra,
    ginzburg_from_relations,
    relation_dg_algebra,
)
from .linalg import SparseMatrix, rank
from .quiver import GradedQuiver, PathKey


class TruncationError(ValueError):
    """Raised when a generator differential has a length-0 term, in which
    case killing long paths is not a dg-quotient."""


@dataclass
class TruncatedComplex:
    """Per cohomological degree: the keys (see `Path.key`) of the basis
    paths of length <= max_len, and the matrix of d into the next degree
    (rows = source basis, columns = target basis)."""

    dg: DgAlgebra
    max_len: int
    degrees: list[int]
    components: dict[int, list[PathKey]]
    matrices: dict[int, SparseMatrix] = field(default_factory=dict)

    def dim(self, degree: int) -> int:
        return len(self.components.get(degree, []))


def build_truncated(dg: DgAlgebra, max_len: int, degrees) -> TruncatedComplex:
    """Assemble the truncated complex on the requested degree window.

    Rows and columns are indexed by the path keys of `paths_by_degree`.
    Row i of the matrix in degree d is `_d_path` of the i-th basis path at
    the cutoff max_len: a term longer than max_len lies in the dg-ideal of
    long paths, which is zero in the quotient, so it is never formed.  A
    trivial path (keyed by its vertex name) has d = 0 and an empty row.

    Rows zero by length are not computed.  With lmin the least length of a
    term of any d(a), a path a_1...a_n with n > max_len + 1 - lmin has a zero
    row: replacing a_l by a term of length >= lmin gives length >= n - 1 +
    lmin > max_len.  `paths_by_degree` appends the walk level by level, so a
    bucket is in length order and its scan stops at the first such key.
    """
    q = dg.quiver
    for a in q.arrows:
        if dg.d(a.name).min_length() == 0:
            raise TruncationError(
                f"d({a.name}) has a length-0 term; length truncation is not "
                f"a dg-quotient here"
            )
    # with every d zero, lmin = max_len + 2 and no row is computed at all
    lmin = min(filter(None, (dg.d(a.name).min_length() for a in q.arrows)), default=max_len + 2)
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("the degree window is empty")
    buckets = q.paths_by_degree(max_len, degrees[0], degrees[-1] + 1)
    components = {d: buckets[d] for d in degrees}
    cx = TruncatedComplex(dg, max_len, degrees, components)
    for d in degrees:
        target = buckets[d + 1]
        # after the check above every image has positive length
        column = {key: j for j, key in enumerate(target)}
        rows = {}
        for i, key in enumerate(components[d]):
            if type(key) is tuple:
                if len(key) > max_len + 1 - lmin:
                    break
                if row := {column[w]: c for w, c in _d_path(dg, key, max_len).items() if c}:
                    rows[i] = row
        cx.matrices[d] = SparseMatrix._of_rows(len(components[d]), len(target), rows)
    return cx


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


def _dims_from_complex(cx: TruncatedComplex, m: int) -> dict[int, int]:
    # dim H^{-i} = dim C^{-i} - rank(d on C^{-i}) - rank(d into C^{-i})
    ranks = {d: rank(mx) for d, mx in cx.matrices.items()}
    return {i: cx.dim(-i) - ranks.get(-i, 0) - ranks.get(-i - 1, 0) for i in range(m)}


def homology_dims(dg: DgAlgebra, m: int, max_len: int) -> HomologyReport:
    """dim H^{-i} for 0 <= i <= m-1 within the length truncation.

    Computed at max_len and max_len + 1; `stabilized` records agreement and
    the reported dimensions are the ones at max_len.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    degrees = range(-m, 1)
    at_l = _dims_from_complex(build_truncated(dg, max_len, degrees), m)
    at_l1 = _dims_from_complex(build_truncated(dg, max_len + 1, degrees), m)
    vosnex = all(at_l[i] == 0 for i in range(1, m - 1))
    return HomologyReport(
        m=m,
        max_len=max_len,
        dims=at_l,
        stabilized=at_l == at_l1,
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


def preprojective_presentation(q: GradedQuiver):
    """H^0 presentation of the Ginzburg dg-algebra with m = 1 and zero
    superpotential: the doubled quiver modulo the mesh relations
    e_i (sum over arrows of [a, a*]) e_i."""
    _require_degree_zero(q)
    dg = ginzburg_dg_algebra(q, Superpotential.zero(q), 1)
    return h0_presentation(dg)


@dataclass
class VosnexVerdict:
    """The four equivalent vanishing conditions, evaluated independently."""

    acyclic_and_no_relations: bool     # quiver acyclic and relation list empty
    degree_zero_finite: bool           # relation dg-algebra concentrated in
                                       # degree 0 with finite total dimension
    small_negative_vanishing: bool     # dims zero for 0 < i < m-1
    top_small_negative_zero: bool      # dim at i = m-2 is zero

    def all_equal(self) -> bool:
        return len(set(astuple(self))) == 1


def vosnex_equivalence_check(
    q: GradedQuiver, relations, m: int, max_len: int
) -> VosnexVerdict:
    """Evaluate the four equivalent conditions for the vanishing of the small
    negative homology of the Ginzburg dg-algebra of (q, relations, m).

    Preconditions (each failure raises with its own message): m > 2, every
    relation body inside the square of the arrow ideal, and KQ/(relations)
    finite-dimensional (certified through an admissibility bound).
    """
    from .ideals import NotAdmissibleError, find_admissibility_bound

    relations = list(relations)
    if m <= 2:
        raise ValueError("m > 2 required")
    # raises ValueError when a relation is not inside r^2
    if find_admissibility_bound(q, relations, max_n=max(12, max_len)) is None:
        raise NotAdmissibleError(
            "could not certify the quotient algebra finite-dimensional"
        )
    structural = q.is_acyclic() and not relations
    # read off the relation dg-algebra itself: concentrated in degree 0 when
    # it has no arrow of nonzero degree, finite-dimensional when acyclic
    b = relation_dg_algebra(q, relations).quiver
    degree_zero_finite = all(a.degree == 0 for a in b.arrows) and b.is_acyclic()
    rep = homology_dims(ginzburg_from_relations(q, relations, m), m, max_len)
    return VosnexVerdict(
        acyclic_and_no_relations=structural,
        degree_zero_finite=degree_zero_finite,
        small_negative_vanishing=rep.vosnex,
        top_small_negative_zero=rep.dims[m - 2] == 0,
    )


def default_truncation_length(m: int, relations, bound: int | None = None) -> int:
    """max(m + 2, 2 * bound, longest relation + 2); the workhorse default."""
    longest = max((r.body.max_length() or 0 for r in relations), default=0)
    candidates = [m + 2, longest + 2]
    if bound is not None:
        candidates.append(2 * bound)
    return max(candidates)
