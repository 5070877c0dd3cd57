"""Length-truncated homology of non-positively graded dg path algebras.

The differential of every generator produced by the constructions lies in
the ideal generated by the arrows, so d never shortens paths.  Paths longer
than a cutoff L therefore span a dg-ideal and the quotient is an honest
finite complex; its homology is the computable window used throughout.
Dimensions are recomputed at L and L+1 and reported together with a
`stabilized` flag -- agreement is a convergence heuristic, not a theorem,
and the reports say which cutoff they used.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from fractions import Fraction

from .algebra import PathElement, Superpotential
from .dg import (
    DgAlgebra,
    apply_d,
    ginzburg_dg_algebra,
    ginzburg_from_relations,
    relation_dg_algebra,
)
from .linalg import SparseMatrix, rank
from .quiver import GradedQuiver, Path


class TruncationError(ValueError):
    """Raised when a generator differential has a length-0 term, in which
    case killing long paths is not a dg-quotient."""


@dataclass
class TruncatedComplex:
    """Per cohomological degree: a path basis of length <= max_len and the
    matrix of d into the next degree (rows = source basis, columns = target
    basis)."""

    dg: DgAlgebra
    max_len: int
    degrees: list[int]
    components: dict[int, list[Path]]
    matrices: dict[int, SparseMatrix] = field(default_factory=dict)

    def dim(self, degree: int) -> int:
        return len(self.components.get(degree, []))


def build_truncated(dg: DgAlgebra, max_len: int, degrees) -> TruncatedComplex:
    """Assemble the truncated complex on the requested degree window."""
    q = dg.quiver
    for a in q.arrows:
        da = dg.d(a.name)
        if not da.is_zero() and da.min_length() == 0:
            raise TruncationError(
                f"d({a.name}) has a length-0 term; length truncation is not "
                f"a dg-quotient here"
            )
    degrees = sorted(set(degrees))
    lo, hi = degrees[0], degrees[-1]
    buckets = q.paths_by_degree(max_len, lo, hi + 1)
    components = {d: buckets.get(d, []) for d in degrees}
    index = {
        d: {p: i for i, p in enumerate(buckets.get(d, []))}
        for d in range(lo, hi + 2)
    }
    cx = TruncatedComplex(dg, max_len, degrees, components)
    for d in degrees:
        basis = components[d]
        target = buckets.get(d + 1, [])
        entries: dict[tuple[int, int], Fraction] = {}
        for i, p in enumerate(basis):
            image = apply_d(dg, PathElement(q, {p: Fraction(1)}))
            for tp, c in image.terms.items():
                if len(tp) > max_len:
                    continue  # the quotient by long paths
                entries[(i, index[d + 1][tp])] = c
        cx.matrices[d] = SparseMatrix(len(basis), len(target), entries)
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
    dims = {}
    ranks = {d: rank(mx) for d, mx in cx.matrices.items()}
    for i in range(0, m):
        deg = -i
        kernel = cx.dim(deg) - ranks.get(deg, 0)
        image = ranks.get(deg - 1, 0)
        dims[i] = kernel - image
    return dims


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
    bad = [a.name for a in q.arrows if a.degree != 0]
    if bad:
        raise ValueError(f"arrows must be in degree 0, got {bad}")
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
    longest = 0
    for r in relations:
        ml = r.body.max_length()
        if ml is not None:
            longest = max(longest, ml)
    candidates = [m + 2, longest + 2]
    if bound is not None:
        candidates.append(2 * bound)
    return max(candidates)
