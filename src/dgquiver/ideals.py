"""Admissible ideals of path algebras through truncated linear algebra.

An ideal generated by relations is *admissible with bound N* when
r^N <= (R) <= r^2, r being the arrow ideal.  Under that bound every question
about (R) asked of elements supported in length < N reduces to finite linear
algebra: the span of the truncations of u*rho*v to length < N equals
(R) intersected with the paths of length < N, because any discarded tail
lies in r^N and hence in the ideal.  No Groebner machinery is used or
needed.  Columns are path keys in walk order, the quiver's, shared by all
its spans.  One chain grows every span level by level from the left shifts
of its last level and the right shifts of the rows that raised its rank
there (`TruncatedIdealSpan`): the certified span holds the products u*rho*v
cut to its length, the proof of `generates_arrow_power` those whose every
term fits.

The bound search is the operational test "every path of length N lies in the
truncated span at bound N+1" (`bound_is_valid(span)`, which counts the pivots
of the span's top level).  It finds a correct bound for admissible ideals but
can pass a non-admissible one (one loop with the relation a^2 - a^3), which
is why operations requiring admissibility refuse to run without a bound and
why non-membership can be certified by a representation witness.

`certify(q, relations, N)` refuses relations outside r^2, runs the test once
and returns the span at bound N+1, whose methods answer every question about
(R) at N and whose columns every other span of such a question reads; with
N omitted it searches N on one span grown level by level (`TruncatedIdealSpan`).
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import astuple, dataclass
from fractions import Fraction
from math import lcm

from .algebra import PathElement, format_element
from .dg import (
    Relation,
    _check_relations,
    ginzburg_from_relations,
    relation_dg_algebra,
    reverse_arrow_name,
)
from .homology import _dims_from_complex, build_truncated, h0_presentation
from .linalg import RowSpace, as_rational
from .quiver import GradedQuiver

DEFAULT_MAX_N = 12  # the bound search's cap when the caller names none


class NotAdmissibleError(ValueError):
    """No admissibility bound could be certified within the search cap."""


def _require_r2(relations: list[Relation]) -> list[Relation]:
    """The relations, already checked (`_check_relations`); ValueError
    names those with a term of length < 2, which violate R <= r^2."""
    bad = [r.label for r in relations if not r.body.is_zero() and r.body.min_length() < 2]
    if bad:
        raise ValueError(f"relations not inside r^2: {bad}")
    return relations


def _integer_terms(body: PathElement) -> list[tuple[tuple[str, ...], int]]:
    """The body's terms as (arrow tuple, int) by length, times the lcm of their denominators."""
    terms = sorted(body.terms.items(), key=lambda t: len(t[0]))
    s = lcm(*(c.denominator for _, c in terms))
    return [(p.arrows, c.numerator * (s // c.denominator)) for p, c in terms]


class TruncatedIdealSpan:
    """Row space of the two-sided ideal (R) cut to paths of length < bound.

    Rows are the truncations of u * rho * v over the relations rho and the
    path pairs (u, v); when r^bound <= (R), their span is (R) restricted to
    the paths of length < bound.  The relations are checked with
    `_check_relations` (ValueError).  `index`, the level offsets and shift
    maps belong to the quiver (`GradedQuiver._frame`), by length, then arrow
    names; the span reads those of length < bound, another span longer ones.

    Write S_k for the span of the products u rho v cut to length <= k (0 for
    k < 0), X_k = sum_a a S_{k-1} over the arrows a, and F_k for the rows
    that raised S_k's rank over X_k (`_fresh`, each with the vertex it ends
    at), so S_k = X_k + span F_k.  By cut_{<=k}(a x) = a cut_{<=k-1}(x) the
    cut products with u nontrivial span X_k.  p -> a p on the paths from t(a)
    keeps the column order, distinct arrows have disjoint images and each
    pivot row of S runs from one vertex (a row from s meets only pivot rows
    led from s), so the images of the pivot rows of S_{k-1} from t(a) are an
    echelon basis of X_k, taken on uneliminated (`RowSpace.take_on`).
    I r + r I cut to length <= k is X_k + F_{k-1} B, B the arrows, f b read
    through p -> p b.  By the mirror cut_{<=k}(x b) = cut_{<=k-1}(x) b,
    S_{k-2} b <= S_{k-1}, so X_{k-1} b <= X_k.  The cut rho v' b span
    T_{k-1} B, T_{k-1} <= S_{k-1} the span of the cut rho v', and T_{k-1} b
    <= X_k + F_{k-1} b.  Conversely F_{k-1} b <= S_{k-1} b, which is I r
    cut.  S_k is that boundary plus the cut relations; the added rows that
    raise the rank over X_k are F_k.  `RowSpace` answers depend on the span
    alone, not on F, and the chain not on the bound: the search grows one span.

    The exact chain (`_grow(exact=True)`, read by `generates_arrow_power`)
    reads "fits" for "cut": E_k is the span of the products u rho v whose
    every term has length <= k, and E_k = X_k + F_{k-1} B + span{rho with
    every term of length <= k}, X_k and F_k read with E for S.  The proof
    carries over, as E_{k-2} b <= E_{k-1}.  No relation has a term of length
    0, so the span at bound 1 is 0 in both chains.

    The methods read N = bound - 1.  They answer for (R) exactly on a span
    returned by `certify`, whose rows hold every path of length N, and only
    for the truncation on any other span.
    """

    def __init__(self, quiver: GradedQuiver, relations, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.quiver = quiver
        self.relations = _check_relations(quiver, relations)
        self._bodies = [_integer_terms(r.body) for r in self.relations]
        self.index = quiver._frame.index  # shared by every span of the quiver
        self.space, self._fresh = RowSpace(), []  # S_k and the rows that raised its rank
        self.bound = 0
        while self.bound < bound:
            self._grow()

    def _grow(self, *, exact: bool = False) -> None:
        """Grow to bound + 1, k = bound: X_k, then F_{k-1} B, the boundary, the cut
        relations, and the rows that raised the rank as F_k; past the walk's end, none.
        With `exact`, a relation enters only once every term fits (the exact chain)."""
        self.bound += 1
        frame = self.quiver._frame
        if not frame.reaches(self.bound - 1):
            return
        space = RowSpace()
        for left_image, _ in frame.shifts.values():
            space.take_on(self.space, left_image)
        shifted = [(b.target, {frame.shifts[b.name][1][c]: v for c, v in f.items()})
                   for t, f in self._fresh for b in self.quiver._out[t]]
        fresh = [(t, row) for t, row in shifted if space.add(row)]
        self._boundary_space = copy(space)
        for rel, terms in zip(self.relations, self._bodies):
            row = {self.index[w]: c for w, c in terms if len(w) < self.bound}
            if row and (not exact or len(row) == len(terms)) and space.add(row):
                fresh.append((rel.target, row))
        self.space, self._fresh = space, fresh

    def _vector(self, x: PathElement) -> dict[int, Fraction]:
        x = x.rebind(self.quiver)  # an arrow the quiver lacks raises here, not as a bound
        return {self.index[p.key]: c for p, c in x.terms.items()}

    @property
    def rank(self) -> int:
        return self.space.rank

    def contains(self, x: PathElement) -> bool:
        """Whether x lies in (R), exact for x of length <= N on a certified
        span as r^N <= (R); x of length >= bound raises ValueError."""
        ml = x.max_length()
        if ml is not None and ml >= self.bound:
            raise ValueError(f"element of length {ml} tested against bound {self.bound}; "
                             "raise the bound")
        return self.space.contains(self._vector(x))

    def dim(self) -> int:
        """dim KQ/(R) as (#paths of length < N) - rank of the span at bound N;
        the paths of length N add as many columns as rank here."""
        return self.quiver._frame.columns(self.bound) - self.rank

    def minimal_system(self) -> list[Relation]:
        """A subset of the relations generating the same ideal, from which no
        single entry can be dropped.

        Zero entries are removed first (they never help generate); then entries
        are dropped greedily in input order.  rho_k is dropped when the
        survivors C span I/(I r + r I) cut to length <= N (the recorded
        boundary plus C so cut has the span's rank) and generate r^N *exactly*
        (`generates_arrow_power`).  The first is necessary for (C) = I, as then
        rho_k lies in span C + I r + r I, which cut is the cut C plus the
        boundary.  Both suffice, on any span: r^N <= (C) <= I puts what a cut
        discards in r^{N+1} <= r I, so I <= (C) + I r + r I, and put into
        itself N times, I <= (C) + r^N = (C).  The rank test alone does not: a
        proper subideal can span the same quotient (the quaternion-type ideal
        is the standard trap).  Where `generates_arrow_power` holds, C keeping
        the truncated span is also equivalent to (C) = I, so testing that
        instead drops the same entries.

        The exact-generation search allows expressions of term length up to
        N plus the longest relation term: a product u * rho * v with a term of
        length N has |u| + |v| < N, so every term of it fits.  Input order is
        fixed for determinism; other orders may give different, equally valid
        minimal systems.
        """
        n = self.bound - 1
        max_expr_len = n + max((r.body.max_length() or 1 for r in self.relations), default=1)
        # zero entries span nothing; the others lie in I, so each is cut once
        current = [
            (r, {self.index[w]: c for w, c in terms if len(w) <= n})
            for r, terms in zip(self.relations, self._bodies)
            if terms
        ]
        for entry in current.copy():
            candidate = [e for e in current if e is not entry]
            if self._fills_boundary_quotient(row for _, row in candidate) and generates_arrow_power(
                self.quiver, [r for r, _ in candidate], n, max_expr_len
            ):
                current = candidate
        return [r for r, _ in current]

    def _fills_boundary_quotient(self, rows) -> bool:
        """Whether the rows, which must lie in the span, and the recorded
        boundary I r + r I span it; a copy of the boundary grows."""
        boundary = copy(self._boundary_space)
        for row in rows:
            boundary.add(row)
        return boundary.rank == self.rank

    def ext2(self) -> int:
        """dim Ext^2 of the semisimple module over KQ/(R), which equals
        dim I/(I r + r I): the rank less the recorded boundary rank."""
        return self.rank - self._boundary_space.rank

    def boundary_image_vanishes(self, x: PathElement) -> bool:
        """Whether x in I maps to zero in I/(I r + r I).  x is cut to length
        <= N first: on a certified span the tail lies in r^{N+1} <= r I."""
        x = x.rebind(self.quiver).truncate(self.bound - 1)
        if not self.contains(x):
            raise ValueError("element does not lie in the ideal")
        return self._boundary_space.contains(self._vector(x))

    def spans_boundary_quotient(self, candidate) -> bool:
        """Whether the images of the candidate relations span I/(I r + r I);
        each candidate body, cut to length <= N as in `boundary_image_vanishes`,
        must lie in (R) (checked through `contains`)."""
        rows = []
        for r in candidate:
            body = r.body.rebind(self.quiver).truncate(self.bound - 1)
            if not self.contains(body):
                raise ValueError(f"candidate {r.label!r} is not in the ideal")
            rows.append(self._vector(body))
        return self._fills_boundary_quotient(rows)


def bound_is_valid(span: TruncatedIdealSpan) -> bool:
    """Operational admissibility test at n = bound - 1, asked by the bound
    search and `certify`: every path of length n lies in the span (`_holds_level`)."""
    return _holds_level(span, span.bound - 1)


def _holds_level(span: TruncatedIdealSpan, n: int) -> bool:
    """Whether every path of length n (none past the walk's end) lies in the span.
    Each column of level n must be a pivot, as a path in the span is led at
    its own column (`RowSpace`).  On the top level, n = bound - 1, that
    suffices: columns come by length, so a pivot row led there lies in the
    level, and all of them span it.  Below it, each path is eliminated."""
    start, stop = span.quiver._frame.columns(n), span.quiver._frame.columns(n + 1)
    pivots = span.space.pivot_columns()
    if bisect_left(pivots, stop) - bisect_left(pivots, start) != stop - start:
        return False
    return n == span.bound - 1 or all(span.space.contains({i: 1}) for i in range(start, stop))


def find_admissibility_bound(q: GradedQuiver, relations, max_n: int = DEFAULT_MAX_N) -> int | None:
    """Smallest n <= max_n passing the operational test (`certify` with n
    omitted), or None; precondition failures raise."""
    try:
        return certify(q, relations, max_n=max_n).bound - 1
    except NotAdmissibleError:
        return None


def certify(
    q: GradedQuiver, relations, n: int | None = None, *, max_n: int = DEFAULT_MAX_N
) -> TruncatedIdealSpan:
    """The ideal span at bound n + 1, once the relations are checked against
    q and inside r^2 (ValueError otherwise) and n passes `bound_is_valid`
    (NotAdmissibleError otherwise); every ideal question at n reads it.

    With n omitted, the searched span: one span grows from bound 3 until its
    n passes, n <= max_n.  Past the walk's end no path has length n, so an
    acyclic quiver stops at max(2, number of walk levels).  Bad relations and
    max_n < 2 raise ValueError before any span is built.
    """
    if n is None:
        relations = _require_r2(_check_relations(q, relations))
        if max_n < 2:
            raise ValueError("max_n must be >= 2")
        span = TruncatedIdealSpan(q, relations, 3)
        while not bound_is_valid(span):
            if span.bound > max_n:
                raise NotAdmissibleError(f"no admissibility bound up to {max_n}")
            span._grow()
        return span
    span = TruncatedIdealSpan(q, relations, max(n, 1) + 1)  # checks relations
    _require_r2(span.relations)
    if n >= 2 and bound_is_valid(span):
        return span
    raise NotAdmissibleError(f"{n} is not a valid admissibility bound")


def generates_arrow_power(q: GradedQuiver, relations, n: int, max_expr_len: int) -> bool:
    """Sound certificate that r^n <= (R): every path of length n must be an
    *exact* combination of products u * rho * v whose every term fits in
    length <= max_expr_len.  No truncation is involved, so a True answer is
    a proof; a False answer may just mean max_expr_len was too small.  n = 0
    asks about the trivial paths, and n < 0 raises ValueError.

    The exact chain E_k (`TruncatedIdealSpan`) grows from k = n and stops at
    the first k whose E_k holds every path of length n (`_holds_level`):
    E_k <= E_max_expr_len, so stopping early gives the answer at max_expr_len.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_expr_len < n:
        raise ValueError("max_expr_len must be at least n")
    span = TruncatedIdealSpan(q, relations, 1)  # checks the relations
    while span.bound <= n or not _holds_level(span, n):
        if span.bound > max_expr_len:
            return False
        span._grow(exact=True)
    return True


def algebra_dim(q: GradedQuiver, relations, n: int) -> int:
    """dim KQ/(R) at bound n (`TruncatedIdealSpan.dim`)."""
    return certify(q, relations, n).dim()


def system_of_relations(q: GradedQuiver, relations, n: int) -> list[Relation]:
    """A minimal system of the relations at bound n (`TruncatedIdealSpan.minimal_system`)."""
    return certify(q, relations, n).minimal_system()


def ext2_dim(q: GradedQuiver, relations, n: int) -> int:
    """dim Ext^2 of the semisimple module at bound n (`TruncatedIdealSpan.ext2`)."""
    return certify(q, relations, n).ext2()


# ---------- representation witnesses ----------


def evaluate_in_representation(q: GradedQuiver, dims, matrices, x: PathElement):
    """Evaluate x in a representation assigning dims[v] to each vertex and a
    dims[s] x dims[t] matrix to each arrow (paths compose left to right).

    Only makes sense for x with uniform source and target; returns the
    resulting matrix, rows indexed by the source space.  A vertex without a
    dimension, a dimension that is not an int >= 0, or an arrow of x without
    a matrix raises ValueError.
    """
    def dim(v: str) -> int:
        if v not in dims:
            raise ValueError(f"no dimension given for vertex {v!r}")
        if type(dims[v]) is not int or dims[v] < 0:
            raise ValueError(f"dimension of vertex {v!r} is not an int >= 0: {dims[v]!r}")
        return dims[v]

    mats = {}
    for name, mat in matrices.items():
        a = q.arrow(name)
        rows, cols = dim(a.source), dim(a.target)
        mat = [[as_rational(v) for v in row] for row in mat]
        if len(mat) != rows or any(len(row) != cols for row in mat):
            raise ValueError(f"matrix for {name!r} is not {rows} x {cols}")
        mats[name] = mat, cols
    x = x.rebind(q)
    sources = {q.source_of(p) for p in x.terms}
    targets = {q.target_of(p) for p in x.terms}
    if len(sources) > 1 or len(targets) > 1:
        raise ValueError("element must have uniform source and target")
    if not x.terms:
        raise ValueError("cannot size the evaluation of the zero element")
    missing = sorted({name for p in x.terms for name in p.arrows} - mats.keys())
    if missing:
        raise ValueError(f"no matrix given for arrow {missing[0]!r}")
    src, tgt = dim(sources.pop()), dim(targets.pop())
    total = [[Fraction(0)] * tgt for _ in range(src)]
    for p, c in x.terms.items():
        acc = [[Fraction(i == j) for j in range(src)] for i in range(src)]
        for name in p.arrows:  # widths from dims: a source of dimension 0 leaves no rows
            mat, cols = mats[name]
            acc = [[sum((v * row[j] for v, row in zip(r, mat)), Fraction(0))
                    for j in range(cols)] for r in acc]
        total = [[t + c * v for t, v in zip(out, r)] for out, r in zip(total, acc)]
    return total


def certifies_non_membership(q: GradedQuiver, relations, dims, matrices, x: PathElement) -> bool:
    """True when the representation kills every relation but not x, which
    certifies x not in (R) without any admissibility assumption."""
    for r in relations:
        if r.body.is_zero():
            continue
        val = evaluate_in_representation(q, dims, matrices, r.body)
        if any(any(v for v in row) for row in val):
            return False  # witness does not factor through the quotient
    # 0 lies in every ideal, and its evaluation has no size
    return not x.is_zero() and any(map(any, evaluate_in_representation(q, dims, matrices, x)))


# ---------- the m = 2 split extension ----------


def split_extension_check(q: GradedQuiver, relations, n: int) -> str | None:
    """Mechanical verification that H^0 of the Ginzburg dg-algebra at m = 2
    is a split extension of A = KQ/(R).  The proof uses no admissibility, so
    n is not read; only the relations are checked (`_check_relations`).

    H^0 = KQ'/J, where Q' is Q with a reversed arrow added per relation and J
    is generated by the degree-0 presentation relations (`h0_presentation`).
    Two conditions are checked: (i) every nonzero input relation reappears
    among the generators of J; (ii) every other generator has all its terms
    through the reversed arrows.  They prove the split extension.  By (i) the
    inclusion i: KQ -> KQ' sends (R) into J.  By (ii) the algebra map
    p: KQ' -> KQ that kills the reversed arrows sends every generator of J
    into (R) or to 0, so p(J) <= (R).  Both maps descend to the quotients,
    and p(i(x)) = x on KQ gives the same on A, which is the splitting,
    whether or not J is admissible.  Returns None on success or a
    description of the first failure.
    """
    relations = _check_relations(q, relations)
    gamma = ginzburg_from_relations(q, relations, 2)
    big, h0_rels = h0_presentation(gamma)
    eps_names = {reverse_arrow_name(r.label) for r in relations}

    # (i) the input relations are among the presentation relations
    want = {format_element(r.body.rebind(big)) for r in relations if not r.body.is_zero()}
    have = {format_element(rel) for rel in h0_rels}
    missing = want - have
    if missing:
        return f"input relations missing from the degree-0 presentation: {sorted(missing)}"

    # (ii) every extra relation lies in the ideal generated by the new arrows
    extra = [rel for rel in h0_rels if format_element(rel) not in want]
    for rel in extra:
        if not all(eps_names & set(p.arrows) for p in rel.terms):
            return f"extra relation {format_element(rel)} has a term with no reversed arrow"
    return None


# ---------- the vanishing check, m > 2 ----------


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
    q: GradedQuiver, relations, m: int, max_len: int, span: TruncatedIdealSpan | None
) -> VosnexVerdict:
    """Evaluate the four equivalent conditions for the vanishing of the small
    negative homology of the Ginzburg dg-algebra of (q, relations, m).

    span is the caller's certified span (`certify`), None when there is none.
    Preconditions, in this order, each raising with its own message: m > 2;
    every relation body inside r^2; a span of this quiver and relations;
    KQ/(relations) finite-dimensional, which span = None cannot certify, nor
    a span that fails `certify`'s test.
    The homology is read at max_len alone, no L+1 pass.
    """
    if m <= 2:
        raise ValueError("m > 2 required")
    relations = _require_r2(_check_relations(q, relations))
    if span is not None and (span.quiver != q or span.relations != relations):
        raise ValueError("the span was certified for another quiver or other relations")
    if span is None or span.bound < 3 or not bound_is_valid(span):  # `certify`'s test
        raise NotAdmissibleError("could not certify the quotient algebra finite-dimensional")
    # read off the relation dg-algebra itself: concentrated in degree 0 when
    # it has no arrow of nonzero degree, finite-dimensional when acyclic
    b = relation_dg_algebra(q, relations).quiver
    gamma = ginzburg_from_relations(q, relations, m)
    dims = list(_dims_from_complex(build_truncated(gamma, max_len, range(1 - m, 1)), m - 1))
    return VosnexVerdict(
        acyclic_and_no_relations=q.is_acyclic() and not relations,
        degree_zero_finite=all(a.degree == 0 for a in b.arrows) and b.is_acyclic(),
        small_negative_vanishing=all(dims[i] == 0 for i in range(1, m - 1)),
        top_small_negative_zero=dims[m - 2] == 0,
    )
