"""Admissible ideals of path algebras through truncated linear algebra.

An ideal generated by relations is *admissible with bound N* when
r^N <= (R) <= r^2, r being the arrow ideal.  Under that bound every question
about (R) asked of elements supported in length < N reduces to finite linear
algebra: the span of the truncations of u*rho*v to length < N equals
(R) intersected with the paths of length < N, because any discarded tail
lies in r^N and hence in the ideal.  No Groebner machinery is used or
needed.

The bound search is the operational test "every path of length N lies in
the truncated span at bound N+1".  For genuinely admissible ideals this
finds a correct bound; for pathological non-admissible inputs (already a
single loop with the relation a^2 - a^3) the test can report a bound that
certifies nothing, which is why operations requiring admissibility refuse
to run without a bound and why non-membership can alternatively be
certified through a representation witness, which needs no bound at all.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PathElement, format_element
from .dg import Relation, _check_relations
from .linalg import RowSpace, SparseMatrix, as_rational
from .quiver import GradedQuiver, Path


class NotAdmissibleError(ValueError):
    """No admissibility bound could be certified within the search cap."""


def relations_in_r2(relations) -> list[str]:
    """Labels of relations with a term of length < 2 (violating R <= r^2)."""
    bad = []
    for r in relations:
        ml = r.body.min_length()
        if ml is not None and ml < 2:
            bad.append(r.label)
    return bad


def _two_sided_products(
    q: GradedQuiver, relations, paths, max_len: int, *, truncate: bool,
    boundary_only: bool = False,
):
    """Yield u * rho * v for each relation rho and each pair (u, v) of `paths`
    with u ending where rho starts and v starting where rho ends.

    With `truncate`, a product is kept when its shortest term has length
    <= max_len and is cut to length <= max_len; otherwise every term must
    fit and nothing is cut.  `boundary_only` skips the pairs with both u and
    v trivial.  The order is fixed by `relations` and `paths`.

    `paths` must be ordered by non-decreasing length (as `enumerate_paths`
    returns them): the loops stop at the first u, and the first v for a
    given u, that leaves no room.
    """
    by_target: dict[str, list[Path]] = {v: [] for v in q.vertices}
    by_source: dict[str, list[Path]] = {v: [] for v in q.vertices}
    for p in paths:
        by_target[q.target_of(p)].append(p)
        by_source[q.source_of(p)].append(p)
    for rel in relations:
        body = rel.body.rebind(q)
        ml = body.min_length() if truncate else body.max_length()
        if ml is None:
            continue  # zero relation spans nothing
        room = max_len - ml
        if room < 0:
            continue
        for u in by_target[rel.source]:
            if len(u) > room:
                break
            left = PathElement(q, {u: Fraction(1)}) * body
            for v in by_source[rel.target]:
                if len(u) + len(v) > room:
                    break
                if boundary_only and len(u) + len(v) == 0:
                    continue
                prod = left * PathElement(q, {v: Fraction(1)})
                yield prod.truncate(max_len) if truncate else prod


class TruncatedIdealSpan:
    """Row space of the two-sided ideal (R) cut to paths of length < bound.

    Rows are the length-truncations of u * rho * v over all generator
    relations rho and all path pairs (u, v); when r^bound <= (R), the row
    span equals (R) restricted to the paths of length < bound.
    """

    def __init__(self, quiver: GradedQuiver, relations, bound: int, *, boundary_only: bool = False):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.quiver = quiver
        self.relations = list(relations)
        self.bound = bound
        self.paths = quiver.enumerate_paths(bound - 1)
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.space = RowSpace()
        for prod in _two_sided_products(
            quiver, self.relations, self.paths, bound - 1,
            truncate=True, boundary_only=boundary_only,
        ):
            row = self._vector(prod)
            if row:
                self.space.add(row)

    def _vector(self, x: PathElement) -> dict[int, Fraction]:
        out = {}
        for p, c in x.terms.items():
            i = self.index.get(p)
            if i is None:
                raise ValueError("element supported beyond the bound")
            out[i] = c
        return out

    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def ambient_dim(self) -> int:
        return len(self.paths)

    def contains(self, x: PathElement) -> bool:
        ml = x.max_length()
        if ml is not None and ml >= self.bound:
            raise ValueError(
                f"element of length {ml} tested against bound {self.bound}; "
                f"raise the bound"
            )
        return self.space.contains(self._vector(x))

    def reduce(self, x: PathElement) -> PathElement:
        """Canonical normal form of x modulo the span."""
        res = self.space.reduce(self._vector(x.truncate(self.bound - 1)))
        return PathElement(self.quiver, {self.paths[i]: c for i, c in res.items()})

    def complement_basis(self) -> list[Path]:
        """Paths whose classes form a basis of the quotient by the span."""
        pivots = set(self.space.pivot_columns())
        return [p for i, p in enumerate(self.paths) if i not in pivots]


def bound_is_valid(q: GradedQuiver, relations, n: int) -> bool:
    """Operational admissibility test at n: every path of length exactly n
    lies in the ideal span truncated at bound n + 1."""
    try:
        _require_bound(q, relations, n)
    except NotAdmissibleError:
        return False
    return True


def find_admissibility_bound(q: GradedQuiver, relations, max_n: int = 12) -> int | None:
    """Smallest n <= max_n passing the operational test, or None.

    Requires every relation inside r^2; None distinguishes "nothing found up
    to the cap" from precondition failures, which raise.
    """
    relations = _check_relations(q, relations)
    bad = relations_in_r2(relations)
    if bad:
        raise ValueError(f"relations not inside r^2: {bad}")
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    for n in range(2, max_n + 1):
        if bound_is_valid(q, relations, n):
            return n
    return None


def _require_bound(q: GradedQuiver, relations, n: int) -> TruncatedIdealSpan:
    """The ideal span at bound n + 1, once the relations are checked against
    q and n passes the operational test.

    Its rows hold every path of length n, so it equals (R) restricted to the
    paths of length <= n, and cutting it to lengths < n gives the span at
    bound n with rank lower by the number of paths of length n.
    """
    relations = _check_relations(q, relations)
    if n >= 2:
        span = TruncatedIdealSpan(q, relations, n + 1)
        if all(
            span.contains(PathElement(q, {p: Fraction(1)}))
            for p in span.paths
            if len(p) == n
        ):
            return span
    raise NotAdmissibleError(f"{n} is not a valid admissibility bound")


def generates_arrow_power(q: GradedQuiver, relations, n: int, max_expr_len: int) -> bool:
    """Sound certificate that r^n <= (R): every path of length n must be an
    *exact* combination of products u * rho * v whose every term fits in
    length <= max_expr_len.  No truncation is involved, so a True answer is
    a proof; a False answer may just mean max_expr_len was too small.
    """
    if max_expr_len < n:
        raise ValueError("max_expr_len must be at least n")
    paths = q.enumerate_paths(max_expr_len)
    index = {p: i for i, p in enumerate(paths)}
    space = RowSpace()
    for prod in _two_sided_products(q, relations, paths, max_expr_len, truncate=False):
        space.add({index[p]: c for p, c in prod.terms.items()})
    for p in paths:
        if len(p) == n:
            if not space.contains({index[p]: Fraction(1)}):
                return False
    return True


def algebra_dim(q: GradedQuiver, relations, n: int) -> int:
    """dim KQ/(R) computed as (#paths of length < n) - rank of the span;
    the certified span at bound n + 1 gives the same difference."""
    span = _require_bound(q, relations, n)
    return span.ambient_dim - span.rank


def ideal_membership(q: GradedQuiver, relations, n: int, x: PathElement) -> bool:
    """Whether x lies in (R); x must be supported in length <= n and n must
    be a valid admissibility bound.  The answer is exact because r^n <= (R);
    longer elements raise ValueError."""
    return _require_bound(q, relations, n).contains(x.rebind(q))


def system_of_relations(
    q: GradedQuiver, relations, n: int, headroom: int | None = None
) -> list[Relation]:
    """A subset of the input generating the same ideal, from which no single
    entry can be dropped.

    Zero entries are removed first (they never help generate); then entries
    are dropped greedily in input order.  A removal needs two facts about
    the survivors: the truncated span keeps its rank, and r^n is *exactly*
    generated (`generates_arrow_power`).  Together these prove the ideal is
    unchanged; rank alone does not, because a proper subideal can have the
    same truncated span (the quaternion-type ideal is the standard trap).

    The exact-generation search allows expressions of term length up to
    n + headroom (headroom defaults to the longest relation term).  Input
    order is fixed for determinism; other orders may give different, equally
    valid minimal systems.
    """
    span = _require_bound(q, relations, n)
    relations = span.relations
    if headroom is None:
        headroom = max(
            (r.body.max_length() or 1 for r in relations), default=1
        )
    max_expr_len = n + headroom
    # zero entries span nothing, and the span at bound n is the certified
    # one without the paths of length n
    current = [r for r in relations if not r.body.is_zero()]
    full_rank = span.rank - sum(1 for p in span.paths if len(p) == n)
    k = 0
    while k < len(current):
        candidate = current[:k] + current[k + 1:]
        if (
            TruncatedIdealSpan(q, candidate, n).rank == full_rank
            and generates_arrow_power(q, candidate, n, max_expr_len)
        ):
            current = candidate
        else:
            k += 1
    return current


def _boundary_spans(q: GradedQuiver, relations, n: int):
    """The certified span of I = (R) at bound n + 1 and the span of
    I r + r I at the same bound.

    I r + r I is spanned by the products u * rho * v with at least one of
    u, v of positive length; tails beyond the bound lie in r^{n+1}, which is
    already inside I r + r I.
    """
    full = _require_bound(q, relations, n)
    boundary = TruncatedIdealSpan(q, full.relations, n + 1, boundary_only=True)
    return full, boundary


def boundary_image_vanishes(q: GradedQuiver, relations, n: int, x: PathElement) -> bool:
    """Whether x in I maps to zero in I/(I r + r I)."""
    full, boundary = _boundary_spans(q, relations, n)
    if not full.contains(x.rebind(q)):
        raise ValueError("element does not lie in the ideal")
    return boundary.contains(x.rebind(q))


def spans_boundary_quotient(q: GradedQuiver, relations, candidate, n: int) -> bool:
    """Whether the images of the candidate relations span I/(I r + r I).

    Each candidate body must lie in (R) (checked through the truncated span).
    """
    candidate = list(candidate)
    full, boundary = _boundary_spans(q, relations, n)
    for r in candidate:
        if not full.contains(r.body.rebind(q)):
            raise ValueError(f"candidate {r.label!r} is not in the ideal")
    space = RowSpace()
    # the boundary span plus the candidate images must fill the ideal span
    for row in boundary.space.rows():
        space.add(row)
    for r in candidate:
        if not r.body.is_zero():
            space.add(boundary._vector(r.body.rebind(q)))
    return space.rank == full.rank


def ext2_dim(q: GradedQuiver, relations, n: int) -> int:
    """dim Ext^2 of the semisimple module over KQ/(R), which equals
    dim I/(I r + r I); the latter is what is computed."""
    full, boundary = _boundary_spans(q, relations, n)
    return full.rank - boundary.rank


# ---------- representation witnesses ----------


def evaluate_in_representation(q: GradedQuiver, dims, matrices, x: PathElement):
    """Evaluate x in a representation assigning dims[v] to each vertex and a
    dims[s] x dims[t] matrix to each arrow (paths compose left to right).

    Only makes sense for x with uniform source and target; returns the
    resulting matrix, rows indexed by the source space.
    """
    mats = {}
    for name, mat in matrices.items():
        a = q.arrow(name)
        mat = [[as_rational(v) for v in row] for row in mat]
        if len(mat) != dims[a.source] or any(len(row) != dims[a.target] for row in mat):
            raise ValueError(
                f"matrix for {name!r} is not {dims[a.source]} x {dims[a.target]}"
            )
        mats[name] = SparseMatrix(
            dims[a.source], dims[a.target],
            {(i, j): v for i, row in enumerate(mat) for j, v in enumerate(row)},
        )
    x = x.rebind(q)
    sources = {q.source_of(p) for p in x.terms}
    targets = {q.target_of(p) for p in x.terms}
    if len(sources) > 1 or len(targets) > 1:
        raise ValueError("element must have uniform source and target")
    if not x.terms:
        raise ValueError("cannot size the evaluation of the zero element")
    src, tgt = sources.pop(), targets.pop()
    unit = SparseMatrix(dims[src], dims[src], {(i, i): 1 for i in range(dims[src])})
    total: dict[tuple[int, int], Fraction] = {}
    for p, c in x.terms.items():
        acc = unit
        for name in p.arrows:
            acc = acc.matmul(mats[name])
        for ij, v in acc.entries.items():
            total[ij] = total.get(ij, 0) + c * v
    return [
        [total.get((i, j), Fraction(0)) for j in range(dims[tgt])]
        for i in range(dims[src])
    ]


def certifies_non_membership(q: GradedQuiver, relations, dims, matrices, x: PathElement) -> bool:
    """True when the representation kills every relation but not x, which
    certifies x not in (R) without any admissibility assumption."""
    for r in relations:
        if r.body.is_zero():
            continue
        val = evaluate_in_representation(q, dims, matrices, r.body)
        if any(any(v for v in row) for row in val):
            return False  # witness does not factor through the quotient
    val = evaluate_in_representation(q, dims, matrices, x)
    return any(any(v for v in row) for row in val)


# ---------- the m = 2 split extension ----------


def split_extension_check(q: GradedQuiver, relations, n: int, search_cap: int = 12) -> str | None:
    """Mechanical verification that H^0 of the Ginzburg dg-algebra at m = 2
    is a split extension of KQ/(R).

    Three conditions are checked: (i) every input relation reappears among
    the H^0 relations through the inclusion; (ii) every other H^0 relation
    has all terms through the added reversed arrows, so the projection kills
    it; (iii) composing inclusion and projection fixes the normal form of
    every basis element of KQ/(R).  Returns None on success or a description
    of the first failure.  Raises NotAdmissibleError when the H^0 ideal
    admits no bound up to `search_cap` -- that can genuinely happen and is
    reported rather than guessed around.
    """
    from .dg import ginzburg_from_relations, reverse_arrow_name
    from .homology import h0_presentation

    relations = _require_bound(q, relations, n).relations
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
        for p in rel.terms:
            if not set(p.arrows) & eps_names:
                return (
                    f"extra relation {format_element(rel)} has a term with no "
                    f"reversed arrow"
                )

    # (iii) inclusion followed by projection is the identity on a basis
    h0_relations = [
        Relation(f"h0_{k}", big.source_of(next(iter(rel.terms))),
                 big.target_of(next(iter(rel.terms))), rel)
        for k, rel in enumerate(h0_rels)
        if not rel.is_zero()
    ]
    big_n = find_admissibility_bound(big, h0_relations, max_n=search_cap)
    if big_n is None:
        raise NotAdmissibleError(
            f"the degree-0 homology ideal admits no bound up to {search_cap}"
        )
    bound = max(n, big_n)
    small_span = TruncatedIdealSpan(q, relations, bound)
    big_span = TruncatedIdealSpan(big, h0_relations, bound)
    for p in small_span.complement_basis():
        x = PathElement(q, {p: Fraction(1)})
        lifted = x.rebind(big)
        nf_big = big_span.reduce(lifted)
        projected = PathElement(
            q,
            {
                pp: c
                for pp, c in nf_big.terms.items()
                if not set(pp.arrows) & eps_names
            },
        )
        back = small_span.reduce(projected)
        if back != small_span.reduce(x):
            return (
                f"basis path {format_element(x)} is not fixed by projection "
                f"after inclusion"
            )
    return None
