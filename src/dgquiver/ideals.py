"""Admissible ideals of path algebras through truncated linear algebra.

An ideal generated by relations is *admissible with bound N* when
r^N <= (R) <= r^2, r being the arrow ideal.  Under that bound every question
about (R) asked of elements supported in length < N reduces to finite linear
algebra: the span of the truncations of u*rho*v to length < N equals
(R) intersected with the paths of length < N, because any discarded tail
lies in r^N and hence in the ideal.  No Groebner machinery is used or
needed.  The rows u*rho*v are built in integers on the arrow tuples of
the path walk (see `_two_sided_products`); a column is a path key, and the
paths of length n take the columns of walk level n.

The bound search is the operational test "every path of length N lies in
the truncated span at bound N+1".  A function given N runs it once per call
(`_require_bound`), and every other span of that call reads the columns of
the certified span it returns.  For genuinely admissible ideals this finds a
correct bound; for pathological non-admissible inputs (already a single
loop with the relation a^2 - a^3) the test can report a bound that
certifies nothing, which is why operations requiring admissibility refuse
to run without a bound and why non-membership can alternatively be
certified through a representation witness, which needs no bound at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import PathElement, format_element
from .dg import Relation, _check_relations
from .linalg import RowSpace, SparseMatrix, as_rational
from .quiver import GradedQuiver, Path, _key, _path_of


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
    q: GradedQuiver, relations, levels, index, max_len: int, *, truncate: bool,
    boundary_only: bool = False,
):
    """Yield u * rho * v as an integer row {index[word]: coefficient} for each
    relation rho and each pair (u, v) of paths in the levels of `q._walk`
    with u ending where rho starts and v starting where rho ends, both read
    off the walk tuples.  `index` maps path keys (`Path.key`) to columns; a
    product has positive length, so its key is its word.

    Each body is read once as (arrow tuple, int) terms by ascending length,
    scaled by the lcm of its denominators, which leaves the span unchanged.
    For fixed u and v distinct terms t give distinct words u t v, so a row
    needs no accumulation.  With `truncate`, a product is kept when its
    shortest term has length <= max_len and is cut to length <= max_len (the
    scan over the terms stops at the first longer one); otherwise every term
    must fit and nothing is cut.  `boundary_only` skips the pairs with both u
    and v trivial.  The order is fixed by `relations` and the walk.  The
    relations must pass `validate_relations` over q.  As the levels come by
    length, the loops stop at the first u, and the first v for a given u,
    that leaves no room.
    """
    by_target: dict[str, list[tuple]] = {v: [] for v in q.vertices}
    by_source: dict[str, list[tuple]] = {v: [] for v in q.vertices}
    for level in levels:
        for arrows, source, target, _ in level:
            by_target[target].append(arrows)
            by_source[source].append(arrows)
    for rel in relations:
        terms = sorted(rel.body.terms.items(), key=lambda t: len(t[0]))
        if not terms:
            continue  # zero relation spans nothing
        s = lcm(*(c.denominator for _, c in terms))
        terms = [(p.arrows, c.numerator * (s // c.denominator)) for p, c in terms]
        room = max_len - len(terms[0 if truncate else -1][0])
        for u in by_target[rel.source]:
            if len(u) > room:
                break
            for v in by_source[rel.target]:
                if len(u) + len(v) > room:
                    break
                if boundary_only and not (u or v):
                    continue
                cap = max_len - len(u) - len(v)
                row = {}
                for t, c in terms:
                    if len(t) > cap:
                        break
                    row[index[u + t + v]] = c
                yield row


def _span(q: GradedQuiver, relations, max_len: int, *, truncate: bool):
    """(levels, index, space): the levels of `q._walk(max_len)`, the column of
    each path key in walk order and the span of `_two_sided_products`."""
    levels = list(q._walk(max_len))
    index = {_key(a, s): i for i, (a, s, _, _) in enumerate(t for level in levels for t in level)}
    space = RowSpace(_two_sided_products(q, relations, levels, index, max_len, truncate=truncate))
    return levels, index, space


def _holds_length(space: RowSpace, levels, n: int) -> bool:
    """Whether every path of length n lies in the span, the walk levels
    taking the columns in turn (none of length n past where the walk stopped)."""
    start = sum(map(len, levels[:n]))
    stop = start + sum(map(len, levels[n:n + 1]))
    return all(space.contains({i: 1}) for i in range(start, stop))


class TruncatedIdealSpan:
    """Row space of the two-sided ideal (R) cut to paths of length < bound.

    Rows are the length-truncations of u * rho * v over all generator
    relations rho and all path pairs (u, v); when r^bound <= (R), the row
    span equals (R) restricted to the paths of length < bound.  The
    relations are checked with `validate_relations`; an invalid one raises
    ValueError.  `paths` holds the column keys (`Path.key`) in walk order, by
    length and then by arrow names, and `index` maps each key to its column;
    `_levels` keeps the walk, so that other spans can share the columns.
    """

    def __init__(self, quiver: GradedQuiver, relations, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self.quiver = quiver
        self.relations = relations = _check_relations(quiver, relations)
        self.bound = bound
        self._levels, self.index, self.space = _span(quiver, relations, bound - 1, truncate=True)
        self.paths = list(self.index)

    def _vector(self, x: PathElement) -> dict[int, Fraction]:
        try:
            return {self.index[p.key]: c for p, c in x.terms.items()}
        except KeyError:
            raise ValueError("element supported beyond the bound") from None

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
        return PathElement(self.quiver, {_path_of(self.paths[i]): c for i, c in res.items()})

    def complement_basis(self) -> list[Path]:
        """Paths whose classes form a basis of the quotient by the span."""
        pivots = set(self.space.pivot_columns())
        return [_path_of(key) for i, key in enumerate(self.paths) if i not in pivots]


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
    if n < 2:
        _check_relations(q, relations)
    else:
        span = TruncatedIdealSpan(q, relations, n + 1)  # checks relations
        if _holds_length(span.space, span._levels, n):
            return span
    raise NotAdmissibleError(f"{n} is not a valid admissibility bound")


def generates_arrow_power(q: GradedQuiver, relations, n: int, max_expr_len: int) -> bool:
    """Sound certificate that r^n <= (R): every path of length n must be an
    *exact* combination of products u * rho * v whose every term fits in
    length <= max_expr_len.  No truncation is involved, so a True answer is
    a proof; a False answer may just mean max_expr_len was too small.  n = 0
    asks about the trivial paths, and n < 0 raises ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_expr_len < n:
        raise ValueError("max_expr_len must be at least n")
    relations = _check_relations(q, relations)
    levels, _, space = _span(q, relations, max_expr_len, truncate=False)
    return _holds_length(space, levels, n)


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


def system_of_relations(q: GradedQuiver, relations, n: int) -> list[Relation]:
    """A subset of the input generating the same ideal, from which no single
    entry can be dropped.

    Zero entries are removed first (they never help generate); then entries
    are dropped greedily in input order.  A removal needs two facts about
    the survivors: the truncated span keeps its rank, and r^n is *exactly*
    generated (`generates_arrow_power`).  Together these prove the ideal is
    unchanged; rank alone does not, because a proper subideal can have the
    same truncated span (the quaternion-type ideal is the standard trap).

    The exact-generation search allows expressions of term length up to
    n plus the longest relation term: a product u * rho * v with a term of
    length n has |u| + |v| < n, so every term of it fits.  Input order is
    fixed for determinism; other orders may give different, equally valid
    minimal systems.
    """
    span = _require_bound(q, relations, n)
    relations = span.relations
    max_expr_len = n + max((r.body.max_length() or 1 for r in relations), default=1)
    # zero entries span nothing; a candidate's span at bound n is built on the
    # certified span's columns of length < n, which come first (`_require_bound`)
    current = [r for r in relations if not r.body.is_zero()]
    rank_n = span.rank - sum(map(len, span._levels[n:]))
    k = 0
    while k < len(current):
        candidate = current[:k] + current[k + 1:]
        rows = _two_sided_products(q, candidate, span._levels, span.index, n - 1, truncate=True)
        if RowSpace(rows).rank == rank_n and generates_arrow_power(q, candidate, n, max_expr_len):
            current = candidate
        else:
            k += 1
    return current


def _boundary_spans(q: GradedQuiver, relations, n: int):
    """The certified span of I = (R) at bound n + 1 and, as a `RowSpace` on
    its columns, the span of I r + r I at the same bound.

    I r + r I is spanned by the products u * rho * v with at least one of
    u, v of positive length; tails beyond the bound lie in r^{n+1}, which is
    already inside I r + r I.
    """
    full = _require_bound(q, relations, n)
    rows = _two_sided_products(
        q, full.relations, full._levels, full.index, n, truncate=True, boundary_only=True
    )
    return full, RowSpace(rows)


def boundary_image_vanishes(q: GradedQuiver, relations, n: int, x: PathElement) -> bool:
    """Whether x in I maps to zero in I/(I r + r I)."""
    full, boundary = _boundary_spans(q, relations, n)
    if not full.contains(x.rebind(q)):
        raise ValueError("element does not lie in the ideal")
    return boundary.contains(full._vector(x.rebind(q)))


def spans_boundary_quotient(q: GradedQuiver, relations, candidate, n: int) -> bool:
    """Whether the images of the candidate relations span I/(I r + r I).

    Each candidate body must lie in (R) (checked through the truncated span).
    """
    full, boundary = _boundary_spans(q, relations, n)
    # the boundary span plus the candidate images must fill the ideal span
    for r in candidate:
        body = r.body.rebind(q)
        if not full.contains(body):
            raise ValueError(f"candidate {r.label!r} is not in the ideal")
        boundary.add(full._vector(body))
    return boundary.rank == full.rank


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
    resulting matrix, rows indexed by the source space.  A vertex without a
    dimension or an arrow of x without a matrix raises ValueError.
    """
    def dim(v: str) -> int:
        if v not in dims:
            raise ValueError(f"no dimension given for vertex {v!r}")
        return dims[v]

    mats = {}
    for name, mat in matrices.items():
        a = q.arrow(name)
        rows, cols = dim(a.source), dim(a.target)
        mat = [[as_rational(v) for v in row] for row in mat]
        if len(mat) != rows or any(len(row) != cols for row in mat):
            raise ValueError(f"matrix for {name!r} is not {rows} x {cols}")
        mats[name] = SparseMatrix(
            rows, cols, {(i, j): v for i, row in enumerate(mat) for j, v in enumerate(row)}
        )
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
    unit = SparseMatrix(src, src, {(i, i): 1 for i in range(src)})
    total: dict[tuple[int, int], Fraction] = {}
    for p, c in x.terms.items():
        acc = unit
        for name in p.arrows:
            acc = acc.matmul(mats[name])
        for ij, v in acc.entries.items():
            total[ij] = total.get(ij, 0) + c * v
    return [[total.get((i, j), Fraction(0)) for j in range(tgt)] for i in range(src)]


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


def split_extension_check(q: GradedQuiver, relations, n: int) -> str | None:
    """Mechanical verification that H^0 of the Ginzburg dg-algebra at m = 2
    is a split extension of A = KQ/(R); n must be a valid admissibility
    bound for (R) (`_require_bound`).

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
        if not all(eps_names & set(p.arrows) for p in rel.terms):
            return f"extra relation {format_element(rel)} has a term with no reversed arrow"
    return None
