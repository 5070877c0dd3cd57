"""Dg path algebras built from quivers with relations or superpotentials.

Three constructions are provided.

* `relation_dg_algebra(Q, R)`: for each relation rho a new arrow of degree
  -1 from s(rho) to t(rho) whose differential is rho; the original arrows
  sit in degree 0 with zero differential.  H^0 of this dg-algebra is
  KQ/(R).
* `superpotential_extension(Q, R, m)`: for each relation a reversed arrow
  of degree 2-m, together with the superpotential that pairs each new
  arrow with its relation.
* `ginzburg_dg_algebra(Q, W, m)`: the Ginzburg dg-algebra of a graded
  quiver with homogeneous superpotential of degree 2-m.  The doubled
  quiver keeps the arrows of Q, adds a reversed dual of degree 1-m-|a| per
  arrow a, and a loop of degree -m per vertex whose differential is the
  sum of supercommutators [a, a*] projected to that vertex.

The differential extends to products as a degree +1 derivation with the
usual Koszul prefix sign by one kernel, `_d_path`, which `apply_d` and
`homology.build_truncated` share; `check_d_squared` verifies d^2 = 0 on
the generators rather than assuming it, which proves it on products.

`sub_dg_algebra` cuts out the sub-dg-algebra on a d-closed set of arrows.
`replace_arrow_isomorphism`, `relation_sub_dg_correspondence`,
`keller_comparison` and `sub_dg_completion` return their new data with an
arrow -> (sign, arrow) mapping; none checks it, the caller passes it to
`check_dg_isomorphism`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    PathElement,
    Superpotential,
    cyclic_derivative,
    cyclic_reduce,
    format_element,
    is_relation_body,
    supercommutator,
)
from .linalg import as_rational
from .quiver import Arrow, GradedQuiver, Path


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def dual_name(name: str) -> str:
    return name + "_star"


def loop_name(vertex: str) -> str:
    return "t_" + vertex


def relation_arrow_name(label: str) -> str:
    """Name of the degree -1 arrow attached to a relation."""
    return "eta_" + label


def reverse_arrow_name(label: str) -> str:
    """Name of the degree 2-m reversed arrow attached to a relation."""
    return "eps_" + label


def _dual_arrow(a: Arrow, m: int) -> Arrow:
    """The reversed dual of `a`, of degree 1-m-|a|."""
    return Arrow(dual_name(a.name), a.target, a.source, 1 - m - a.degree)


def _mesh(big: GradedQuiver, generators) -> dict[str, PathElement]:
    """Per vertex v, the sum over `generators` g of e_v [g, g*] e_v.

    Every term of [g, g*] is a cycle, because g* runs from t(g) back to
    s(g); so e_v x e_v keeps exactly the terms of x that start at v, and
    each term is filed under its start vertex.
    """
    mesh: dict[str, dict[Path, Fraction]] = {v: {} for v in big.vertices}
    for g in generators:
        x = PathElement.from_arrow(big, g.name)
        xs = PathElement.from_arrow(big, dual_name(g.name))
        for p, c in supercommutator(x, xs).terms.items():
            mesh[big.source_of(p)][p] = c
    return {v: PathElement(big, terms) for v, terms in mesh.items()}


@dataclass(frozen=True)
class Relation:
    """A labelled relation: an element of e_source * r * e_target.

    The body may be zero (zero entries still create arrows in the
    constructions); repetitions of the same body under different labels are
    allowed.
    """

    label: str
    source: str
    target: str
    body: PathElement


def _relation_problems(q: GradedQuiver, relations):
    """Yield (i, message) for each problem of relations[i]; a duplicate label
    is reported at its later occurrence."""
    seen = set()
    for i, r in enumerate(relations):
        if r.label in seen:
            yield i, f"duplicate relation label {r.label!r}"
        seen.add(r.label)
        for v in (r.source, r.target):
            if v not in q.vertices:
                yield i, f"relation {r.label!r} uses undeclared vertex {v!r}"
                break
        else:
            try:
                body = r.body.rebind(q)
            except (KeyError, ValueError) as exc:
                yield i, f"relation {r.label!r}: {exc}"
                continue
            for msg in is_relation_body(body, r.source, r.target):
                yield i, f"relation {r.label!r}: {msg}"


def validate_relations(q: GradedQuiver, relations) -> list[str]:
    return [msg for _, msg in _relation_problems(q, relations)]


def _check_relations(q: GradedQuiver, relations) -> list[Relation]:
    relations = list(relations)
    problems = validate_relations(q, relations)
    if problems:
        raise ValueError("; ".join(problems))
    return relations


def _require_degree_zero(q: GradedQuiver) -> None:
    bad = [a.name for a in q.arrows if a.degree != 0]
    if bad:
        raise ValueError(f"construction requires all arrows in degree 0, got {bad}")


class DgAlgebra:
    """A graded quiver together with a differential on its generators.

    The differential of each arrow must be homogeneous of degree |a| + 1
    with the same endpoints as a (checked here); d^2 = 0 is *not* assumed,
    use `check_d_squared`.  For `_d_path`, `_table` maps each arrow to its
    degree parity and d(a) as (arrow tuple, int or Fraction) by length.
    """

    __slots__ = ("quiver", "differential", "_table")

    def __init__(self, quiver: GradedQuiver, differential=None):
        self.quiver = quiver
        diff: dict[str, PathElement] = {}
        for a in quiver.arrows:
            dx = (differential or {}).get(a.name)
            if dx is None or dx.is_zero():
                diff[a.name] = PathElement.zero(quiver)
                continue
            dx = dx.rebind(quiver)
            deg = dx.degree()
            if deg != a.degree + 1:
                raise ValueError(
                    f"d({a.name}) has degree {deg}, expected {a.degree + 1}"
                )
            for p in dx.terms:
                if (quiver.source_of(p), quiver.target_of(p)) != (a.source, a.target):
                    raise ValueError(f"d({a.name}) does not respect endpoints")
            diff[a.name] = dx
        unknown = set((differential or {})) - {a.name for a in quiver.arrows}
        if unknown:
            raise ValueError(f"differential given for unknown arrows {sorted(unknown)}")
        self.differential = diff
        self._table = {}
        for a in quiver.arrows:
            terms = diff[a.name].terms.items()
            terms = [(p.arrows, c.numerator if c.denominator == 1 else c) for p, c in terms]
            self._table[a.name] = (a.degree % 2, sorted(terms, key=lambda t: len(t[0])))

    def d(self, arrow_name: str) -> PathElement:
        return self.differential[arrow_name]

    def arrow_names(self) -> list[str]:
        return [a.name for a in self.quiver.arrows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DgAlgebra)
            and self.quiver == other.quiver
            and self.differential == other.differential
        )

    def __repr__(self) -> str:
        return f"DgAlgebra({self.quiver!r})"


def _d_path(dg: DgAlgebra, arrows: tuple, max_len: int | None = None) -> dict:
    """d of the path `arrows` as {arrow tuple: coefficient}, by the Leibniz
    rule d(a_1...a_n) = sum_l (-1)^{|a_1|+...+|a_{l-1}|} a_1...d(a_l)...a_n.

    With `max_len`, no term longer than max_len is formed: replacing a_l by
    a term t gives a path of length n - 1 + len(t), and the terms of d(a_l)
    come by ascending length, so the scan of d(a_l) stops at the first
    term that is too long.  Values may be 0 where terms cancel.
    """
    room = math.inf if max_len is None else max_len - len(arrows) + 1
    out: dict = {}
    odd = 0
    for ell, name in enumerate(arrows):
        parity, terms = dg._table[name]
        if terms:
            pre, post = arrows[:ell], arrows[ell + 1:]
            for t, dc in terms:
                if len(t) > room:
                    break
                key, c = pre + t + post, -dc if odd else dc
                out[key] = out[key] + c if key in out else c
        odd ^= parity
    return out


def apply_d(dg: DgAlgebra, x: PathElement) -> PathElement:
    """The differential of x, extended as a degree +1 derivation (see
    `_d_path`)."""
    q = dg.quiver
    x = x.rebind(q) if x.quiver is not q else x
    out: dict[Path, Fraction] = {}
    for p, c in x.terms.items():
        for arrows, dc in _d_path(dg, p.arrows).items():
            np = Path(arrows=arrows) if arrows else q.trivial_path(q.source_of(p))
            out[np] = out.get(np, 0) + c * dc
    return PathElement(q, out)


# ---------- constructions ----------


def relation_dg_algebra(q: GradedQuiver, relations) -> DgAlgebra:
    """Adjoin one degree -1 arrow per relation, with the relation as its
    differential; input arrows must be in degree 0."""
    _require_degree_zero(q)
    relations = _check_relations(q, relations)
    extra = [
        Arrow(relation_arrow_name(r.label), r.source, r.target, -1) for r in relations
    ]
    big = q.with_extra_arrows(extra)
    diff = {
        relation_arrow_name(r.label): r.body.rebind(big) for r in relations
    }
    return DgAlgebra(big, diff)


def superpotential_extension(q: GradedQuiver, relations, m: int):
    """Adjoin one reversed arrow of degree 2-m per relation and pair it with
    the relation inside the superpotential.  Returns (quiver, superpotential);
    the superpotential is homogeneous of degree 2-m (zero if all bodies are).
    """
    if m < 2:
        raise ValueError("the construction needs m >= 2")
    _require_degree_zero(q)
    relations = _check_relations(q, relations)
    extra = [
        Arrow(reverse_arrow_name(r.label), r.target, r.source, 2 - m)
        for r in relations
    ]
    big = q.with_extra_arrows(extra)
    # each body term runs from r.source to r.target, so eps_r composes with it
    terms: dict[Path, Fraction] = {}
    for r in relations:
        eps = (reverse_arrow_name(r.label),)
        for p, c in r.body.terms.items():
            terms[Path(arrows=eps + p.arrows)] = c
    return big, cyclic_reduce(PathElement(big, terms))


def ginzburg_dg_algebra(q: GradedQuiver, w: Superpotential, m: int) -> DgAlgebra:
    """The Ginzburg dg-algebra of (q, w) with parameter m, in the standard
    sign convention: d(t_v) is the mesh element at v (`_mesh`); Keller's
    scales it by (-1)^{m-1} (`keller_comparison`).  `w` must be homogeneous
    of degree 2-m over q."""
    if w.quiver != q:
        raise ValueError("superpotential lives over a different quiver")
    if not w.matches_degree(2 - m):
        raise ValueError(f"superpotential degree {w.degree} != 2 - m = {2 - m}")
    loops = [Arrow(loop_name(v), v, v, -m) for v in q.vertices]
    big = q.with_extra_arrows([_dual_arrow(a, m) for a in q.arrows] + loops)

    diff: dict[str, PathElement] = {}
    for a in q.arrows:
        diff[dual_name(a.name)] = cyclic_derivative(w, a.name).rebind(big)
    mesh = _mesh(big, q.arrows)
    for v in q.vertices:
        diff[loop_name(v)] = mesh[v]
    return DgAlgebra(big, diff)


def ginzburg_from_relations(q: GradedQuiver, relations, m: int) -> DgAlgebra:
    """Ginzburg dg-algebra of the superpotential extension of (q, relations)."""
    big, w = superpotential_extension(q, relations, m)
    return ginzburg_dg_algebra(big, w, m)


# ---------- verification ----------


def check_d_squared(dg: DgAlgebra) -> PathElement | None:
    """Verify d(d(x)) = 0 for every x; returns the first arrow a, in declared
    order, with d(d(a)) != 0, or None.

    The generators decide it.  d is a degree +1 derivation and each d(a) is
    homogeneous of degree |a| + 1 (`DgAlgebra` checks this), so
    d^2(xy) = d^2(x) y + x d^2(y): the cross terms (-1)^|x| d(x) d(y) and
    (-1)^(|x|+1) d(x) d(y) cancel.  A derivation that kills every arrow
    kills every path, and by linearity every element.
    """
    q = dg.quiver
    for a in q.arrows:
        x = PathElement.from_arrow(q, a.name)
        if not apply_d(dg, apply_d(dg, x)).is_zero():
            return x
    return None


def replace_arrow_isomorphism(q: GradedQuiver, w: Superpotential, arrow: str, m: int):
    """Replace an arrow a: i -> j that no term of w contains by its reversed
    dual a* of degree 1-m-|a|, and witness that the Ginzburg dg-algebra of
    the data is unchanged.

    Returns (new_q, new_w, mapping), w untouched.  The mapping runs from
    `ginzburg_dg_algebra(new_q, new_w, m)` to `ginzburg_dg_algebra(q, w, m)`
    and is for the caller to pass to `check_dg_isomorphism`.  It fixes every
    untouched generator and sends a** back to a with the sign
    (-1)^{|a| m + 1}, which is what the loop differentials force: swapping
    the two slots of a supercommutator [x, y] costs -(-1)^{|x||y|}.

    For m >= 2 and degrees in [1-m, 0], replacing each arrow of degree 1-m
    in turn moves it to degree 0, so every degree lands in [2-m, 0].
    """
    a = q.arrow(arrow)
    if arrow in w.arrows_used():
        raise ValueError(f"arrow {arrow!r} occurs in the superpotential")
    replaced = tuple(_dual_arrow(a, m) if b.name == arrow else b for b in q.arrows)
    if len({b.name for b in replaced}) != len(replaced):
        raise ValueError(f"generated name {dual_name(arrow)!r} already in use")
    new_q = GradedQuiver(q.vertices, replaced)
    new_w = Superpotential(new_q, dict(w.terms), degree=w.degree)
    fixed = [n for b in q.arrows if b.name != arrow for n in (b.name, dual_name(b.name))]
    fixed += [dual_name(arrow)] + [loop_name(v) for v in q.vertices]
    mapping = {n: (1, n) for n in fixed}
    mapping[dual_name(dual_name(arrow))] = (_sign(a.degree * m + 1), arrow)
    return new_q, new_w, mapping


def sub_dg_algebra(dg: DgAlgebra, sub_arrows) -> DgAlgebra:
    """The sub-dg-algebra on a d-closed set of arrows.  An arrow that `dg`
    lacks raises KeyError; else the first chosen arrow, in sorted order,
    whose differential leaves the set raises ValueError."""
    small = dg.quiver.subquiver(sub_arrows)
    sub = {a.name for a in small.arrows}
    for name in sorted(sub):
        if not dg.d(name).arrows_used() <= sub:
            raise ValueError(f"d({name}) leaves the chosen arrows")
    return DgAlgebra(small, {a.name: dg.d(a.name).rebind(small) for a in small.arrows})


def map_element(mapping, x: PathElement, target: GradedQuiver) -> PathElement:
    """Extend an arrow -> (coefficient, arrow) assignment multiplicatively."""
    terms: dict[Path, Fraction] = {}
    for p, c in x.terms.items():
        names = []
        for n in p.arrows:
            cf, nn = mapping[n]
            c *= as_rational(cf)
            names.append(nn)
        if c:
            key = target.path(names) if names else target.trivial_path(p.base)
            terms[key] = terms.get(key, 0) + c
    return PathElement(target, terms)


def check_dg_isomorphism(mapping, dga: DgAlgebra, dgb: DgAlgebra) -> str | None:
    """Verify that arrow -> (sign, arrow) induces a dg-isomorphism A -> B.

    The assignment must be a degree-preserving, endpoint-compatible bijection
    on arrows up to nonzero scalars (violations raise).  Returns the first
    generator where f(d_A(a)) != d_B(f(a)), or None when the map commutes
    with the differentials.
    """
    qa, qb = dga.quiver, dgb.quiver
    if set(mapping) != {a.name for a in qa.arrows}:
        raise ValueError("mapping must assign every arrow of the source")
    images = [nn for _, nn in mapping.values()]
    if len(set(images)) != len(images) or set(images) != {a.name for a in qb.arrows}:
        raise ValueError("mapping is not a bijection on arrows")
    for name, (cf, nn) in mapping.items():
        if not as_rational(cf):
            raise ValueError(f"zero coefficient on {name!r}")
        a, b = qa.arrow(name), qb.arrow(nn)
        if a.degree != b.degree:
            raise ValueError(f"{name!r} -> {nn!r} changes degree")
        if (a.source, a.target) != (b.source, b.target):
            raise ValueError(f"{name!r} -> {nn!r} changes endpoints")
    for name in dga.arrow_names():
        cf, nn = mapping[name]
        lhs = map_element(mapping, dga.d(name), qb)
        rhs = as_rational(cf) * dgb.d(nn)
        if lhs != rhs:
            return name
    return None


def relation_sub_dg_correspondence(q: GradedQuiver, relations, m: int):
    """Inside the Ginzburg dg-algebra of (q, relations, m), the original
    arrows together with the duals of the reversed arrows form a d-closed
    subquiver; mapping each such dual to (-1)^m times the corresponding
    degree -1 arrow identifies that sub-dg-algebra with
    relation_dg_algebra(q, relations).

    Returns (sub_dg, relation_dg, mapping) ready for check_dg_isomorphism.
    """
    relations = list(relations)
    gamma = ginzburg_from_relations(q, relations, m)
    sub_names = [a.name for a in q.arrows] + [
        dual_name(reverse_arrow_name(r.label)) for r in relations
    ]
    sub = sub_dg_algebra(gamma, sub_names)
    b = relation_dg_algebra(q, relations)
    mapping = {a.name: (1, a.name) for a in q.arrows}
    for r in relations:
        mapping[dual_name(reverse_arrow_name(r.label))] = (
            _sign(m),
            relation_arrow_name(r.label),
        )
    return sub, b, mapping


def keller_comparison(q: GradedQuiver, w: Superpotential, m: int):
    """The standard Ginzburg dg-algebra, Keller's (arXiv:0908.3499), whose
    loop differentials d(t_v) carry a factor (-1)^{m-1}, and the witness
    isomorphism t_v -> (-1)^{m-1} t_v between them, fixing the other arrows."""
    std = ginzburg_dg_algebra(q, w, m)
    loops, sign = {loop_name(v) for v in q.vertices}, _sign(m - 1)
    kel = DgAlgebra(
        std.quiver, {a: sign * d if a in loops else d for a, d in std.differential.items()}
    )
    mapping = {a: (sign if a in loops else 1, a) for a in std.arrow_names()}
    return std, kel, mapping


def sub_dg_completion(q: GradedQuiver, w: Superpotential, m: int, omega):
    """Rebuild the Ginzburg dg-algebra of (q, w) by doubling the triangular
    sub-dg-algebra determined by `omega`.

    `omega` must be a set of arrows such that every cycle of w contains
    exactly one arrow outside it (with the remaining arrows inside).  The
    doubled presentation carries the superpotential that pairs each dualized
    outside arrow with its cofactor, scaled by (-1)^{m-1}, and the loop
    differentials carry the (-1)^{m+1} convention.  Returns the presentation
    and a sign assignment phi with
    ``check_dg_isomorphism(phi, presentation, ginzburg_dg_algebra(q, w, m))``
    passing; the caller is expected to run that check.
    """
    omega = set(omega)
    unknown = omega - {a.name for a in q.arrows}
    if unknown:
        raise KeyError(f"unknown arrows {sorted(unknown)}")
    betas = [a for a in q.arrows if a.name not in omega]
    for b in betas:
        if m % 2 == 0 or b.degree % 2 == 1:
            continue
        # need (-1)^{m(1+|b|)} = 1 for a diagonal sign correspondence
        raise ValueError(
            f"no diagonal sign correspondence: arrow {b.name!r} has even "
            f"degree while m is odd"
        )

    inner = [a for a in q.arrows if a.name in omega]
    b_duals = [_dual_arrow(b, m) for b in betas]
    inner_duals = [_dual_arrow(a, m) for a in inner]
    bstar_duals = [
        Arrow(dual_name(dual_name(b.name)), b.source, b.target, b.degree)
        for b in betas
    ]
    loops = [Arrow(loop_name(v), v, v, -m) for v in q.vertices]
    big = GradedQuiver(
        q.vertices, tuple(inner + b_duals + inner_duals + bstar_duals + loops)
    )

    # Superpotential of the doubled presentation: each cycle of w with its
    # unique outside arrow renamed in place to the double dual, which has
    # the same degree, and the coefficient scaled by (-1)^{m-1};
    # cyclic_reduce picks the canonical rotation and its sign.
    beta_names = {b.name for b in betas}
    terms: dict[Path, Fraction] = {}
    for p, c in w.terms.items():
        hits = [i for i, n in enumerate(p.arrows) if n in beta_names]
        if len(hits) != 1:
            raise ValueError(
                "each superpotential cycle must contain exactly one arrow "
                "outside omega"
            )
        i = hits[0]
        names = p.arrows[:i] + (dual_name(dual_name(p.arrows[i])),) + p.arrows[i + 1:]
        terms[big.path(names)] = _sign(m - 1) * c
    w_prime = cyclic_reduce(PathElement(big, terms))

    diff: dict[str, PathElement] = {}
    for b in betas:  # the sub-dg-algebra differential, d(b*) = del_b w
        diff[dual_name(b.name)] = cyclic_derivative(w, b.name).rebind(big)
    for a in inner:
        diff[dual_name(a.name)] = cyclic_derivative(w_prime, a.name)
    for b in betas:
        diff[dual_name(dual_name(b.name))] = cyclic_derivative(
            w_prime, dual_name(b.name)
        )
    mesh = _mesh(big, inner + b_duals)
    for v in q.vertices:
        diff[loop_name(v)] = _sign(m + 1) * mesh[v]
    presentation = DgAlgebra(big, diff)

    phi = {a.name: (1, a.name) for a in inner}
    phi.update({dual_name(b.name): (1, dual_name(b.name)) for b in betas})
    phi.update({dual_name(a.name): (_sign(m - 1), dual_name(a.name)) for a in inner})
    phi.update({dual_name(dual_name(b.name)): (1, b.name) for b in betas})
    phi.update({loop_name(v): (1, loop_name(v)) for v in q.vertices})
    return presentation, phi


def describe_generators(dg: DgAlgebra) -> list[tuple[str, int, str]]:
    """(name, degree, printed differential) per arrow, in declared order."""
    return [
        (a.name, a.degree, format_element(dg.d(a.name)))
        for a in dg.quiver.arrows
    ]
