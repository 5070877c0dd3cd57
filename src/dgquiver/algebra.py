"""Arithmetic in the graded path algebra of a quiver.

`PathElement` is a finite Q-linear combination of paths.  On top of plain
algebra this module implements the super-structure used by superpotentials:
the supercommutator [x,y] = xy - (-1)^{|x||y|} yx, reduction modulo the span
of supercommutators (cycles up to rotation with signs), and the signed
cyclic derivative with respect to an arrow.  A superpotential is the
`PathElement` that `cyclic_reduce` returns: a homogeneous combination of
cycles, each stored by its canonical rotation.

Sign conventions.  Rotating a cycle uv to vu multiplies the coefficient by
(-1)^{|u||v|}.  The cyclic derivative of a cycle p = a_1...a_n of degree w
with respect to an arrow a is

    (-1)^{|a|} * sum over positions l with a_l = a of
        (-1)^{(w-1)(|a_1|+...+|a_{l-1}|)} a_{l+1}...a_n a_1...a_{l-1},

which is homogeneous of degree w - |a| and does not depend on the chosen
rotation of p.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import as_rational
from .quiver import GradedQuiver, Path


class QuiverMismatchError(ValueError):
    pass


class NotHomogeneousError(ValueError):
    pass


def _check_same_quiver(a: PathElement, b: PathElement) -> None:
    if a.quiver is not b.quiver and a.quiver != b.quiver:
        raise QuiverMismatchError("operands live over different quivers")


class PathElement:
    """A finite Q-linear combination of paths in a fixed graded quiver."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: GradedQuiver, terms=None):
        self.quiver = quiver
        clean: dict[Path, Fraction] = {}
        for p, c in (terms or {}).items():
            c = as_rational(c)
            if c:
                clean[p] = c
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, quiver: GradedQuiver) -> PathElement:
        return cls(quiver)

    @classmethod
    def from_arrow(cls, quiver: GradedQuiver, name: str) -> PathElement:
        quiver.arrow(name)
        return cls(quiver, {Path(arrows=(name,)): Fraction(1)})

    @classmethod
    def from_path(cls, quiver: GradedQuiver, arrow_names, coeff=1) -> PathElement:
        return cls(quiver, {quiver.path(arrow_names): as_rational(coeff)})

    # ---------- ring structure ----------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: PathElement) -> PathElement:
        _check_same_quiver(self, other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0) + c
        return PathElement(self.quiver, terms)

    def __neg__(self) -> PathElement:
        return PathElement(self.quiver, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: PathElement) -> PathElement:
        return self + (-other)

    def scale(self, c) -> PathElement:
        c = as_rational(c)
        return PathElement(self.quiver, {p: c * v for p, v in self.terms.items()})

    def __rmul__(self, c) -> PathElement:
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> PathElement:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PathElement):
            return NotImplemented
        _check_same_quiver(self, other)
        q = self.quiver
        terms: dict[Path, Fraction] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = q.compose(p1, p2)
                if p is None:
                    continue  # non-composable pairs contribute zero
                terms[p] = terms.get(p, 0) + c1 * c2
        return PathElement(q, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PathElement)
            and self.quiver == other.quiver
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"PathElement({format_element(self)})"

    # ---------- structure queries ----------

    def sorted_terms(self) -> list[tuple[Path, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: self.quiver.path_sort_key(t[0]))

    def arrows_used(self) -> set[str]:
        return {n for p in self.terms for n in p.arrows}

    def min_length(self) -> int | None:
        return min((len(p) for p in self.terms), default=None)

    def max_length(self) -> int | None:
        return max((len(p) for p in self.terms), default=None)

    def truncate(self, max_len: int) -> PathElement:
        """Drop all terms of length > max_len."""
        return PathElement(
            self.quiver, {p: c for p, c in self.terms.items() if len(p) <= max_len}
        )

    def degree(self) -> int | None:
        """Shared degree of all terms; None for the zero element.

        Raises NotHomogeneousError when terms have mixed degrees.
        """
        degs = {self.quiver.degree_of(p) for p in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NotHomogeneousError(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def rebind(self, quiver: GradedQuiver) -> PathElement:
        """The same combination read over another quiver containing its arrows."""
        for p in self.terms:
            if p.is_trivial:
                quiver.vertex_index(p.base)
            else:
                quiver.path(p.arrows)
        return PathElement(quiver, dict(self.terms))


def supercommutator(x: PathElement, y: PathElement) -> PathElement:
    """[x,y] = xy - (-1)^{|x||y|} yx for homogeneous x, y."""
    _check_same_quiver(x, y)
    dx, dy = x.degree(), y.degree()
    if x.is_zero() or y.is_zero():
        return PathElement.zero(x.quiver)
    sign = -1 if (dx * dy) % 2 else 1
    return x * y - sign * (y * x)


# ---------- the superpotential space KQ/[KQ,KQ] ----------


def _canonical_rotation(q: GradedQuiver, arrows: tuple[str, ...]):
    """Canonical rotation of a cycle and the sign picked up reaching it.

    Returns (rotation, sign) or (None, 0) when the cycle is forced to vanish
    in KQ/[KQ,KQ] (a periodic cycle whose period has odd degree makes the
    canonical representative equal to minus itself).
    """
    n = len(arrows)
    degs = [q.arrow(a).degree for a in arrows]
    total = sum(degs)
    rots = []
    cur = arrows
    sign = 1
    for k in range(n):
        rots.append((cur, sign))
        # rotate by one: a.w -> w.a picks up (-1)^{|a||w|}
        a_deg = degs[k % n]
        rest_deg = total - a_deg
        if (a_deg * rest_deg) % 2:
            sign = -sign
        cur = cur[1:] + cur[:1]
    best = min(r for r, _ in rots)
    signs = {s for r, s in rots if r == best}
    if len(signs) == 2:
        return None, 0
    return best, signs.pop()


def cyclic_reduce(x: PathElement) -> PathElement:
    """Project x (a homogeneous combination of cycles) to KQ/[KQ,KQ], each
    cycle stored by its smallest rotation with the rotation sign absorbed."""
    q = x.quiver
    try:
        x.degree()
    except NotHomogeneousError:
        raise NotHomogeneousError("superpotentials must be homogeneous") from None
    terms: dict[Path, Fraction] = {}
    for p, c in x.terms.items():
        if not q.is_cycle(p):
            raise ValueError(f"term is not a cycle: {format_element(PathElement(q, {p: c}))}")
        if p.is_trivial:
            canon, sign = p, 1
        else:
            rot, sign = _canonical_rotation(q, p.arrows)
            if rot is None:
                continue  # self-negating periodic cycle: zero in the quotient
            canon = Path(arrows=rot)
        terms[canon] = terms.get(canon, 0) + sign * c
    return PathElement(q, terms)


def cyclic_derivative(w: PathElement, arrow: str) -> PathElement:
    """The signed cyclic derivative of w with respect to `arrow`.

    Homogeneous of degree |w| - |arrow|; independent of which rotations of
    the cycles w stores.
    """
    q = w.quiver
    a = q.arrow(arrow)
    terms: dict[Path, Fraction] = {}
    for p, c in w.terms.items():
        if p.is_trivial:
            continue  # no occurrences
        names = p.arrows
        degs = [q.arrow(n).degree for n in names]
        wdeg = sum(degs)
        prefix = 0
        for ell, n in enumerate(names):
            if n == arrow:
                sign = -1 if ((wdeg - 1) * prefix) % 2 else 1
                if a.degree % 2:
                    sign = -sign
                rest = names[ell + 1:] + names[:ell]
                rp = Path(arrows=rest) if rest else q.trivial_path(a.target)
                terms[rp] = terms.get(rp, 0) + sign * c
            prefix += degs[ell]
    return PathElement(q, terms)


# ---------- plain-text formatting ----------


def format_element(x: PathElement) -> str:
    """Render as a signed sum of coefficient-path terms, e.g. ``a*b - 2 c``."""
    if x.is_zero():
        return "0"
    chunks = []
    for i, (p, c) in enumerate(x.sorted_terms()):
        neg = c < 0
        mag = -c if neg else c
        body = "*".join(p.arrows) if p.arrows else f"e_{p.base}"
        if mag != 1:
            body = f"{mag} {body}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
