"""Shared builders: the standard example quivers and seeded random data."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    DgAlgebra,
    GradedQuiver,
    PathElement,
    Relation,
    apply_d,
    ginzburg_from_relations,
    relation_dg_algebra,
)


def element(q, *weighted_paths):
    """Sum of (coeff, arrow-name-tuple) pairs, as a PathElement."""
    acc = PathElement.zero(q)
    for coeff, names in weighted_paths:
        acc = acc + coeff * PathElement.from_path(q, names)
    return acc


def assert_same_span(a, b):
    """Exact span equality of two `RowSpace`s: the same pivot columns, and
    each contains the other's pivot rows."""
    assert a.pivot_columns() == b.pivot_columns()
    assert all(b.contains(row) for row in a._pivots.values())
    assert all(a.contains(row) for row in b._pivots.values())


@pytest.fixture
def square():
    """Two directed paths v1 -> v4 identified by one relation."""
    q = GradedQuiver(
        ["v1", "v2", "v3", "v4"],
        [
            Arrow("alpha", "v1", "v2", 0),
            Arrow("beta", "v2", "v4", 0),
            Arrow("gamma", "v1", "v3", 0),
            Arrow("delta", "v3", "v4", 0),
        ],
    )
    rho = element(q, (1, ("alpha", "beta")), (-1, ("gamma", "delta")))
    return q, [Relation("r", "v1", "v4", rho)]


@pytest.fixture
def quaternion():
    """One vertex, two loops, the three relations of the 8-dimensional
    quaternion-type algebra."""
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
    r1 = element(q, (1, ("a", "a")), (-1, ("b", "a", "b")))
    r2 = element(q, (1, ("b", "b")), (-1, ("a", "b", "a")))
    r3 = element(q, (1, ("a", "a", "b")))
    return q, [
        Relation("r1", "v", "v", r1),
        Relation("r2", "v", "v", r2),
        Relation("r3", "v", "v", r3),
    ]


@pytest.fixture
def one_vertex():
    return GradedQuiver(["v"])


def zero_relation(q, label, source=None, target=None):
    v = source or q.vertices[0]
    w = target or v
    return Relation(label, v, w, PathElement.zero(q))


def grid(n: int):
    """The n x n commuting grid: its quiver and one relation per square."""
    def vx(i, j):
        return f"v{i}_{j}"

    arrows = [Arrow(f"h{i}_{j}", vx(i, j), vx(i, j + 1)) for i in range(n) for j in range(n - 1)]
    arrows += [Arrow(f"u{i}_{j}", vx(i, j), vx(i + 1, j)) for i in range(n - 1) for j in range(n)]
    q = GradedQuiver([vx(i, j) for i in range(n) for j in range(n)], arrows)
    rels = [
        Relation(
            f"s{i}_{j}", vx(i, j), vx(i + 1, j + 1),
            element(q, (1, (f"h{i}_{j}", f"u{i}_{j + 1}")), (-1, (f"u{i}_{j}", f"h{i + 1}_{j}"))),
        )
        for i in range(n - 1)
        for j in range(n - 1)
    ]
    return q, rels


def random_acyclic_quiver(rng: random.Random, max_extra: int = 3) -> GradedQuiver:
    nv = rng.randint(2, 4)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    arrows = [Arrow(f"a{i}", vertices[i], vertices[i + 1], 0) for i in range(nv - 1)]
    for k in range(rng.randint(0, max_extra)):
        i = rng.randrange(0, nv - 1)
        j = rng.randrange(i + 1, nv)
        arrows.append(Arrow(f"b{k}", vertices[i], vertices[j], 0))
    return GradedQuiver(vertices, arrows)


def random_quiver(rng: random.Random) -> GradedQuiver:
    """Small quiver, cycles and loops allowed."""
    nv = rng.randint(1, 3)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    arrows = []
    for k in range(rng.randint(1, 4)):
        arrows.append(
            Arrow(f"a{k}", rng.choice(vertices), rng.choice(vertices), 0)
        )
    return GradedQuiver(vertices, arrows)


def assert_d2_kills_random_products(rng: random.Random, dg: DgAlgebra, per_length: int):
    """The product oracle beside `check_d_squared`'s proof: d(d(x)) = 0 on
    `per_length` products of arrows of each length 2..4, each drawn along a
    random walk (a walk that reaches a vertex with no arrow out is dropped)."""
    q = dg.quiver
    for length in (2, 3, 4):
        for _ in range(per_length):
            v = rng.choice(q.vertices)
            x = PathElement(q, {q.trivial_path(v): 1})
            for _ in range(length):
                outs = [a for a in q.arrows if a.source == v]
                if not outs:
                    break
                a = rng.choice(outs)
                x = x * PathElement.from_arrow(q, a.name)
                v = a.target
            else:
                assert apply_d(dg, apply_d(dg, x)).is_zero(), x


def random_relations(
    rng: random.Random,
    q: GradedQuiver,
    max_count: int = 4,
    min_count: int = 1,
    allow_zero: bool = True,
    max_path_len: int = 3,
    coeffs=(1, 1, 2, -1),
):
    """Relations with bodies inside r^2 (or zero bodies), valid over q; each
    term's coefficient is drawn from `coeffs`."""
    pool: dict[tuple[str, str], list] = {}
    for p in q.enumerate_paths(max_path_len):
        if len(p) >= 2:
            pool.setdefault((q.source_of(p), q.target_of(p)), []).append(p)
    rels = []
    count = rng.randint(min_count, max_count)
    for k in range(count):
        if allow_zero and rng.random() < 0.2 or not pool:
            rels.append(zero_relation(q, f"r{k}", rng.choice(q.vertices)))
            continue
        src, tgt = rng.choice(sorted(pool))
        paths = pool[(src, tgt)]
        chosen = rng.sample(paths, min(len(paths), rng.randint(1, 2)))
        body = PathElement.zero(q)
        for p in chosen:
            body = body + PathElement(q, {p: Fraction(rng.choice(coeffs))})
        if body.is_zero():
            rels.append(zero_relation(q, f"r{k}", src, tgt))
        else:
            rels.append(Relation(f"r{k}", src, tgt, body))
    return rels


_COEFFS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)]
)


@st.composite
def small_dg_algebras(draw):
    """A small dg path algebra with at least one nonzero differential.

    Either the relation or the Ginzburg (m = 3) dg-algebra of a random
    quiver with random relations, whose bodies take p/q coefficients and
    may draw one path twice so that its terms cancel; or a random graded
    quiver (degrees -1, 0, 1) with an arbitrary differential of degree +1,
    where d of a product can cancel (d(u) = u p, d(w) = p w and |u| odd
    give d(u w) = u p w - u p w).  d^2 = 0 is not required.
    """
    kind = draw(st.sampled_from(["relation", "ginzburg", "free"]))
    nv = draw(st.integers(1, 2))
    vertices = [f"v{i}" for i in range(nv)]
    vertex = st.sampled_from(vertices)
    degree = st.sampled_from([0]) if kind != "free" else st.sampled_from([-1, 0, 1])
    arrows = [
        Arrow(f"a{k}", draw(vertex), draw(vertex), draw(degree))
        for k in range(draw(st.integers(1, 2 if kind == "ginzburg" else 3)))
    ]
    q = GradedQuiver(vertices, arrows)

    def body(paths):
        acc = PathElement.zero(q)
        for p in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
            acc = acc + draw(_COEFFS) * PathElement(q, {p: Fraction(1)})
        return acc

    if kind == "free":
        diff = {}
        for a in arrows:
            paths = [
                p
                for p in q.enumerate_paths(3)
                if p.arrows
                and q.degree_of(p) == a.degree + 1
                and (q.source_of(p), q.target_of(p)) == (a.source, a.target)
            ]
            if paths and draw(st.booleans()):
                diff[a.name] = body(paths)
        dg = DgAlgebra(q, diff)
    else:
        pool = {}
        for p in q.enumerate_paths(2 if kind == "ginzburg" else 3):
            if len(p) >= 2:
                pool.setdefault((q.source_of(p), q.target_of(p)), []).append(p)
        assume(pool)
        rels = []
        for k in range(draw(st.integers(1, 2))):
            ends = draw(st.sampled_from(sorted(pool)))
            rels.append(Relation(f"r{k}", *ends, body(pool[ends])))
        if kind == "relation":
            dg = relation_dg_algebra(q, rels)
        else:
            dg = ginzburg_from_relations(q, rels, 3)
    assume(any(not dg.d(name).is_zero() for name in dg.arrow_names()))
    return dg
