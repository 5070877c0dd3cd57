import random
from dataclasses import astuple

import pytest

from dgquiver import (
    Arrow,
    GradedQuiver,
    PathElement,
    Relation,
    algebra_dim,
    build_truncated,
    find_admissibility_bound,
    format_element,
    ginzburg_from_relations,
    h0_presentation,
    homology_dims,
    preprojective_presentation,
    relation_dg_algebra,
    vosnex_equivalence_check,
)
from dgquiver.homology import TruncationError, default_truncation_length

from conftest import element, random_acyclic_quiver, random_relations, zero_relation


def one_vertex_zero_dg(m):
    q = GradedQuiver(["v"])
    return ginzburg_from_relations(q, [zero_relation(q, "r1")], m)


# ---------- truncated complex ----------


def test_truncated_components_empty_without_relations():
    q = GradedQuiver(["v"])
    for m in (3, 5):
        dg = ginzburg_from_relations(q, [], m)
        cx = build_truncated(dg, 6, range(-(m - 1), 1))
        assert [p.arrows for p in cx.components[0]] == [()]
        for i in range(1, m - 1):
            assert cx.components[-i] == []


def test_truncated_basis_one_vertex_zero_relation_m4():
    dg = one_vertex_zero_dg(4)
    cx = build_truncated(dg, 6, range(-3, 1))
    got = {p.arrows for p in cx.components[-2]}
    assert got == {("eps_r1",), ("eps_r1_star", "eps_r1_star")}


def test_truncated_basis_one_vertex_zero_relation_m3():
    dg = one_vertex_zero_dg(3)
    cx = build_truncated(dg, 6, range(-2, 1))
    got = {p.arrows for p in cx.components[-2]}
    assert got == {
        ("eps_r1_star", "eps_r1_star"),
        ("eps_r1", "eps_r1_star"),
        ("eps_r1_star", "eps_r1"),
        ("eps_r1", "eps_r1"),
    }


def test_truncated_matrices_compose_to_zero(square, quaternion):
    cases = [(ginzburg_from_relations(*square, 3), 3)]
    q, rels = quaternion
    cases.append((ginzburg_from_relations(q, rels, 3), 3))
    for dg, m in cases:
        cx = build_truncated(dg, 5, range(-m, 1))
        for d in cx.degrees:
            if d + 1 in cx.matrices:
                assert cx.matrices[d].matmul(cx.matrices[d + 1]).is_zero()


def test_truncation_rejects_length_zero_differential():
    q = GradedQuiver(["v"], [Arrow("s", "v", "v", -1)])
    from dgquiver import DgAlgebra

    dg = DgAlgebra(q, {"s": PathElement.idempotent(q, "v")})
    with pytest.raises(TruncationError):
        build_truncated(dg, 4, range(-1, 1))


# ---------- homology dimensions ----------


def test_dims_one_vertex_no_relations():
    q = GradedQuiver(["v"])
    for m in (3, 4, 5):
        rep = homology_dims(ginzburg_from_relations(q, [], m), m, m + 2)
        assert rep.dims == {0: 1, **{i: 0 for i in range(1, m)}}
        assert rep.stabilized and rep.vosnex


def expected_zero_relation_dims(m):
    dims = {i: 1 for i in range(0, m - 2)}
    dims[m - 2] = 2
    dims[m - 1] = 2 + (1 if m == 3 else 0)
    return dims


@pytest.mark.parametrize("m", [3, 4, 5])
def test_dims_one_vertex_zero_relation(m):
    rep = homology_dims(one_vertex_zero_dg(m), m, m + 2)
    assert rep.dims == expected_zero_relation_dims(m)
    assert rep.stabilized
    assert not rep.vosnex


def test_dims_stable_across_longer_cutoffs():
    for m in (3, 4):
        for extra in (0, 1, 2):
            rep = homology_dims(one_vertex_zero_dg(m), m, m + 2 + extra)
            assert rep.dims == expected_zero_relation_dims(m)
            assert rep.stabilized


def test_gamma_and_relation_dg_agree_below_top_window(square):
    # H^{-i} agrees between the full dg-algebra and its triangular
    # sub-dg-algebra for i < m - 2
    q, rels = square
    for m in (4, 5, 6):
        L = m + 2
        gamma = homology_dims(ginzburg_from_relations(q, rels, m), m, L)
        b = homology_dims(relation_dg_algebra(q, rels), m, L)
        for i in range(0, m - 2):
            assert gamma.dims[i] == b.dims[i]


def test_dim_h0_matches_ideal_dimension(square):
    q, rels = square
    n = find_admissibility_bound(q, rels)
    expect = algebra_dim(q, rels, n)
    for m in (3, 4):
        rep = homology_dims(ginzburg_from_relations(q, rels, m), m, 2 * n)
        assert rep.dims[0] == expect == 9
    # and on a cyclic example: one loop modulo its square, dim 2
    loop = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    rel = [Relation("r", "v", "v", element(loop, (1, ("a", "a"))))]
    n2 = find_admissibility_bound(loop, rel)
    assert algebra_dim(loop, rel, n2) == 2
    rep = homology_dims(ginzburg_from_relations(loop, rel, 3), 3, 2 * n2)
    assert rep.dims[0] == 2


# ---------- H^0 presentations ----------


def test_h0_presentation_gamma_m_gt_2(square):
    q, rels = square
    for m in (3, 4):
        q0, h0_rels = h0_presentation(ginzburg_from_relations(q, rels, m))
        assert [a.name for a in q0.arrows] == [a.name for a in q.arrows]
        nonzero = [r for r in h0_rels if not r.is_zero()]
        rho = rels[0].body.rebind(q0)
        sign = (-1) ** m
        assert nonzero == [sign * rho]


def test_h0_presentation_gamma_m2(square):
    q, rels = square
    q0, h0_rels = h0_presentation(ginzburg_from_relations(q, rels, 2))
    assert {a.name for a in q0.arrows} == {a.name for a in q.arrows} | {"eps_r"}
    printed = {format_element(r) for r in h0_rels}
    assert printed == {
        "alpha*beta - gamma*delta",
        "beta*eps_r",
        "eps_r*alpha",
        "-delta*eps_r",
        "-eps_r*gamma",
    }


def test_h0_presentation_relation_dg(square):
    q, rels = square
    q0, h0_rels = h0_presentation(relation_dg_algebra(q, rels))
    assert q0 == q
    assert h0_rels == [rels[0].body]


def test_h0_presentation_rejects_positive_degrees():
    q = GradedQuiver(["v"], [Arrow("u", "v", "v", 1)])
    from dgquiver import DgAlgebra

    with pytest.raises(ValueError):
        h0_presentation(DgAlgebra(q))


# ---------- the m = 1 mesh presentation ----------


def test_preprojective_no_arrows():
    q = GradedQuiver(["v"])
    q0, rels = preprojective_presentation(q)
    assert [a.name for a in q0.arrows] == []
    assert all(r.is_zero() for r in rels)


def test_preprojective_a2_mesh():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    q0, rels = preprojective_presentation(q)
    assert {a.name for a in q0.arrows} == {"a", "a_star"}
    printed = [format_element(r) for r in rels]
    assert printed == ["a*a_star", "-a_star*a"]


def test_preprojective_two_loops():
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
    q0, rels = preprojective_presentation(q)
    expect = element(
        q0,
        (1, ("a", "a_star")),
        (-1, ("a_star", "a")),
        (1, ("b", "b_star")),
        (-1, ("b_star", "b")),
    )
    assert rels == [expect]


# ---------- labelled tables and the vanishing verdicts ----------


def test_snex_table_acyclic_empty():
    q = random_acyclic_quiver(random.Random(5))
    for m in (3, 4):
        rep = homology_dims(ginzburg_from_relations(q, [], m), m, m + 2)
        assert rep.stabilized and list(rep.dims) == list(range(m))
        for i, dim in rep.dims.items():
            if 0 < i < m - 1:
                assert dim == 0


def test_snex_table_lower_bound_from_relations(square):
    q, rels = square
    for m in (3, 4):
        rep = homology_dims(ginzburg_from_relations(q, rels, m), m, m + 3)
        assert rep.dims[m - 2] >= len(rels)


def test_snex_table_zero_relation_all_nonzero():
    m = 4
    rep = homology_dims(one_vertex_zero_dg(m), m, m + 2)
    for i, dim in rep.dims.items():
        if 0 < i < m:
            assert dim > 0


def test_vosnex_equivalence_acyclic_empty():
    q = random_acyclic_quiver(random.Random(9))
    v = vosnex_equivalence_check(q, [], 3, 6)
    assert astuple(v) == (True, True, True, True)
    assert v.all_equal()


def test_vosnex_equivalence_square_m4(square):
    q, rels = square
    v = vosnex_equivalence_check(q, rels, 4, 8)
    assert astuple(v) == (False, False, False, False)
    assert v.all_equal()


def test_vosnex_equivalence_loop_square_relation():
    loop = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    rels = [Relation("r", "v", "v", element(loop, (1, ("a", "a"))))]
    v = vosnex_equivalence_check(loop, rels, 3, 6)
    assert astuple(v) == (False, False, False, False)


def test_vosnex_equivalence_acyclic_zero_relation():
    # the zero relation still adds a degree -1 arrow to the relation
    # dg-algebra, so it is not concentrated in degree 0
    q = GradedQuiver(["1", "2", "3"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)])
    rels = [zero_relation(q, "z", "1", "3")]
    assert [a.degree for a in relation_dg_algebra(q, rels).quiver.arrows] == [0, 0, -1]
    v = vosnex_equivalence_check(q, rels, 3, 6)
    assert astuple(v) == (False, False, False, False)


def test_vosnex_equivalence_preconditions(square):
    q, rels = square
    with pytest.raises(ValueError):
        vosnex_equivalence_check(q, rels, 2, 6)
    short = [Relation("s", "v1", "v2", element(q, (1, ("alpha",))))]
    with pytest.raises(ValueError):
        vosnex_equivalence_check(q, short, 3, 6)


def test_default_truncation_length(square):
    q, rels = square
    assert default_truncation_length(4, rels, None) == 6
    assert default_truncation_length(4, rels, 4) == 8
    assert default_truncation_length(3, [], None) == 5


def test_h0_presentation_general_graded():
    # degrees inside [2-m, 0]: the relations of H^0 are exactly the cyclic
    # derivatives with respect to the bottom-degree arrows
    from dgquiver import cyclic_derivative, cyclic_reduce, ginzburg_dg_algebra

    m = 4
    q = GradedQuiver(
        ["1", "2"],
        [
            Arrow("x", "1", "2", 0),
            Arrow("y", "2", "1", 2 - m),
            Arrow("z", "1", "1", -1),
        ],
    )
    w = cyclic_reduce(PathElement.from_path(q, ("x", "y")))
    dg = ginzburg_dg_algebra(q, w, m)
    q0, rels = h0_presentation(dg)
    assert [a.name for a in q0.arrows] == ["x"]
    nonzero = [r for r in rels if not r.is_zero()]
    assert nonzero == [cyclic_derivative(w, "y").rebind(q0)]
    assert nonzero == [PathElement.from_arrow(q0, "x")]


def test_no_relations_vanishing_at_every_cutoff():
    # with no relations the intermediate degrees vanish at every cutoff,
    # not just at stabilization
    q = GradedQuiver(
        ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 0)]
    )
    for m in (3, 4):
        dg = ginzburg_from_relations(q, [], m)
        for cutoff in (1, 2, 3, 5, 8):
            rep = homology_dims(dg, m, cutoff)
            for i in range(1, m - 1):
                assert rep.dims[i] == 0, (m, cutoff, i)


# ---------- an independent dense oracle ----------
# Everything below recomputes truncated homology from scratch: words are
# enumerated by brute force, the differential is the textbook recursion
# d(a w) = d(a) w + (-1)^{|a|} a d(w), matrices are dense, and the rank
# comes from a hand-rolled elimination.  No code is shared with the
# library's enumeration, Leibniz loop, or row spaces.


def naive_words(q, max_len):
    # positive-length composable words only; trivial paths counted apart
    words = []
    frontier = [()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for a in q.arrows:
                if not w or q.arrow(w[-1]).target == a.source:
                    new.append(w + (a.name,))
        frontier = new
        words.extend(new)
    return words


def naive_d(dg, word):
    q = dg.quiver
    if not word:
        return {}
    head, rest = word[0], word[1:]
    out = {}
    for p, c in dg.d(head).terms.items():
        w2 = p.arrows + rest
        out[w2] = out.get(w2, 0) + c
    sign = -1 if q.arrow(head).degree % 2 else 1
    for w2, c in naive_d(dg, rest).items():
        w3 = (head,) + w2
        out[w3] = out.get(w3, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def naive_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        piv = next((i for i, r in enumerate(rows) if not used[i] and r[c]), None)
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for i, r in enumerate(rows):
            if i != piv and r[c]:
                f = r[c] / rows[piv][c]
                for j in range(cols):
                    r[j] -= f * rows[piv][j]
    return rank


def naive_truncated_dims(dg, m, max_len):
    q = dg.quiver
    deg = lambda w: sum(q.arrow(n).degree for n in w)
    by_degree = {}
    for w in naive_words(q, max_len):
        by_degree.setdefault(deg(w), []).append(w)
    # trivial paths: one zero-differential basis vector per vertex
    trivial_count = len(q.vertices)
    ranks = {}
    for d in range(-m, 1):
        source = by_degree.get(d, [])
        target = by_degree.get(d + 1, [])
        tindex = {w: i for i, w in enumerate(target)}
        rows = []
        for w in source:
            row = [0] * len(target)
            for w2, c in naive_d(dg, w).items():
                if len(w2) <= max_len:
                    row[tindex[w2]] = c
            rows.append(row)
        ranks[d] = naive_rank(rows) if target else 0
    dims = {}
    for i in range(0, m):
        total = len(by_degree.get(-i, [])) + (trivial_count if i == 0 else 0)
        dims[i] = total - ranks[-i] - ranks.get(-i - 1, 0)
    return dims


def test_dense_oracle_agrees_on_one_vertex_examples():
    q = GradedQuiver(["v"])
    for m in (3, 4):
        dg = ginzburg_from_relations(q, [zero_relation(q, "r1")], m)
        L = m + 2
        assert naive_truncated_dims(dg, m, L) == homology_dims(dg, m, L).dims


def test_dense_oracle_agrees_on_square(square):
    q, rels = square
    dg = ginzburg_from_relations(q, rels, 3)
    assert naive_truncated_dims(dg, 3, 5) == homology_dims(dg, 3, 5).dims


def test_dense_oracle_agrees_on_random_input():
    rng = random.Random(99)
    q = random_acyclic_quiver(rng)
    rels = random_relations(rng, q, max_count=2, allow_zero=False)
    dg = ginzburg_from_relations(q, rels, 3)
    assert naive_truncated_dims(dg, 3, 5) == homology_dims(dg, 3, 5).dims


# ---------- randomized consistency ----------


def test_random_acyclic_relation_dimension_bound():
    rng = random.Random(77)
    done = 0
    while done < 6:
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q, max_count=3, allow_zero=True)
        m = rng.choice([3, 4])
        rep = homology_dims(
            ginzburg_from_relations(q, rels, m), m, default_truncation_length(m, rels)
        )
        assert rep.dims[m - 2] >= len(rels)
        done += 1
