import gc
import random
import tracemalloc
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import astuple
from pathlib import Path as FilePath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from dgquiver import (
    Arrow,
    DgAlgebra,
    GradedQuiver,
    NotAdmissibleError,
    Path,
    PathElement,
    Relation,
    TruncatedIdealSpan,
    algebra_dim,
    bound_is_valid,
    build_truncated,
    certify,
    find_admissibility_bound,
    format_element,
    ginzburg_dg_algebra,
    ginzburg_from_relations,
    h0_presentation,
    homology_dims,
    parse,
    relation_dg_algebra,
    vosnex_equivalence_check,
)
from dgquiver.homology import TruncationError, default_truncation_length
from dgquiver.linalg import RowSpace, rank

from conftest import (
    element,
    grid,
    random_acyclic_quiver,
    random_relations,
    small_dg_algebras,
    zero_relation,
)

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


def load(name):
    pf = parse((FIXTURES / f"{name}.quiver").read_text())
    return pf.quiver, pf.relations


def one_vertex_zero_dg(m):
    q = GradedQuiver(["v"])
    return ginzburg_from_relations(q, [zero_relation(q, "r1")], m)


def basis_keys(dg, cx, d):
    """The keys of the basis paths of `cx` in degree d, read from the walk;
    their count is the complex's, whose row indices `components[d]` are."""
    keys = dg.quiver.paths_by_degree(cx.max_len, d, d)[d]
    assert cx.components[d] == range(len(keys)) and cx.dim(d) == len(keys)
    return keys


# ---------- truncated complex ----------


def test_truncated_components_empty_without_relations():
    q = GradedQuiver(["v"])
    for m in (3, 5):
        dg = ginzburg_from_relations(q, [], m)
        cx = build_truncated(dg, 6, range(-(m - 1), 1))
        assert basis_keys(dg, cx, 0) == ["v"]  # the trivial path, keyed by its vertex
        for i in range(1, m - 1):
            assert basis_keys(dg, cx, -i) == []


def test_truncated_basis_one_vertex_zero_relation_m4():
    dg = one_vertex_zero_dg(4)
    cx = build_truncated(dg, 6, range(-3, 1))
    assert set(basis_keys(dg, cx, -2)) == {("eps_r1",), ("eps_r1_star", "eps_r1_star")}


def test_truncated_basis_one_vertex_zero_relation_m3():
    dg = one_vertex_zero_dg(3)
    cx = build_truncated(dg, 6, range(-2, 1))
    assert set(basis_keys(dg, cx, -2)) == {
        ("eps_r1_star", "eps_r1_star"),
        ("eps_r1", "eps_r1_star"),
        ("eps_r1_star", "eps_r1"),
        ("eps_r1", "eps_r1"),
    }


def test_build_truncated_rejects_an_empty_degree_window():
    with pytest.raises(ValueError, match="degree window is empty"):
        build_truncated(one_vertex_zero_dg(3), 4, [])


def test_deep_cutoff_counts_without_deep_recursion():
    # the count tables fill by ascending length, so a state reads the states
    # one arrow shorter from the table: 1,501 paths on one degree-0 loop, far
    # past the recursion limit, are counted and placed with no RecursionError
    loop = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    assert loop.path_counts(1500, 0, 0) == {0: 1501}
    assert loop.path_positions(0)(("a",) * 1500) == 1500
    cx = build_truncated(DgAlgebra(GradedQuiver(loop.vertices, loop.arrows)), 1500, [0])
    assert cx.dim(0) == 1501


def test_homology_dims_rejects_m_below_one():
    with pytest.raises(ValueError, match="m >= 1 required"):
        homology_dims(one_vertex_zero_dg(3), 0, 4)


def test_build_truncated_constructs_no_path(monkeypatch, quaternion):
    # the walk hands build_truncated path keys; only enumerate_paths builds
    # Path objects, one per path it returns
    q, rels = quaternion
    dg = ginzburg_from_relations(q, rels, 3)
    calls = 0
    post_init = Path.__post_init__

    def counting_post_init(self):
        nonlocal calls
        calls += 1
        post_init(self)

    monkeypatch.setattr(Path, "__post_init__", counting_post_init)
    build_truncated(dg, 5, range(-3, 1))
    assert calls == 0
    paths = dg.quiver.enumerate_paths(5)
    assert calls == len(paths) > 0


def test_build_truncated_skips_rows_zero_by_length(monkeypatch, quaternion):
    # every term of every d has length >= lmin, so a path longer than
    # L + 1 - lmin has a zero row and is never passed to _d_path; the
    # matrices are assembled on read, so every one is read
    from dgquiver import homology

    q, rels = quaternion
    dg = ginzburg_from_relations(q, rels, 3)
    lmin = min(
        dg.d(name).min_length() for name in dg.arrow_names() if not dg.d(name).is_zero()
    )
    lengths = []
    d_path = homology._d_path

    def recording_d_path(dg, arrows, max_len):
        lengths.append(len(arrows))
        return d_path(dg, arrows, max_len)

    monkeypatch.setattr(homology, "_d_path", recording_d_path)
    for cutoff in (5, 6):
        lengths.clear()
        cx = build_truncated(dg, cutoff, range(-3, 1))
        for d in cx.components:
            cx.matrices[d]
        assert max(lengths) == cutoff + 1 - lmin


def _lmin(dg):
    return min(
        dg.d(name).min_length() for name in dg.arrow_names() if not dg.d(name).is_zero()
    )


def test_homology_dims_walks_only_the_rows(monkeypatch, quaternion):
    # the dims are path counts and the columns are counted, so the only walks
    # are the row walks: one degree each, no longer than cutoff + 1 - lmin,
    # and no degree twice in one call; each degree is eliminated once, from
    # the rows its walk hands over
    from dgquiver import homology

    for (q, rels), cutoff in ((quaternion, 5), (grid(4), 6)):
        dg = ginzburg_from_relations(q, rels, 3)
        walks, eliminated = [], []
        paths_by_degree = GradedQuiver.paths_by_degree
        row_space = homology.TruncatedComplex.row_space

        def recording_paths_by_degree(self, max_len, min_degree, max_degree):
            walks.append((max_len, min_degree, max_degree))
            return paths_by_degree(self, max_len, min_degree, max_degree)

        def recording_row_space(cx, d):
            eliminated.append(d)
            return row_space(cx, d)

        monkeypatch.setattr(GradedQuiver, "paths_by_degree", recording_paths_by_degree)
        monkeypatch.setattr(homology.TruncatedComplex, "row_space", recording_row_space)
        homology_dims(dg, 3, cutoff)
        monkeypatch.undo()
        walked = [d for _, d, top in walks if d == top]
        assert len(walked) == len(walks) == len(set(walked)) == 4
        assert sorted(walked) == sorted(eliminated) == [-3, -2, -1, 0]
        assert {n for n, _, _ in walks} <= {cutoff + 1 - _lmin(dg), cutoff + 2 - _lmin(dg)}


def _nonzero_rows(dg, cutoff, d):
    """The basis paths of degree d whose rows at `cutoff` can be nonzero: of
    length <= cutoff + 1 - lmin, with an arrow whose d is nonzero."""
    keys = dg.quiver.paths_by_degree(cutoff + 1 - _lmin(dg), d, d)[d]
    return [k for k in keys if type(k) is tuple and any(not dg.d(a).is_zero() for a in k)]


def _record_rows(monkeypatch):
    """(cutoff, degree) per row made by `_d_path`, recorded into a list."""
    from dgquiver import homology

    made = []
    d_path = homology._d_path

    def recording_d_path(dg, arrows, max_len):
        made.append((max_len, sum(dg.quiver.arrow(a).degree for a in arrows)))
        return d_path(dg, arrows, max_len)

    monkeypatch.setattr(homology, "_d_path", recording_d_path)
    return made


def test_stabilization_pass_stops_at_the_first_differing_degree(monkeypatch, quaternion):
    # the dims at L + 1 are compared from H^0 down, H^{-i} needing degrees -i
    # and -i - 1; a degree is eliminated at L + 1 while they agree, and at L
    # alone after.  Quaternion's H^{-1} already differs, so degree -3 has its
    # rows made at L and never at L + 1; on the 4 x 4 grid only H^{-2}
    # differs, so every degree has its rows made at L + 1 and none at L.
    # Degree 0 has no row to make: its paths are of q's arrows, whose d is 0
    from dgquiver import homology

    walked = _record_rows(monkeypatch)
    for (q, rels), cutoff, first_differing in ((quaternion, 5, 1), (grid(4), 6, 2)):
        dg = ginzburg_from_relations(q, rels, 3)
        assert _nonzero_rows(dg, cutoff + 1, 0) == []
        walked.clear()
        rep = homology_dims(dg, 3, cutoff)
        at_l = {d for n, d in walked if n == cutoff}
        assert at_l == ({-3} if first_differing == 1 else set())
        assert {d for n, d in walked if n == cutoff + 1} == {-1, -2, -3} - at_l
        cx = build_truncated(dg, cutoff + 1, range(-3, 1))
        at_l1 = dict(enumerate(homology._dims_from_complex(cx, 3)))
        assert [i for i in range(3) if at_l1[i] != rep.dims[i]][0] == first_differing
        assert rep.stabilized is (at_l1 == rep.dims) is False


def test_truncated_matrices_are_assembled_on_every_read(monkeypatch, quaternion):
    # nothing is walked at build time; a degree's matrix is made afresh on
    # every read, walking that degree alone, and never kept, so every read
    # makes an equal matrix, while `in`, `len` and iteration make none; the
    # window bounds the keys, and what is made does not depend on the order
    # of the reads
    dg = ginzburg_from_relations(*quaternion, 3)
    other = build_truncated(dg, 5, range(-3, 1))
    in_order = [(d, mx.entries) for d, mx in other.matrices.items()]
    walked = _record_rows(monkeypatch)
    walks = []
    paths_by_degree = GradedQuiver.paths_by_degree

    def recording_paths_by_degree(self, max_len, min_degree, max_degree):
        walks.append((min_degree, max_degree))
        return paths_by_degree(self, max_len, min_degree, max_degree)

    monkeypatch.setattr(GradedQuiver, "paths_by_degree", recording_paths_by_degree)
    cx = build_truncated(dg, 5, range(-3, 1))
    assert list(cx.matrices) == list(cx.components) == [-3, -2, -1, 0]
    assert len(cx.matrices) == 4 and -3 in cx.matrices and 1 not in cx.matrices
    for degree in (1, -4):
        with pytest.raises(KeyError):
            cx.matrices[degree]
    assert walked == walks == []
    first = cx.matrices[-2]
    per_read = len(walked)
    assert per_read > 0 and walked == [(5, -2)] * per_read and walks == [(-2, -2)]
    again = cx.matrices[-2]
    assert again is not first
    assert (again.rows, again.cols, again.entries) == (first.rows, first.cols, first.entries)
    assert len(walked) == 2 * per_read and walks == [(-2, -2)] * 2
    assert [(d, cx.matrices[d].entries) for d in (-3, -2, -1, 0)] == in_order
    assert [mx.entries for mx in cx.matrices.values()] == [e for _, e in in_order]


def test_homology_pass_keeps_no_matrix_it_makes(monkeypatch, quaternion):
    # homology_dims makes each row that can be nonzero once, at the one
    # cutoff it eliminates that degree at, and no other; a complex keeps no
    # matrix or row the pass made, so a later pass makes them again
    from dgquiver import homology

    dg = ginzburg_from_relations(*quaternion, 3)
    walked = _record_rows(monkeypatch)
    rep = homology_dims(dg, 3, 5)
    counts = Counter(walked)
    assert set(counts) == {(6, -1), (6, -2), (5, -3)}  # H^{-1} differs; degree 0 has no row
    for cutoff, d in [(6, 0), *counts]:
        assert counts[cutoff, d] == len(_nonzero_rows(dg, cutoff, d)), (cutoff, d)

    cx = build_truncated(dg, 5, range(-3, 1))
    walked.clear()
    assert list(homology._dims_from_complex(cx, 3)) == list(rep.dims.values())
    assert set(Counter(walked)) == {(5, d) for d in range(-3, 0)}
    assert Counter(walked)[5, -3] == counts[5, -3]
    walked.clear()
    cx.matrices[-2]
    assert Counter(walked) == {(5, -2): len(walked)} and walked


def test_rank_passes_make_no_matrix(monkeypatch, quaternion):
    # the rank drivers fill a `RowSpace` straight from the row makers: with
    # `SparseMatrix` unmakeable, every homology number is still made
    from dgquiver.linalg import SparseMatrix

    q, rels = quaternion
    dg, span = ginzburg_from_relations(q, rels, 3), certify(q, rels)
    want = homology_dims(dg, 3, 5), vosnex_equivalence_check(q, rels, 3, 5, span)

    def refuse(cls, *args):
        raise AssertionError("a rank pass made a matrix")

    monkeypatch.setattr(SparseMatrix, "_of_rows", classmethod(refuse))
    assert (homology_dims(dg, 3, 5), vosnex_equivalence_check(q, rels, 3, 5, span)) == want
    with pytest.raises(AssertionError, match="made a matrix"):
        build_truncated(dg, 5, range(-3, 1)).matrices[-2]


def test_homology_pass_holds_no_degree_matrix():
    # traced peak of one pass on the 4 x 4 grid at L = 7 (Python 3.11): 14.2
    # MiB when a degree's row dict was assembled before its elimination, 9.7
    # MiB when each row goes straight to the elimination and only its pivots
    # are kept.  The bound sits between the two, so holding a degree's rows
    # again fails it, with room for allocator and version drift
    dg = ginzburg_from_relations(*grid(4), 3)
    tracemalloc.start()
    try:
        rep = homology_dims(dg, 3, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dims == {0: 100, 1: 36, 2: 557} and not rep.stabilized
    assert peak < 12 * 2**20, peak / 2**20


def test_truncated_complex_needs_no_cycle_collector(quaternion):
    # a complex whose matrix has been read is freed by reference counting
    cx = build_truncated(ginzburg_from_relations(*quaternion, 3), 4, range(-3, 1))
    cx.matrices[-2]
    ref = weakref.ref(cx)
    gc.disable()
    try:
        del cx
        assert ref() is None
    finally:
        gc.enable()


def test_truncated_matrices_compose_to_zero(square, quaternion):
    # column j of M_d is the j-th basis path of degree d + 1, as row j of
    # M_{d+1} is, so the product is the plain matrix product
    cases = [(ginzburg_from_relations(*square, 3), 3)]
    q, rels = quaternion
    cases.append((ginzburg_from_relations(q, rels, 3), 3))
    for dg, m in cases:
        cx = build_truncated(dg, 5, range(-m, 1))
        for d in cx.components:
            if d + 1 in cx.matrices:
                left, right = cx.matrices[d], cx.matrices[d + 1]
                assert left.cols == right.rows == len(basis_keys(dg, cx, d + 1))
                by_row: dict[int, dict[int, int]] = {}
                for (k, j), c in right.entries.items():
                    by_row.setdefault(k, {})[j] = c
                product: dict[tuple[int, int], int] = {}
                for (i, j), c in left.entries.items():
                    for col, v in by_row.get(j, {}).items():
                        product[i, col] = product.get((i, col), 0) + c * v
                assert not any(product.values())


@pytest.mark.parametrize("name", ["quaternion", "square_d4"])
def test_rank_of_real_complexes_matches_basis_order_and_sympy(name):
    # `rank` feeds the rows last stored first; the answer is that of the
    # basis order and of an independent exact rank
    q, rels = load(name)
    cx = build_truncated(ginzburg_from_relations(q, rels, 3), 4, range(-3, 1))
    for d in (-3, -2, -1):
        mx = cx.matrices[d]
        by_row = {i: {j: QQ(v) for j, v in row.items()} for i, row in mx._by_row.items()}
        oracle = DomainMatrix(by_row, (mx.rows, mx.cols), QQ).rank()
        assert rank(mx) == RowSpace(mx._by_row.values()).rank == oracle, d


def test_truncation_rejects_length_zero_differential():
    q = GradedQuiver(["v"], [Arrow("s", "v", "v", -1)])
    dg = DgAlgebra(q, {"s": PathElement(q, {q.trivial_path("v"): 1})})
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


@pytest.mark.parametrize("name", ["quaternion", "square_d4"])
def test_dim_h0_is_the_certified_dimension_from_cutoff_n_minus_1(name):
    # degree 0 of the truncated complex is KQ / ((R) + r^(L+1)), which is
    # KQ / ((R) + r^N) once L >= N - 1 (the homology_dims docstring)
    q, rels = load(name)
    span = certify(q, rels)
    n = span.bound - 1
    for m in (3, 4):
        for L in (n - 1, n, n + 1):
            rep = homology_dims(ginzburg_from_relations(q, rels, m), m, L)
            assert rep.dims[0] == span.dim(), (m, L)


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


def mesh_presentation(q):
    """H^0 of the m = 1 Ginzburg dg-algebra with zero superpotential: the
    doubled quiver modulo the mesh relations e_i (sum of [a, a*]) e_i."""
    return h0_presentation(ginzburg_dg_algebra(q, PathElement.zero(q), 1))


def test_preprojective_no_arrows():
    q = GradedQuiver(["v"])
    q0, rels = mesh_presentation(q)
    assert [a.name for a in q0.arrows] == []
    assert all(r.is_zero() for r in rels)


def test_preprojective_a2_mesh():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    q0, rels = mesh_presentation(q)
    assert {a.name for a in q0.arrows} == {"a", "a_star"}
    printed = [format_element(r) for r in rels]
    assert printed == ["a*a_star", "-a_star*a"]


def test_preprojective_two_loops():
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
    q0, rels = mesh_presentation(q)
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
    v = vosnex_equivalence_check(q, [], 3, 6, certify(q, []))
    assert astuple(v) == (True, True, True, True)
    assert v.all_equal()


def test_vosnex_equivalence_square_m4(square):
    q, rels = square
    v = vosnex_equivalence_check(q, rels, 4, 8, certify(q, rels))
    assert astuple(v) == (False, False, False, False)
    assert v.all_equal()


def test_vosnex_equivalence_loop_square_relation():
    loop = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    rels = [Relation("r", "v", "v", element(loop, (1, ("a", "a"))))]
    v = vosnex_equivalence_check(loop, rels, 3, 6, certify(loop, rels))
    assert astuple(v) == (False, False, False, False)


def test_vosnex_equivalence_acyclic_zero_relation():
    # the zero relation still adds a degree -1 arrow to the relation
    # dg-algebra, so it is not concentrated in degree 0
    q = GradedQuiver(["1", "2", "3"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)])
    rels = [zero_relation(q, "z", "1", "3")]
    assert [a.degree for a in relation_dg_algebra(q, rels).quiver.arrows] == [0, 0, -1]
    v = vosnex_equivalence_check(q, rels, 3, 6, certify(q, rels))
    assert astuple(v) == (False, False, False, False)


def test_vosnex_equivalence_preconditions(square, quaternion):
    # no span is passed: `certify` would raise on the short relation before
    # the check's own r^2 test is reached, and each check precedes the span's
    q, rels = square
    with pytest.raises(ValueError, match="m > 2"):
        vosnex_equivalence_check(q, rels, 2, 6, None)
    short = [Relation("s", "v1", "v2", element(q, (1, ("alpha",))))]
    with pytest.raises(ValueError, match=r"relations not inside r\^2: \['s'\]"):
        vosnex_equivalence_check(q, short, 3, 6, None)
    with pytest.raises(NotAdmissibleError, match="could not certify"):
        vosnex_equivalence_check(q, rels, 3, 6, None)
    # a span certified for another input gives no verdict
    for other in (certify(q, []), certify(*quaternion)):
        with pytest.raises(ValueError, match="another quiver or other relations"):
            vosnex_equivalence_check(q, rels, 3, 6, other)
    # a span that `certify` would not return gives no verdict: KQ of one
    # loop is infinite-dimensional, and a bound-2 span fails n >= 2 although
    # its empty level 1 passes `bound_is_valid`
    loop = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    point = TruncatedIdealSpan(GradedQuiver(["v"]), [], 2)
    assert bound_is_valid(point)
    for span in (TruncatedIdealSpan(loop, [], 3), point):
        with pytest.raises(NotAdmissibleError, match="could not certify"):
            vosnex_equivalence_check(span.quiver, span.relations, 3, 5, span)
    # a bound that is not valid raises before any span reaches the check
    q, rels = quaternion
    assert find_admissibility_bound(q, rels) == 5
    with pytest.raises(NotAdmissibleError, match="3 is not a valid admissibility bound"):
        certify(q, rels, 3)


def test_vosnex_equivalence_matches_homology_dims():
    # differential oracle: the single build at L gives the verdict that the
    # dims of `homology_dims`, which builds at L and L + 1, give
    rng = random.Random(18)
    checked = 0
    while checked < 8:
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q, max_count=3)
        bound = find_admissibility_bound(q, rels)
        if bound is None:
            continue
        m = rng.choice([3, 4])
        max_len = default_truncation_length(m, rels, bound)
        v = vosnex_equivalence_check(q, rels, m, max_len, certify(q, rels, bound))
        rep = homology_dims(ginzburg_from_relations(q, rels, m), m, max_len)
        assert v.small_negative_vanishing == rep.vosnex
        assert v.top_small_negative_zero == (rep.dims[m - 2] == 0)
        checked += 1


def test_vosnex_equivalence_builds_one_complex(monkeypatch, quaternion):
    from dgquiver import ideals

    q, rels = quaternion
    span = certify(q, rels, 5)
    built = []
    build = ideals.build_truncated
    monkeypatch.setattr(ideals, "build_truncated", lambda *a: built.append(1) or build(*a))
    vosnex_equivalence_check(q, rels, 3, 5, span)
    assert len(built) == 1


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


@given(small_dg_algebras(), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_dense_oracle_agrees_on_random_dg_algebras(dg, m, L):
    # the dense elimination is cubic in the basis, so lower the cutoff of
    # the larger (Ginzburg) quivers until L + 1 has at most 1,000 words
    while L > 1 and len(naive_words(dg.quiver, L + 1)) > 1000:
        L -= 1
    at_l = naive_truncated_dims(dg, m, L)
    rep = homology_dims(dg, m, L)
    assert rep.dims == at_l
    assert rep.stabilized == (at_l == naive_truncated_dims(dg, m, L + 1))


def _cancelling_dg():
    # d(u w) = u p w + (-1)^{|u|} u p w = 0
    q = GradedQuiver(
        ["v"],
        [Arrow("u", "v", "v", -1), Arrow("w", "v", "v", 0), Arrow("p", "v", "v", 1)],
    )
    return DgAlgebra(
        q,
        {"u": element(q, (1, ("u", "p"))), "w": element(q, (1, ("p", "w")))},
    )


def _vertex_named_like_an_arrow_dg():
    # the trivial path at "a" is keyed "a", the arrow a is keyed ("a",);
    # a trivial key read as a word would give a row d(a) = a p
    q = GradedQuiver(["a"], [("a", "a", "a", 0), ("p", "a", "a", 1)])
    return DgAlgebra(q, {"a": element(q, (1, ("a", "p")))})


def _length_one_dg():
    # d(u) = w is a single arrow, so lmin = 1 and every path of length
    # <= L may have a nonzero row; d(x) = w w adds length-2 terms
    q = GradedQuiver(
        ["v"], [("u", "v", "v", -1), ("w", "v", "v", 0), ("x", "v", "v", -1)]
    )
    return DgAlgebra(
        q, {"u": element(q, (1, ("w",))), "x": element(q, (1, ("w", "w")))}
    )


def _length_three_dg():
    # every term of every d has length 3, so only paths of length <= L - 2
    # have nonzero rows at cutoff L
    q = GradedQuiver(
        ["v"],
        [("a", "v", "v", 0), ("b", "v", "v", 0), ("e", "v", "v", -1), ("f", "v", "v", -2)],
    )
    return DgAlgebra(
        q,
        {
            "e": element(q, (1, ("a", "a", "b")), (-1, ("b", "a", "a"))),
            "f": element(q, (2, ("e", "a", "b"))),
        },
    )


@given(small_dg_algebras())
@example(_cancelling_dg())
@example(_length_one_dg())
@example(_length_three_dg())
@example(_vertex_named_like_an_arrow_dg())
@settings(max_examples=40, deadline=None)
def test_build_truncated_matrices_match_naive_d(dg):
    # entry by entry, keyed by words, at cutoffs around the longest term
    q = dg.quiver
    deg = lambda w: sum(q.arrow(n).degree for n in w)
    longest = max(
        len(p) for name in dg.arrow_names() for p in dg.d(name).terms
    )
    degrees = range(-3, 2)
    for cutoff in (longest - 1, longest, longest + 1):
        cx = build_truncated(dg, cutoff, degrees)
        words = naive_words(q, cutoff)
        for d in degrees:
            basis = q.paths_by_degree(cutoff, d, d)[d]
            target = q.paths_by_degree(cutoff, d + 1, d + 1)[d + 1]
            # the counts are `path_counts`, the keys the walk's: they agree
            assert len(cx.components[d]) == len(basis)
            mx = cx.matrices[d]
            assert (mx.rows, mx.cols) == (cx.dim(d), len(target))
            for keys, e in ((basis, d), (target, d + 1)):
                # trivial paths are keyed by their vertex names, in degree 0
                assert [k for k in keys if type(k) is str] == (
                    list(q.vertices) if e == 0 else []
                )
                assert {k for k in keys if type(k) is tuple} == {
                    w for w in words if deg(w) == e
                }
            got = {}
            for (i, j), c in mx.entries.items():
                got.setdefault(basis[i], {})[target[j]] = c  # columns in basis order
            want = {}
            for w in words:
                if deg(w) == d:
                    row = {w2: c for w2, c in naive_d(dg, w).items() if len(w2) <= cutoff}
                    if row:
                        want[w] = row
            assert got == want, (cutoff, d)


@given(small_dg_algebras(), st.integers(0, 5))
@example(_vertex_named_like_an_arrow_dg(), 2)  # d is nonzero on degree 0
@example(_cancelling_dg(), 3)
@settings(max_examples=60, deadline=None)
def test_row_maker_hands_the_matrix_rows_last_first(dg, cutoff):
    # a degree's maker hands its sink exactly the rows of the matrix of d,
    # last basis path first, and the span filled from it has sympy's rank
    cx = build_truncated(dg, cutoff, range(-3, 2))
    for d in cx.components:
        got = []
        cx.rows(d, got.append)
        mx = cx.matrices[d]
        assert list(mx._by_row) == sorted(mx._by_row)
        assert got == list(reversed(mx._by_row.values())), d
        by_row = {i: {j: QQ(v) for j, v in row.items()} for i, row in mx._by_row.items()}
        oracle = DomainMatrix(by_row, (mx.rows, mx.cols), QQ).rank()
        assert cx.row_space(d).rank == oracle, d


@given(small_dg_algebras(), st.integers(1, 4), st.integers(0, 5))
@example(_vertex_named_like_an_arrow_dg(), 1, 2)  # d is nonzero on degree 0
@example(_cancelling_dg(), 3, 3)
@settings(max_examples=60, deadline=None)
def test_homology_dims_is_two_separate_passes(dg, m, cutoff):
    # one elimination per degree gives what a pass at L and one at L + 1 give
    from dgquiver import homology

    at = {n: build_truncated(dg, n, range(-m, 1)) for n in (cutoff, cutoff + 1)}
    passes = {n: dict(enumerate(homology._dims_from_complex(cx, m))) for n, cx in at.items()}
    rep = homology_dims(dg, m, cutoff)
    assert rep.dims == passes[cutoff]
    assert rep.stabilized is (passes[cutoff] == passes[cutoff + 1])
    for d in range(-m, 1):
        # the cutoff-L rank is the pivot count on the columns of length <= L,
        # counted by the degree d + 1 paths: for d = 0 those lie outside the
        # window, so `components` does not hold them and `path_counts` must
        short = dg.quiver.path_counts(cutoff, d + 1, d + 1)[d + 1]
        assert short == at[cutoff].matrices[d].cols
        space = RowSpace(at[cutoff + 1].matrices[d]._by_row.values())
        assert bisect_left(space.pivot_columns(), short) == rank(at[cutoff].matrices[d]), d


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
