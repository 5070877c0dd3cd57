import importlib.util
import itertools
import math
import pathlib
import random
import re
import sys
from collections import Counter
from copy import copy
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, eye

import dgquiver
from dgquiver import (
    Arrow,
    GradedQuiver,
    NotAdmissibleError,
    Path,
    PathElement,
    Relation,
    TruncatedIdealSpan,
    algebra_dim,
    bound_is_valid,
    certifies_non_membership,
    certify,
    dsl,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    generates_arrow_power,
    ginzburg_from_relations,
    homology_dims,
    split_extension_check,
    system_of_relations,
)
from dgquiver.ideals import _check_relations, _integer_terms
from dgquiver.linalg import RowSpace

from conftest import (
    assert_same_span,
    element,
    random_acyclic_quiver,
    random_quiver,
    random_relations,
    zero_relation,
)


def loop_quiver():
    return GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])


def loop_square_relation(q):
    return [Relation("r", "v", "v", element(q, (1, ("a", "a"))))]


# ---------- an independent dense oracle ----------
# Ideal data recomputed from scratch: words as plain strings, dense rows,
# hand-rolled elimination.  Used to freeze the quaternion numbers.


def oracle_words(alphabet, upto):
    words = [""]
    for ell in range(1, upto + 1):
        words.extend("".join(w) for w in itertools.product(alphabet, repeat=ell))
    return words


def oracle_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        piv = None
        for i, r in enumerate(rows):
            if not used[i] and r[c]:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        rank += 1
        for i, r in enumerate(rows):
            if i != piv and r[c]:
                f = Fraction(r[c], rows[piv][c])
                for j in range(cols):
                    r[j] -= f * rows[piv][j]
    return rank


def quaternion_oracle_dims():
    """dim I/(Ir + rI) and dim KQ/I for the quaternion-type ideal, by brute
    force over words of the two loops."""
    gens = {  # word -> coefficient, per generator
        "r1": {"aa": 1, "bab": -1},
        "r2": {"bb": 1, "aba": -1},
        "r3": {"aab": 1},
    }
    n = 5
    words6 = oracle_words("ab", n)  # supports of length <= 5 (bound 6)
    index6 = {w: i for i, w in enumerate(words6)}

    def rows_for(bound_words, index, min_frame):
        rows = []
        frame_words = oracle_words("ab", n)
        for g in gens.values():
            for u in frame_words:
                for v in frame_words:
                    if len(u) + len(v) < min_frame:
                        continue
                    row = [Fraction(0)] * len(index)
                    hit = False
                    for w, c in g.items():
                        word = u + w + v
                        if word in index:
                            row[index[word]] = Fraction(c)
                            hit = True
                    if hit:
                        rows.append(row)
        return rows

    full = oracle_rank(rows_for(words6, index6, 0))
    boundary = oracle_rank(rows_for(words6, index6, 1))
    words5 = oracle_words("ab", 4)
    index5 = {w: i for i, w in enumerate(words5)}
    ideal_rank = oracle_rank(rows_for(words5, index5, 0))
    return full - boundary, len(words5) - ideal_rank


def test_quaternion_oracle_agrees(quaternion):
    q, rels = quaternion
    boundary_dim, quotient_dim = quaternion_oracle_dims()
    assert (boundary_dim, quotient_dim) == (2, 8)
    assert algebra_dim(q, rels, 5) == quotient_dim
    assert ext2_dim(q, rels, 5) == boundary_dim


# ---------- admissibility bounds ----------


def test_bound_loop_square():
    q = loop_quiver()
    assert find_admissibility_bound(q, loop_square_relation(q)) == 2


def test_bound_quaternion(quaternion):
    q, rels = quaternion
    assert find_admissibility_bound(q, rels, max_n=12) == 5
    for n in (2, 3, 4):
        assert not bound_is_valid(TruncatedIdealSpan(q, rels, n + 1))
    assert bound_is_valid(TruncatedIdealSpan(q, rels, 6))


def test_bound_acyclic_no_relations(square):
    q, _ = square
    assert find_admissibility_bound(q, []) == 3


def test_bound_requires_r2(square):
    q, _ = square
    short = [Relation("s", "v1", "v2", element(q, (1, ("alpha",))))]
    with pytest.raises(ValueError):
        find_admissibility_bound(q, short)


def test_bound_search_exhaustion():
    # a free loop: r^n is never inside the zero ideal
    q = loop_quiver()
    assert find_admissibility_bound(q, [], max_n=6) is None


# ---------- dimensions and membership ----------


def test_algebra_dim_quaternion(quaternion):
    q, rels = quaternion
    assert algebra_dim(q, rels, 5) == 8


def test_algebra_dim_square(square):
    q, rels = square
    n = find_admissibility_bound(q, rels)
    assert n == 3
    assert algebra_dim(q, rels, n) == 9


def test_algebra_dim_loop_square():
    q = loop_quiver()
    assert algebra_dim(q, loop_square_relation(q), 2) == 2


def test_algebra_dim_rejects_bad_bound(quaternion):
    q, rels = quaternion
    with pytest.raises(NotAdmissibleError):
        algebra_dim(q, rels, 3)


def test_membership_of_generators(quaternion):
    q, rels = quaternion
    ideal = certify(q, rels, 5)
    for r in rels:
        assert ideal.contains(r.body)


def test_membership_displayed_identity(quaternion):
    # a^2 b = r1 * b + b a * r2 + b a^2 b a lies in I r + r I, and in I
    q, rels = quaternion
    aab = element(q, (1, ("a", "a", "b")))
    ideal = certify(q, rels, 5)
    assert ideal.contains(aab)
    combo = (
        rels[0].body * element(q, (1, ("b",)))
        + element(q, (1, ("b", "a"))) * rels[1].body
        + element(q, (1, ("b", "a", "a", "b", "a")))
    )
    assert combo == aab  # the identity itself, exactly
    assert ideal.boundary_image_vanishes(aab)


def test_membership_needs_room(quaternion):
    q, rels = quaternion
    too_long = element(q, (1, tuple("ab" * 3)))
    with pytest.raises(ValueError):
        certify(q, rels, 5).contains(too_long)


def test_ideal_questions_refuse_bad_arguments(quaternion):
    # an element outside the ideal has no image in I/(I r + r I), a span
    # needs bound >= 1, and the exact proof needs room for length n
    q, rels = quaternion
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        certify(q, rels, 5).boundary_image_vanishes(element(q, (1, ("a", "b"))))
    with pytest.raises(ValueError, match="bound must be >= 1"):
        TruncatedIdealSpan(q, rels, 0)
    with pytest.raises(ValueError, match="max_expr_len must be at least n"):
        generates_arrow_power(q, rels, 5, 4)


def test_contains_names_an_unknown_arrow():
    # an element over another quiver whose arrow the span's quiver lacks is
    # the quiver's error, even far below the bound; a path of the quiver at
    # or past the bound is refused by its length, though the quiver's column
    # frame, grown by a longer span, already holds it
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
    rels = [Relation("r", "v", "v", element(q, (1, ("a", "a"))))]
    TruncatedIdealSpan(q, rels, 7)
    span = TruncatedIdealSpan(q, rels, 4)
    other = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("c", "v", "v", 0)])
    assert span.contains(element(other, (1, ("a", "a"))))
    with pytest.raises(KeyError, match="unknown arrow 'c'"):
        span.contains(element(other, (1, ("c",))))
    assert ("a",) * 5 in span.index
    for x in (element(q, (1, ("a",) * 4)), element(q, (1, ("b",)), (2, ("a", "b") * 3))):
        with pytest.raises(ValueError, match="raise the bound"):
            span.contains(x)


# ---------- the two-generator subideal and the witness ----------


def test_two_generator_subideal_not_exactly_generating(quaternion):
    q, rels = quaternion
    sub = rels[:2]
    assert generates_arrow_power(q, rels, 5, 8)
    assert not generates_arrow_power(q, sub, 5, 8)


def test_witness_certifies_non_membership(quaternion):
    q, rels = quaternion
    sub = rels[:2]
    rep_dims = {"v": 1}
    rep_mats = {"a": [[1]], "b": [[1]]}
    aab = element(q, (1, ("a", "a", "b")))
    val = evaluate_in_representation(q, rep_dims, rep_mats, aab)
    assert val == [[Fraction(1)]]
    assert certifies_non_membership(q, sub, rep_dims, rep_mats, aab)
    # the same witness does not separate the full ideal (it kills nothing):
    assert not certifies_non_membership(q, rels, rep_dims, rep_mats, aab)


def test_witness_identity_and_zero_representation(quaternion):
    q, rels = quaternion
    e = PathElement(q, {q.trivial_path("v"): 1})
    assert evaluate_in_representation(q, {"v": 2}, {"a": [[0, 0], [0, 0]], "b": [[0, 0], [0, 0]]}, e) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    zero_val = evaluate_in_representation(
        q, {"v": 2}, {"a": [[0, 0], [0, 0]], "b": [[0, 0], [0, 0]]},
        element(q, (1, ("a", "b"))),
    )
    assert zero_val == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]


def test_witness_names_a_missing_matrix_or_dimension(quaternion):
    q, rels = quaternion
    ab = element(q, (1, ("a", "b")))
    with pytest.raises(ValueError, match="no matrix given for arrow 'b'"):
        evaluate_in_representation(q, {"v": 1}, {"a": [[1]]}, ab)
    with pytest.raises(ValueError, match="no matrix given for arrow 'b'"):
        certifies_non_membership(q, rels, {"v": 1}, {"a": [[1]]}, ab)
    with pytest.raises(ValueError, match="no dimension given for vertex 'v'"):
        evaluate_in_representation(q, {}, {"a": [[1]], "b": [[1]]}, ab)
    with pytest.raises(ValueError, match="no dimension given for vertex 'v'"):
        evaluate_in_representation(q, {}, {}, PathElement(q, {q.trivial_path("v"): 1}))


@pytest.mark.parametrize("bad", [-1, 1.0, True, "1", None])
def test_witness_refuses_a_dimension_that_is_not_a_natural_number(quaternion, bad):
    # a negative dimension would size the identity of e_v as [], which reads
    # as zero; every read dimension must be an int >= 0, and the message
    # names the vertex, also when the representation is asked to certify
    q, rels = quaternion
    e = PathElement(q, {q.trivial_path("v"): 1})
    aab = element(q, (1, ("a", "a", "b")))
    message = re.escape(f"dimension of vertex 'v' is not an int >= 0: {bad!r}")
    with pytest.raises(ValueError, match=message):
        evaluate_in_representation(q, {"v": bad}, {}, e)
    with pytest.raises(ValueError, match=message):
        evaluate_in_representation(q, {"v": bad}, {"a": [[1]], "b": [[1]]}, aab)
    with pytest.raises(ValueError, match=message):
        certifies_non_membership(q, rels[:2], {"v": bad}, {"a": [[1]], "b": [[1]]}, aab)
    with pytest.raises(ValueError, match=message):
        certifies_non_membership(q, [], {"v": bad}, {}, e)


def test_witness_refuses_mixed_endpoints_and_zero(square):
    # an element without one source and one target, or with no term, has no
    # matrix size to evaluate to
    q, _ = square
    dims = {v: 1 for v in q.vertices}
    mats = {a.name: [[1]] for a in q.arrows}
    with pytest.raises(ValueError, match="uniform source and target"):
        evaluate_in_representation(q, dims, mats, element(q, (1, ("alpha",)), (1, ("gamma",))))
    with pytest.raises(ValueError, match="zero element"):
        evaluate_in_representation(q, dims, mats, PathElement.zero(q))


def test_witness_skips_zero_relations(quaternion):
    # a zero relation is never evaluated (its evaluation has no size), so it
    # neither refutes the witness nor raises
    q, rels = quaternion
    aab = element(q, (1, ("a", "a", "b")))
    sub = [zero_relation(q, "z")] + rels[:2]
    assert certifies_non_membership(q, sub, {"v": 1}, {"a": [[1]], "b": [[1]]}, aab)


def test_witness_never_separates_zero():
    # 0 lies in every ideal, so no representation certifies it outside one;
    # the relations are evaluated first, so a bad matrix still raises
    q = loop_quiver()
    rels = loop_square_relation(q)
    zero = PathElement.zero(q)
    assert not certifies_non_membership(q, rels, {"v": 1}, {"a": [[0]]}, zero)
    assert not certifies_non_membership(q, [], {"v": 1}, {}, zero)
    with pytest.raises(ValueError, match=re.escape("matrix for 'a' is not 1 x 1")):
        certifies_non_membership(q, rels, {"v": 1}, {"a": [[0, 0]]}, zero)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_matches_sympy_products(data):
    # differential oracle: sympy's products summed over the terms, on quivers
    # with dimension-0 vertices, p/q and string entries, trivial-path terms
    # and terms of mixed length; then each refusal, with its message
    vertices = [f"v{i}" for i in range(data.draw(st.integers(1, 3)))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    q = GradedQuiver(vertices, [
        Arrow(f"a{i}", s, t, 0)
        for i, (s, t) in enumerate(data.draw(st.lists(ends, min_size=1, max_size=4)))
    ])
    dims = {v: data.draw(st.integers(0, 2)) for v in vertices}
    entry = st.sampled_from([0, 1, -2, Fraction(1, 3), "2/5", "-1"])
    mats = {
        a.name: [[data.draw(entry) for _ in range(dims[a.target])] for _ in range(dims[a.source])]
        for a in q.arrows
    }
    start = data.draw(st.sampled_from(vertices))
    walks = frontier = [((), start)]
    for _ in range(3):
        frontier = [
            (w + (a.name,), a.target) for w, v in frontier for a in q.arrows if a.source == v
        ]
        walks = walks + frontier
    end = data.draw(st.sampled_from(sorted({v for _, v in walks})))
    words = data.draw(st.lists(st.sampled_from([w for w, v in walks if v == end]),
                               min_size=1, max_size=4, unique=True))
    coeffs = [data.draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)])) for _ in words]
    x = PathElement.zero(q)
    for c, w in zip(coeffs, words):
        x = x + PathElement(q, {q.path(w) if w else q.trivial_path(start): c})

    def matrix(name):
        a = q.arrow(name)
        flat = [Rational(str(v)) for row in mats[name] for v in row]
        return Matrix(dims[a.source], dims[a.target], flat)

    want = Matrix.zeros(dims[start], dims[end])
    for c, w in zip(coeffs, words):
        product = eye(dims[start])
        for name in w:
            product = product * matrix(name)
        want += Rational(str(c)) * product
    got = evaluate_in_representation(q, dims, mats, x)
    assert len(got) == dims[start] and all(len(row) == dims[end] for row in got)
    assert all(type(v) is Fraction for row in got for v in row)
    assert Matrix(dims[start], dims[end], [Rational(str(v)) for row in got for v in row]) == want

    used = sorted({name for w in words for name in w})
    if used:
        without = {k: v for k, v in mats.items() if k != used[0]}
        with pytest.raises(ValueError, match=f"no matrix given for arrow '{used[0]}'"):
            evaluate_in_representation(q, dims, without, x)
        a = q.arrow(used[0])
        taller = {**mats, a.name: mats[a.name] + [[0] * dims[a.target]]}
        shape = f"matrix for '{a.name}' is not {dims[a.source]} x {dims[a.target]}"
        with pytest.raises(ValueError, match=shape):
            evaluate_in_representation(q, dims, taller, x)
    unsized = {v: d for v, d in dims.items() if v != start}
    with pytest.raises(ValueError, match=f"no dimension given for vertex '{start}'"):
        evaluate_in_representation(q, unsized, mats, x)


# ---------- systems of relations ----------


def test_system_drops_duplicate(square):
    q, rels = square
    doubled = rels + [Relation("r_dup", "v1", "v4", rels[0].body)]
    out = system_of_relations(q, doubled, 3)
    assert len(out) == 1


def test_system_drops_scalar_multiple(square):
    q, rels = square
    doubled = rels + [Relation("r2", "v1", "v4", 2 * rels[0].body)]
    out = system_of_relations(q, doubled, 3)
    assert len(out) == 1


def test_system_quaternion_keeps_all_three(quaternion):
    q, rels = quaternion
    out = system_of_relations(q, rels, 5)
    assert [r.label for r in out] == ["r1", "r2", "r3"]


def test_system_drops_zero_entries(square):
    q, rels = square
    padded = [zero_relation(q, "z", "v1")] + rels
    out = system_of_relations(q, padded, 3)
    assert [r.label for r in out] == ["r"]


# ---------- the boundary quotient ----------


def test_boundary_dim_square(square):
    q, rels = square
    assert ext2_dim(q, rels, 3) == 1


def test_boundary_dim_quaternion(quaternion):
    q, rels = quaternion
    assert ext2_dim(q, rels, 5) == 2


def test_ext2_hereditary_vanishes(square):
    q, _ = square
    assert ext2_dim(q, [], 3) == 0


def test_spans_boundary_quotient_cases(quaternion):
    q, rels = quaternion
    ideal = certify(q, rels, 5)
    assert ideal.spans_boundary_quotient(rels)
    # the two-element subset spans the quotient although it does not
    # generate the ideal
    assert ideal.spans_boundary_quotient(rels[:2])
    assert not ideal.spans_boundary_quotient([])


def test_spans_boundary_quotient_checks_membership(quaternion):
    q, rels = quaternion
    outside = [Relation("x", "v", "v", element(q, (1, ("a", "b"))))]
    with pytest.raises(ValueError):
        certify(q, rels, 5).spans_boundary_quotient(outside)


# ---------- split extensions at m = 2 ----------


def test_split_extension_square(square):
    q, rels = square
    assert split_extension_check(q, rels, 3) is None


def test_split_extension_no_relations(square):
    q, _ = square
    assert split_extension_check(q, [], 3) is None


def test_split_extension_a2():
    a2 = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    assert split_extension_check(a2, [], 2) is None


def test_split_extension_names_each_failed_condition(square, monkeypatch):
    # a presentation that lost the input relation fails (i), and one with an
    # extra relation whose term avoids the reversed arrow fails (ii)
    from dgquiver import ideals

    q, rels = square
    h0 = ideals.h0_presentation

    def dropped(dg):
        big, h0_rels = h0(dg)
        return big, [rel for rel in h0_rels if "eps_r" in rel.arrows_used()]

    def added(dg):
        big, h0_rels = h0(dg)
        return big, h0_rels + [PathElement.from_path(big, ("alpha", "beta"))]

    monkeypatch.setattr(ideals, "h0_presentation", dropped)
    assert split_extension_check(q, rels, 3) == (
        "input relations missing from the degree-0 presentation: ['alpha*beta - gamma*delta']"
    )
    monkeypatch.setattr(ideals, "h0_presentation", added)
    assert split_extension_check(q, rels, 3) == (
        "extra relation alpha*beta has a term with no reversed arrow"
    )


def test_split_extension_reads_no_bound(quaternion, monkeypatch):
    # the proof of (i) and (ii) uses no admissibility: at n = 3, which is not
    # a bound for the quaternion-type ideal, the check answers and builds no span
    q, rels = quaternion
    with pytest.raises(NotAdmissibleError):
        certify(q, rels, 3)
    built = []
    init = TruncatedIdealSpan.__init__
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", lambda *a: built.append(1) or init(*a))
    assert split_extension_check(q, rels, 3) is None
    assert built == []


def _path(key):
    return Path(key) if type(key) is tuple else Path(base=key)


def _span_keys(span):
    """The keys of the span's own columns, the paths of length < bound, in
    column order; the quiver's frame may hold longer paths after them."""
    return list(itertools.islice(span.index, span.quiver._frame.columns(span.bound)))


def _normal_form(span, x):
    """Canonical normal form of x modulo the span, x cut below the bound: the
    one element of x + span with no term on a pivot of `span.space`, found by
    `Fraction` elimination against its pivot rows on the span's columns."""
    x = x.truncate(span.bound - 1)
    res = {span.index[p.key]: Fraction(c) for p, c in x.terms.items()}
    pivots = span.space._pivots
    while (hit := min(res.keys() & pivots.keys(), default=None)) is not None:
        coef = res[hit] / pivots[hit][hit]
        for c, v in pivots[hit].items():
            res[c] = res.get(c, 0) - coef * v
        res = {c: v for c, v in res.items() if v}
    keys = _span_keys(span)
    return PathElement(span.quiver, {_path(keys[i]): c for i, c in res.items()})


def _complement_basis(span):
    """The paths whose classes form a basis of the quotient by the span: the
    span's columns that are not pivots of `span.space`."""
    pivots = set(span.space.pivot_columns())
    return [_path(key) for i, key in enumerate(_span_keys(span)) if i not in pivots]


def _split_condition_iii(q, relations, n, cap):
    """Slow oracle for condition (iii): inclusion into the doubled quiver
    followed by projection fixes the normal form of every basis path of
    KQ/(R), the normal forms over the doubled quiver read at a bound for the
    degree-0 ideal J found by the operational search.  None when J has no
    bound up to `cap`, else whether (iii) holds."""
    from dgquiver.dg import reverse_arrow_name
    from dgquiver.homology import h0_presentation

    span = certify(q, relations, n)
    relations = span.relations
    big, h0_rels = h0_presentation(ginzburg_from_relations(q, relations, 2))
    eps_names = {reverse_arrow_name(r.label) for r in relations}
    h0_relations = [
        Relation(f"h0_{k}", big.source_of(next(iter(rel.terms))),
                 big.target_of(next(iter(rel.terms))), rel)
        for k, rel in enumerate(h0_rels)
        if not rel.is_zero()
    ]
    big_n = find_admissibility_bound(big, h0_relations, max_n=cap)
    if big_n is None:
        return None
    big_span = TruncatedIdealSpan(big, h0_relations, max(n, big_n))
    for p in _complement_basis(span):
        x = PathElement(q, {p: Fraction(1)})
        nf_big = _normal_form(big_span, x.rebind(big)).terms.items()
        projected = PathElement(q, {pp: c for pp, c in nf_big if not set(pp.arrows) & eps_names})
        if not span.contains((projected - x).truncate(span.bound - 1)):
            return False
    return True


def test_split_extension_agrees_with_normal_form_oracle():
    # (i) and (ii) prove (iii); where J has a bound the oracle confirms it,
    # and where it has none the check still answers
    ended = unbounded = 0
    for seed in range(200):
        rng = random.Random(seed)
        q = random_acyclic_quiver(rng) if seed % 2 else random_quiver(rng)
        rels = random_relations(rng, q, max_count=3)
        n = find_admissibility_bound(q, rels, max_n=6)
        if n is None:
            continue
        holds = _split_condition_iii(q, rels, n, cap=6)
        assert holds in (None, True)
        ended += holds is True
        unbounded += holds is None
        assert split_extension_check(q, rels, n) is None
    assert ended and unbounded


# ---------- invariants ----------


def test_membership_bound_independent(quaternion):
    q, rels = quaternion
    probes = [
        element(q, (1, ("a", "a"))),
        element(q, (1, ("a", "b"))),
        element(q, (1, ("a", "a", "b"))),
        element(q, (1, ("b", "a", "b")), (2, ("a", "a"))),
        element(q, (1, tuple("ababa")), (1, ("a", "b"))),  # length n is exact
    ]
    at_5, at_7 = certify(q, rels, 5), certify(q, rels, 7)
    for x in probes:
        assert at_5.contains(x) == at_7.contains(x)


def test_system_output_properties(quaternion):
    q, rels = quaternion
    out = system_of_relations(q, rels, 5)
    # the output generates: removing nothing changes nothing
    assert generates_arrow_power(q, out, 5, 8)
    # and is minimal against single removals
    for k in range(len(out)):
        candidate = out[:k] + out[k + 1:]
        assert not generates_arrow_power(q, candidate, 5, 8)


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_certified_span_cut_to_bound_is_span_at_bound(seed):
    # system_of_relations and algebra_dim read the span at bound n off the
    # certified span at bound n + 1
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3)
    n = find_admissibility_bound(q, rels, max_n=5)
    assume(n is not None)
    certified = certify(q, rels, n)
    at_n = TruncatedIdealSpan(q, rels, n)
    length_n = sum(1 for p in q.enumerate_paths(n) if len(p) == n)
    assert certified.rank - length_n == at_n.rank
    assert algebra_dim(q, rels, n) == certified.dim() == at_n.dim()


def test_system_at_least_ext2_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 8:
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q, max_count=4, allow_zero=True)
        n = find_admissibility_bound(q, rels)
        assert n is not None  # acyclic quivers always admit a bound
        assert len(system_of_relations(q, rels, n)) >= ext2_dim(q, rels, n)
        done += 1


def test_spanning_plus_admissible_means_equal_ideal(square):
    # a candidate whose classes span the boundary quotient and which
    # exactly generates r^n spans the whole ideal
    q, rels = square
    n = 3
    candidate = [Relation("c", "v1", "v4", 3 * rels[0].body)]
    assert certify(q, rels, n).spans_boundary_quotient(candidate)
    assert generates_arrow_power(q, candidate + rels, n, 6)
    from dgquiver import TruncatedIdealSpan

    assert (
        TruncatedIdealSpan(q, candidate, n).rank
        == TruncatedIdealSpan(q, rels, n).rank
    )


def test_h0_dimension_cross_check(quaternion):
    # dim H^0 of the truncated complex equals the ideal-theoretic dimension
    # once the cutoff clears the admissibility bound
    from dgquiver import build_truncated
    from dgquiver.linalg import rank

    q, rels = quaternion
    dg = ginzburg_from_relations(q, rels, 3)
    for cutoff in (5, 7):
        cx = build_truncated(dg, cutoff, range(-1, 1))
        ranks = {d: rank(mx) for d, mx in cx.matrices.items()}
        h0 = cx.dim(0) - ranks[0] - ranks[-1]
        assert h0 == algebra_dim(q, rels, 5) == 8


# p/q coefficients, so that the per-relation scale of the integer rows shows
PQ_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3))


def _relation(q, label, rng, *words):
    """The relation sum of c * word over `words`, each c drawn from PQ_COEFFS."""
    p = q.path(words[0])
    body = PathElement(q, {q.path(w): Fraction(rng.choice(PQ_COEFFS)) for w in words})
    return Relation(label, q.source_of(p), q.target_of(p), body)


def commuting_loops(k):
    """One vertex, loops x0..x{k-1}, the commutators x_i x_j - x_j x_i
    (i < j) and the squares x_i x_i."""
    loops = [f"x{i}" for i in range(k)]
    q = GradedQuiver(["v"], [Arrow(x, "v", "v", 0) for x in loops])
    rels = [
        Relation(f"c{x}{y}", "v", "v", element(q, (1, (x, y)), (-1, (y, x))))
        for i, x in enumerate(loops) for y in loops[i + 1:]
    ]
    rels += [Relation(f"q{x}", "v", "v", element(q, (1, (x, x)))) for x in loops]
    return q, rels


FAMILIES = ("commuting", "grid", "monomial", "quaternion")
QUATERNION_THIRD = (None, ("a", "b"), ("b", "a"), ("a", "a", "b"), ("a", "b", "a", "b"))


def family_ideal(rng, kind):
    """A quiver with relations of one family, p/q coefficients drawn by rng.

    Graded, each relation homogeneous in arrow counts modulo a proper D:
    "commuting", 2 or 3 loops with every q-commutator x y - c y x and most
    squares x x; "grid", a 2x2 to 3x3 grid of vertices with most commuting
    squares; "monomial", a random quiver with 1 to 3 monomial relations.
    Not graded by length: "quaternion", two loops with a a - c b a b,
    b b - c' a b a and one monomial from QUATERNION_THIRD (or none).  Half
    of the draws append a redundant relation (`_consequence`), so that some
    relations can be dropped.
    """
    if kind == "commuting":
        loops = [f"x{i}" for i in range(rng.randint(2, 3))]
        q = GradedQuiver(["v"], [Arrow(x, "v", "v", 0) for x in loops])
        rels = [
            _relation(q, f"c{x}{y}", rng, (x, y), (y, x))
            for i, x in enumerate(loops) for y in loops[i + 1:]
        ]
        rels += [_relation(q, f"q{x}", rng, (x, x)) for x in loops if rng.random() < 0.8]
    elif kind == "grid":
        rows, cols = rng.randint(2, 3), rng.randint(2, 3)
        arrows = [Arrow(f"h{i}{j}", f"v{i}{j}", f"v{i}{j + 1}", 0)
                  for i in range(rows) for j in range(cols - 1)]
        arrows += [Arrow(f"d{i}{j}", f"v{i}{j}", f"v{i + 1}{j}", 0)
                   for i in range(rows - 1) for j in range(cols)]
        q = GradedQuiver([f"v{i}{j}" for i in range(rows) for j in range(cols)], arrows)
        rels = [
            _relation(q, f"s{i}{j}", rng, (f"h{i}{j}", f"d{i}{j + 1}"), (f"d{i}{j}", f"h{i + 1}{j}"))
            for i in range(rows - 1) for j in range(cols - 1) if rng.random() < 0.8
        ]
    elif kind == "monomial":
        q = random_quiver(rng)
        words = [p.arrows for p in q.enumerate_paths(3) if len(p) >= 2]
        rels = [_relation(q, f"m{k}", rng, w) for k, w in enumerate(
            rng.sample(words, min(len(words), rng.randint(1, 3)))
        )]
    else:
        q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
        rels = [
            _relation(q, "r1", rng, ("a", "a"), ("b", "a", "b")),
            _relation(q, "r2", rng, ("b", "b"), ("a", "b", "a")),
        ]
        third = rng.choice(QUATERNION_THIRD)
        if third:
            rels.append(_relation(q, "r3", rng, third))
    if rels and rng.random() < 0.5:
        rels.append(_consequence(q, rels, rng))
    return q, rels


def _consequence(q, rels, rng):
    """A relation redundant over `rels`: a combination of one or two
    products u * rho * v with |u| + |v| <= 1 and the same endpoints."""
    by_ends = {}
    for rel in rels:
        by_ends.setdefault((rel.source, rel.target), []).append(rel.body)
        for a in q.arrows:
            arrow = PathElement.from_path(q, (a.name,))
            for x in (arrow * rel.body, rel.body * arrow):
                if not x.is_zero():
                    p = next(iter(x.terms))
                    by_ends.setdefault((q.source_of(p), q.target_of(p)), []).append(x)
    ends = rng.choice(sorted(by_ends))
    chosen = rng.sample(by_ends[ends], min(2, len(by_ends[ends])))
    body = sum((Fraction(rng.choice(PQ_COEFFS)) * x for x in chosen), PathElement.zero(q))
    return Relation("cons", *ends, body)


def _two_sided_products(relations, us, vs, index, max_len: int, *, truncate: bool):
    """Yield u * rho * v as an integer row {index[word]: coefficient} for each
    relation rho, each u of the walk levels `us` ending where rho starts and
    each v of the walk levels `vs` starting where rho ends, read off the walk
    tuples (`q._walk`); the slow generator that the chains of `ideals` are
    checked against.  `index` maps path keys (`Path.key`) to columns; a
    product has positive length, so its key is its word.

    Each body is read once as (arrow tuple, int) terms by ascending length
    (`_integer_terms`), which leaves the span unchanged.  For fixed u and v
    distinct terms t give distinct words u t v, so a row needs no
    accumulation.  With `truncate`, a product is kept when its shortest term
    has length <= max_len and is cut to length <= max_len; otherwise every
    term must fit and nothing is cut.  The order is fixed by `relations`,
    `us` and `vs`.  As the levels come by length, the loops stop at the first
    u, and the first v for a given u, that leaves no room.
    """
    by_target, by_source = {}, {}  # vertex: the paths of `us` into it, of `vs` out of it
    for path in itertools.chain.from_iterable(us):  # (arrows, source, target, degree)
        by_target.setdefault(path[2], []).append(path)
    for path in itertools.chain.from_iterable(vs):
        by_source.setdefault(path[1], []).append(path)
    for rel in relations:
        terms = _integer_terms(rel.body)
        if not terms:
            continue  # zero relation spans nothing
        room = max_len - len(terms[0 if truncate else -1][0])
        for u, *_ in by_target.get(rel.source, ()):
            if len(u) > room:
                break
            for v, *_ in by_source.get(rel.target, ()):
                if len(u) + len(v) > room:
                    break
                cap = max_len - len(u) - len(v)
                yield {index[u + t + v]: c for t, c in terms if len(t) <= cap}


def _oracle_products(q, relations, paths, max_len, *, truncate, boundary_only=False, vs=None):
    """u * rho * v as `PathElement` products over all pairs (u, v) of paths
    (v of `vs` if given), each cut to length <= max_len with `truncate`; the
    slow oracle for the integer rows of `_two_sided_products`.  Yields
    (relation, product)."""
    for rel in relations:
        body = rel.body.rebind(q)
        ml = body.min_length() if truncate else body.max_length()
        if ml is None:
            continue
        for u, v in itertools.product(paths, paths if vs is None else vs):
            if (q.target_of(u), q.source_of(v)) != (rel.source, rel.target):
                continue
            if len(u) + len(v) + ml > max_len:
                continue
            if boundary_only and len(u) + len(v) == 0:
                continue
            prod = PathElement(q, {u: Fraction(1)}) * body * PathElement(q, {v: Fraction(1)})
            yield rel, prod.truncate(max_len) if truncate else prod


def _oracle_space(q, relations, paths, max_len, *, truncate, boundary_only=False):
    index = {p: i for i, p in enumerate(paths)}
    space = RowSpace()
    for _, prod in _oracle_products(
        q, relations, paths, max_len, truncate=truncate, boundary_only=boundary_only
    ):
        space.add({index[p]: c for p, c in prod.terms.items()})
    return space


# The u and v level ranges are those the spans read: all pairs, u trivial
# with v nontrivial or trivial, u nontrivial with any v, and one drawn pair.
@given(st.integers(0, 2**32), st.integers(0, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_two_sided_products_match_all_pairs_filter(seed, max_len, truncate):
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
    levels = list(q._walk(max_len))
    paths = q.enumerate_paths(max_len)
    index = {p: i for i, p in enumerate(paths)}
    keys = {p.key: i for p, i in index.items()}
    lengths = range(max_len + 1)
    drawn = [slice(*sorted(rng.choices(range(max_len + 2), k=2))) for _ in range(2)]
    whole, trivial, rest = slice(None), slice(0, 1), slice(1, None)
    for us, vs in ((whole, whole), (trivial, rest), (trivial, trivial), (rest, whole), drawn):
        want = []
        for rel, prod in _oracle_products(
            q, rels, [p for p in paths if len(p) in lengths[us]], max_len,
            truncate=truncate, vs=[p for p in paths if len(p) in lengths[vs]],
        ):
            scale = math.lcm(*(c.denominator for c in rel.body.terms.values()))
            want.append({index[p]: c * scale for p, c in prod.terms.items()})
        got = list(_two_sided_products(rels, levels[us], levels[vs], keys, max_len, truncate=truncate))
        assert got == want
        assert all(type(c) is int for row in got for c in row.values())


# The examples fix a quiver whose vertex is named like its arrow, with the
# relation a*a - 3/4 a*a*a from seed 3: the trivial path at "a" and the
# arrow a must take two distinct columns.  Otherwise the quiver is drawn
# from the seed.  With `boundary_only` the span's rows are those of I r + r I
# on its own columns, as `TruncatedIdealSpan` records them.
@given(st.integers(0, 2**32), st.integers(1, 4), st.booleans(), st.none())
@example(3, 4, False, GradedQuiver(["a"], [("a", "a", "a", 0)]))
@example(3, 4, True, GradedQuiver(["a"], [("a", "a", "a", 0)]))
@settings(max_examples=60, deadline=None)
def test_span_matches_path_element_oracle(seed, bound, boundary_only, quiver):
    rng = random.Random(seed)
    q = random_quiver(rng) if quiver is None else quiver
    rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
    span = TruncatedIdealSpan(q, rels, bound)
    if boundary_only:
        span.space = copy(span._boundary_space)
    paths = q.enumerate_paths(bound - 1)
    index = {p: i for i, p in enumerate(paths)}
    oracle = _oracle_space(
        q, rels, paths, bound - 1, truncate=True, boundary_only=boundary_only
    )
    assert _span_keys(span) == [p.key for p in paths]
    assert span.rank == oracle.rank
    assert_same_span(span.space, oracle)
    pivots = set(oracle.pivot_columns())
    assert _complement_basis(span) == [p for i, p in enumerate(paths) if i not in pivots]
    for _ in range(5):
        support = rng.sample(paths, rng.randint(1, min(4, len(paths))))
        x = PathElement(q, {p: rng.choice(PQ_COEFFS) for p in support})
        assert span.contains(x) == oracle.contains({index[p]: c for p, c in x.terms.items()})

    n = rng.randint(1, 3)
    max_expr_len = min(4, n + rng.randint(0, 2))
    all_paths = q.enumerate_paths(max_expr_len)
    generated = _oracle_space(q, rels, all_paths, max_expr_len, truncate=False)
    want = all(
        generated.contains({i: 1}) for i, p in enumerate(all_paths) if len(p) == n
    )
    assert generates_arrow_power(q, rels, n, max_expr_len) == want


def _span(q, relations, max_len, *, truncate):
    """(levels, index, span) of every product u * rho * v over the walk to
    max_len, with no block filter; the slow oracle for the spans of `ideals`."""
    levels = list(q._walk(max_len))
    index = {p.key: i for i, p in enumerate(q.enumerate_paths(max_len))}
    rows = _two_sided_products(relations, levels, levels, index, max_len, truncate=truncate)
    return levels, index, RowSpace(rows)


def _holds_length(space, levels, n):
    """Whether every path of length n, eliminated alone, lies in the space
    over the columns of the walk levels (none past the walk's end); the
    slow oracle for the level test."""
    start = sum(map(len, levels[:n]))
    stop = start + sum(map(len, levels[n:n + 1]))
    return all(space.contains({i: 1}) for i in range(start, stop))


def _all_rows_generates_arrow_power(q, relations, n, max_expr_len):
    """`generates_arrow_power` over the span of every product that fits in
    max_expr_len; the slow oracle for the exact chain."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_expr_len < n:
        raise ValueError("max_expr_len must be at least n")
    relations = _check_relations(q, relations)
    levels, _, space = _span(q, relations, max_expr_len, truncate=False)
    return _holds_length(space, levels, n)


# Seed 2 draws the quaternion-type family with the third relation a*b.  Then
# a a a = a * r1 + (a b) * (a b) up to scalars, an expression whose products
# have terms of lengths 3 and 4; at n = 3 it needs a product with no term of
# length 3, which enters the exact chain only at bound 5.
@given(st.integers(0, 2**32), st.sampled_from(FAMILIES), st.integers(0, 4), st.integers(0, 3))
@example(2, "quaternion", 3, 1)
@settings(max_examples=60, deadline=None)
def test_generates_arrow_power_matches_all_rows(seed, kind, n, extra):
    q, rels = family_ideal(random.Random(seed), kind)
    want = _all_rows_generates_arrow_power(q, rels, n, n + extra)
    assert generates_arrow_power(q, rels, n, n + extra) == want


# degree 0 of the truncated complex is KQ / ((R) + r^(L+1)), which is
# KQ / ((R) + r^N) once L >= N - 1 (the homology_dims docstring)
@given(st.integers(0, 2**32), st.sampled_from(FAMILIES))
@settings(max_examples=12, deadline=None)
def test_dim_h0_is_the_certified_dimension_on_family_draws(seed, kind):
    q, rels = family_ideal(random.Random(seed), kind)
    n = find_admissibility_bound(q, rels, max_n=5)
    assume(n is not None)
    gamma = ginzburg_from_relations(q, rels, 3)
    dim = certify(q, rels, n).dim()
    for cutoff in (n - 1, n):
        assert homology_dims(gamma, 3, cutoff).dims[0] == dim, cutoff


def test_span_construction_validates_relations(square):
    # the integer kernel assumes every term runs from rel.source to
    # rel.target and has positive length; invalid relations must raise
    # rather than lose the terms that do not compose
    q, (rel,) = square
    rho = rel.body
    starts = "relation 'wrong_source': term starts at 'v1', expected 'v2'"
    ends = "relation 'wrong_target': term ends at 'v4', expected 'v3'"
    for rels, message in (
        ([Relation("wrong_source", "v2", "v4", rho)], f"{starts}; {starts}"),
        ([Relation("wrong_target", "v1", "v3", rho)], f"{ends}; {ends}"),
        (
            [Relation("trivial", "v1", "v1", PathElement(q, {q.trivial_path("v1"): 1}))],
            "relation 'trivial': relation contains a length-0 term",
        ),
        ([rel, rel], "duplicate relation label 'r'"),
    ):
        msg = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=msg):
            TruncatedIdealSpan(q, rels, 4)
        with pytest.raises(ValueError, match=msg):
            ext2_dim(q, rels, 3)
        with pytest.raises(ValueError, match=msg):
            generates_arrow_power(q, rels, 3, 4)
        with pytest.raises(ValueError, match=msg):
            split_extension_check(q, rels, 3)
        for n in (1, 3):
            with pytest.raises(ValueError, match=msg):
                certify(q, rels, n)


def test_span_construction_builds_no_path(quaternion, monkeypatch):
    # spans read the walk's tuples and keys; only validating the relations,
    # which reads their terms, may build a Path or look up an endpoint
    from dgquiver import ideals

    q, rels = quaternion
    calls = []
    validating = False

    def counted(fn):
        def wrapper(*args):
            if not validating:
                calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    def check_uncounted(*args):
        nonlocal validating
        validating = True
        try:
            return check(*args)
        finally:
            validating = False

    check = ideals._check_relations
    monkeypatch.setattr(ideals, "_check_relations", check_uncounted)
    monkeypatch.setattr(Path, "__post_init__", counted(Path.__post_init__))
    monkeypatch.setattr(GradedQuiver, "target_of", counted(GradedQuiver.target_of))
    monkeypatch.setattr(GradedQuiver, "source_of", counted(GradedQuiver.source_of))
    TruncatedIdealSpan(q, rels, 6)
    assert ext2_dim(q, rels, 5) == 2
    certify(q, rels, 5)
    assert generates_arrow_power(q, rels, 5, 8)
    assert calls == []


def test_generates_arrow_power_length_checks(square):
    q = loop_quiver()
    rels = loop_square_relation(q)
    with pytest.raises(ValueError, match="n must be >= 0"):
        generates_arrow_power(q, [], -1, 3)
    # n = 0 asks about the trivial paths, which no relation in r^2 reaches
    assert not generates_arrow_power(q, rels, 0, 3)
    assert not generates_arrow_power(q, rels, 0, 0)
    assert generates_arrow_power(q, rels, 2, 3)
    # max_expr_len = n allows the relation a a itself, not a * (a a)
    assert generates_arrow_power(q, rels, 2, 2)
    assert not generates_arrow_power(q, [], 3, 3)
    # the walk on the square stops at length 2, so r^3 = 0 and r^6 = 0 hold
    # vacuously, the exact chain grown past the walk's end
    assert generates_arrow_power(square[0], [], 3, 4)
    assert generates_arrow_power(square[0], [], 6, 6)
    assert not generates_arrow_power(square[0], [], 2, 4)


def test_certify_validates_once(quaternion, monkeypatch):
    from dgquiver import ideals

    q, rels = quaternion
    calls = []
    check = ideals._check_relations
    monkeypatch.setattr(
        ideals, "_check_relations", lambda *a: calls.append(1) or check(*a)
    )
    certify(q, rels, 5)
    assert len(calls) == 1


ROOT = pathlib.Path(__file__).resolve().parents[1]
_WORKLOADS = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
W = sys.modules[_WORKLOADS.name] = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(W)
_SPECS = {
    "comm4": lambda: W.commutative_spec(4),
    "comm3+red": lambda: W.commutative_spec(3, redundant=True),
    "grid4": lambda: W.grid_spec(4),
}


def _old_system_of_relations(q, relations, n):
    """`system_of_relations` with each candidate ranked by a span of its own."""
    max_expr_len = n + max((r.body.max_length() or 1 for r in relations), default=1)
    current = [r for r in relations if not r.body.is_zero()]
    rank_n = TruncatedIdealSpan(q, relations, n).rank
    k = 0
    while k < len(current):
        candidate = current[:k] + current[k + 1:]
        if (
            TruncatedIdealSpan(q, candidate, n).rank == rank_n
            and generates_arrow_power(q, candidate, n, max_expr_len)
        ):
            current = candidate
        else:
            k += 1
    return current


# Seed 47 draws three commuting loops and cons = c_x0x1 / 2 + 2/3 c_x1x2 x0,
# so c_x0x1 is dropped through the product c_x1x2 x0, whose shortest term is
# longer than those of c_x0x1.
@given(st.integers(0, 2**32), st.sampled_from((None,) + FAMILIES + tuple(_SPECS)))
@example(47, "commuting")
@example(1, "comm3+red")
@settings(max_examples=40, deadline=None)
def test_certified_span_columns_serve_every_span_of_a_call(seed, kind):
    # at a bound n that was found, the boundary span, each candidate span and
    # the normal forms read off the certified span at bound n + 1 equal
    # standalone constructions; where a leave-one-out candidate generates r^n
    # exactly, its spanning I/(I r + r I), the drop test of
    # system_of_relations, agrees with its keeping the truncated span (the
    # exact proof, the slow part, is asked only where the two differ)
    rng = random.Random(seed)
    if kind is None:
        q = random_quiver(rng)
        rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
        n = find_admissibility_bound(q, rels, max_n=4)
    elif kind in _SPECS:
        pf = dsl.parse(W.rescaled_text(_SPECS[kind](), rng))
        q, rels, n = pf.quiver, pf.relations, W.IDEAL_EXPECTED[kind][0]
    else:
        q, rels = family_ideal(rng, kind)
        n = find_admissibility_bound(q, rels, max_n=4)
    assume(n is not None)
    span = certify(q, rels, n)
    boundary = span._boundary_space
    paths = q.enumerate_paths(n)
    if kind in _SPECS:  # the path-element oracle takes seconds on comm4
        oracle = _old_boundary(span)
    else:
        oracle = _oracle_space(q, rels, paths, n, truncate=True, boundary_only=True)
    assert (boundary.rank, boundary.pivot_columns()) == (oracle.rank, oracle.pivot_columns())

    rank_n = TruncatedIdealSpan(q, rels, n).rank
    max_expr_len = n + max((r.body.max_length() or 1 for r in rels), default=1)
    levels = list(q._walk(span.bound - 1))
    for k in range(len(rels)):
        candidate = rels[:k] + rels[k + 1:]
        rows = _two_sided_products(candidate, levels, levels, span.index, n - 1, truncate=True)
        rank = RowSpace(rows).rank
        assert rank == TruncatedIdealSpan(q, candidate, n).rank
        if span.spans_boundary_quotient(candidate) != (rank == rank_n):
            assert not generates_arrow_power(q, candidate, n, max_expr_len)
    assert system_of_relations(q, rels, n) == _old_system_of_relations(q, rels, n)

    below = [p for p in paths if len(p) < n]
    xs = [
        PathElement(q, {p: rng.choice(PQ_COEFFS) for p in rng.sample(below, min(4, len(below)))})
        for _ in range(5)
    ]
    for b in (n, n + 1, n + 2):
        other = TruncatedIdealSpan(q, rels, b)
        assert _complement_basis(span) == _complement_basis(other)
        assert [_normal_form(span, x) for x in xs] == [_normal_form(other, x) for x in xs]
        if b == span.bound:
            assert_same_span(span.space, other.space)


def test_ideal_call_walks_and_validates_once(quaternion, monkeypatch):
    # every span of a quiver, certified, boundary, candidate or proof, reads
    # the quiver's one column frame, so the first call walks the quiver and
    # no later one walks it again; each span checks its relations once, and
    # the minimal system's one generation proof on quaternion builds one span
    from dgquiver import ideals

    q, rels = quaternion
    calls, proving, walked = [], [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append("proof " + name if proving else name)
            return fn(*args, **kwargs)
        return wrapper

    def proof(*args, _prove=ideals.generates_arrow_power):
        calls.append("proof")
        proving.append(1)
        try:
            return _prove(*args)
        finally:
            proving.pop()

    def walk(self, *args, _walk=GradedQuiver._walk):
        walked.append(len(calls))
        return _walk(self, *args)

    monkeypatch.setattr(ideals, "_check_relations", counted("check", ideals._check_relations))
    monkeypatch.setattr(GradedQuiver, "_walk", walk)
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", counted("span", TruncatedIdealSpan.__init__))
    monkeypatch.setattr(ideals, "generates_arrow_power", proof)
    for call in (
        lambda: ext2_dim(q, rels, 5),
        lambda: certify(q, rels, 5).boundary_image_vanishes(rels[0].body),
        lambda: certify(q, rels, 5).spans_boundary_quotient(rels),
        lambda: system_of_relations(q, rels, 5),
        lambda: generates_arrow_power(q, rels, 5, 8),
        lambda: certify(q, rels, 7).dim(),
    ):
        calls.clear()
        call()
        if "proof" in calls:
            assert sorted(calls) == ["check", "proof", "proof check", "proof span", "span"]
        else:
            assert sorted(calls) == ["check", "span"]
    assert walked == [2]  # in the first call, once its span has checked the relations
    assert GradedQuiver(q.vertices, q.arrows)._frame is not q._frame


def _ideal_answers(q, rels, n):
    """What the spans of (q, rels) answer at bound n: the certified span's
    dim, rank, pivots, ext2 and minimal system, a shorter span's rank and
    pivots, and a generation proof."""
    span = certify(q, rels, n)
    shorter = TruncatedIdealSpan(q, rels, n)
    return (
        span.dim(), span.rank, span.space.pivot_columns(), span.ext2(),
        [r.label for r in span.minimal_system()],
        shorter.rank, shorter.space.pivot_columns(), shorter.dim(),
        generates_arrow_power(q, rels, n, n + 1),
    )


@given(st.integers(0, 2**32), st.sampled_from(FAMILIES), st.booleans())
@settings(max_examples=30, deadline=None)
def test_spans_answer_alike_after_longer_spans_of_the_quiver(seed, kind, exact_first):
    # the spans of a quiver share its column frame, which a longer span or an
    # exact proof grew first past their bounds; they answer as on a fresh
    # copy of the quiver, whose frame holds only their own columns
    rng = random.Random(seed)
    q, rels = family_ideal(rng, kind)
    n = find_admissibility_bound(GradedQuiver(q.vertices, q.arrows), rels, max_n=4)
    assume(n is not None)
    if exact_first:
        generates_arrow_power(q, rels, 1, n + 3)
    else:
        TruncatedIdealSpan(q, rels, n + 4)
    assert len(q._frame.offsets) - 1 == len(list(q._walk(n + 3)))  # levels 0..n+3, or all
    assert _ideal_answers(q, rels, n) == _ideal_answers(GradedQuiver(q.vertices, q.arrows), rels, n)


def test_boundary_is_an_independent_span(quaternion):
    # the boundary questions and the minimal system grow copies of the
    # recorded pivots or only read them, so asking them changes neither the
    # span, nor ext2, nor the recorded boundary
    q, rels = quaternion
    span = certify(q, rels, 5)

    def state():
        boundary = span._boundary_space
        return span.rank, span.space.pivot_columns(), span.ext2(), boundary.pivot_columns()

    before = state()
    for _ in range(2):
        assert span.spans_boundary_quotient(rels)
        assert not span.spans_boundary_quotient(rels[:1])
        assert not span.boundary_image_vanishes(rels[0].body)
        assert span.minimal_system() == rels
    assert state() == before


def test_ext2_eliminates_nothing_after_certify(monkeypatch):
    # four commuting loops with squares: the boundary rank is recorded while
    # the certified span is built, so ext2 and the boundary membership test
    # add no row (rebuilding I r + r I added 3,120)
    q, rels = commuting_loops(4)
    n = find_admissibility_bound(q, rels, max_n=6)
    span = certify(q, rels, n)
    added = []
    add = RowSpace.add
    monkeypatch.setattr(RowSpace, "add", lambda self, row: added.append(1) or add(self, row))
    assert span.ext2() == len(rels)
    assert span.boundary_image_vanishes(element(q, (1, ("x0", "x1", "x1"))))
    assert added == []
    assert len(_old_boundary(span).pivot_columns()) == span.rank - len(rels)
    assert len(added) == 3120


def _old_boundary(span):
    """I r + r I rebuilt from its rows on the span's columns, as the span's
    boundary was built before the span recorded its boundary pivots: the products with u
    trivial and v nontrivial, then those with u nontrivial and any v."""
    n = span.bound - 1
    levels = list(span.quiver._walk(n))
    return RowSpace(itertools.chain(
        _two_sided_products(span.relations, levels[:1], levels[1:], span.index, n, truncate=True),
        _two_sided_products(span.relations, levels[1:], levels, span.index, n, truncate=True),
    ))


@given(st.integers(0, 2**32), st.sampled_from(FAMILIES))
@settings(max_examples=40, deadline=None)
def test_recorded_boundary_matches_a_rebuilt_one(seed, kind):
    # the boundary-first span spans what the one-pass construction spans, and
    # ext2 and the boundary questions answer as on a rebuilt boundary
    rng = random.Random(seed)
    q, rels = family_ideal(rng, kind)
    n = find_admissibility_bound(q, rels, max_n=4)
    assume(n is not None)
    span = certify(q, rels, n)
    one_pass = _span(q, rels, n, truncate=True)[2]
    assert (span.rank, span.space.pivot_columns()) == (one_pass.rank, one_pass.pivot_columns())
    old = _old_boundary(span)
    assert span.ext2() == span.rank - old.rank
    assert span._boundary_space.pivot_columns() == old.pivot_columns()
    products = [x for _, x in _oracle_products(q, rels, q.enumerate_paths(n), n, truncate=True)]
    for x in rng.sample(products, min(6, len(products))):
        assert span.boundary_image_vanishes(x) == old.contains(span._vector(x))
    fitting = [r for r in rels if (r.body.max_length() or 0) <= n]
    for k in range(len(fitting) + 1):
        old = _old_boundary(span)
        for r in fitting[:k]:
            old.add(span._vector(r.body))
        assert span.spans_boundary_quotient(fitting[:k]) == (old.rank == span.rank)


def test_boundary_questions_cut_long_elements_to_the_bound():
    # N = 4 and the consequence cons has a term of length 5, which lies in
    # r^5 <= r I: both boundary questions cut it and answer, while
    # membership still asks for room
    q, rels = family_ideal(random.Random(911568727), "quaternion")
    n = find_admissibility_bound(q, rels)
    assert n == 4 and rels[-1].label == "cons" and rels[-1].body.max_length() == 5
    span = certify(q, rels, n)
    cons = rels[-1].body
    assert span.spans_boundary_quotient(rels)
    assert span.spans_boundary_quotient(rels[:-1])
    assert not span.spans_boundary_quotient(rels[-1:])
    old = _old_boundary(span)
    assert span.boundary_image_vanishes(cons) == old.contains(span._vector(cons.truncate(n)))
    with pytest.raises(ValueError, match="raise the bound"):
        span.contains(cons)


def _short_term_ideal(rng):
    """Two loops with a - c b b and b b b: a relation with a term of length
    1, whose cut a at level 1 the arrows shift into level 2, so a chain of
    levels started at level 2 misses b a in the span at bound 3.  N = 3,
    which `certify` refuses, the relation lying outside r^2."""
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 0)])
    return q, [_relation(q, "s", rng, ("a",), ("b", "b")), _relation(q, "t", rng, ("b",) * 3)], 3


@given(st.integers(0, 2**32), st.sampled_from(FAMILIES + tuple(_SPECS) + ("short",)))
@example(1, "short")
@settings(max_examples=40, deadline=None)
def test_level_by_level_span_matches_the_one_pass_span(seed, kind):
    # the certified span, built level by level from shifted pivot rows, has
    # the pivots and normal forms of the span of every cut product, and its
    # recorded boundary the pivots of I r + r I rebuilt from its rows; so do
    # the spans at the lower bounds that the bound search builds
    rng = random.Random(seed)
    if kind == "short":
        q, rels, n = _short_term_ideal(rng)
    elif kind in _SPECS:
        pf = dsl.parse(W.rescaled_text(_SPECS[kind](), rng))
        q, rels, n = pf.quiver, pf.relations, W.IDEAL_EXPECTED[kind][0]
    else:
        q, rels = family_ideal(rng, kind)
        n = find_admissibility_bound(q, rels, max_n=4)
        assume(n is not None)
    if kind == "short":
        with pytest.raises(ValueError, match=re.escape("relations not inside r^2: ['s']")):
            certify(q, rels, n)
        span = TruncatedIdealSpan(q, rels, n + 1)
    else:
        span = certify(q, rels, n)
    one_pass = _span(q, rels, n, truncate=True)[2]
    assert_same_span(span.space, one_pass)
    assert span._boundary_space.pivot_columns() == _old_boundary(span).pivot_columns()
    for bound in range(1, n + 1):
        lower = TruncatedIdealSpan(q, rels, bound)
        assert lower.space.pivot_columns() == _span(q, rels, bound - 1, truncate=True)[2].pivot_columns()
        assert lower._boundary_space.pivot_columns() == _old_boundary(lower).pivot_columns()


@given(
    st.integers(0, 2**32),
    st.sampled_from(FAMILIES + tuple(_SPECS) + ("a*a - a*a*a", "acyclic", "sink")),
)
@example(1, "comm4")
@example(1, "comm3+red")
@example(1, "grid4")
@example(1, "a*a - a*a*a")
@example(1, "acyclic")
@example(1, "sink")
@settings(max_examples=40, deadline=None)
def test_one_chain_holds_the_products_rho_v(seed, kind):
    # S_k, grown from the left shifts of S_{k-1} and the right shifts of the
    # rows that raised its rank, holds every product rho * v cut to length
    # <= k in the recorded boundary plus the cut relations, and S_k and the
    # boundary have the pivots and normal forms of the one-pass span and of
    # I r + r I rebuilt, at every bound 1..N+1, N the bound or else the
    # search's cap; an acyclic quiver runs past its walk, and in "sink" the
    # relation a c raises the rank at level 2 and ends at w, which no arrow
    # leaves (N = 3)
    rng = random.Random(seed)
    if kind == "acyclic":
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q)
        cap = len(list(q._walk(sys.maxsize)))
    elif kind == "sink":
        q = GradedQuiver(["v", "w"], [Arrow("a", "v", "v", 0), Arrow("c", "v", "w", 0)])
        rels = [_relation(q, "r", rng, ("a",) * 3, ("a",) * 4), _relation(q, "s", rng, ("a", "c"))]
        cap = 5
    else:
        q, rels = _search_input(rng, kind)
        cap = 7 if kind in _SPECS else 5
    top = (find_admissibility_bound(q, rels, max_n=cap) or cap) + 1
    for bound in range(1, top + 1):
        span = TruncatedIdealSpan(q, rels, bound)
        n = bound - 1
        levels = list(q._walk(n))
        held = copy(span._boundary_space)
        for row in _two_sided_products(rels, levels[:1], levels[:1], span.index, n, truncate=True):
            held.add(row)
        for row in _two_sided_products(rels, levels[:1], levels, span.index, n, truncate=True):
            assert held.contains(row), bound
        oracles = [
            (span.space, _span(q, rels, n, truncate=True)[2]),
            (span._boundary_space, _old_boundary(span)),
        ]
        for got, oracle in oracles:
            assert_same_span(got, oracle)


def test_certify_refuses_relations_outside_r2():
    # a - a a has a term of length 1, which the bound search already refused;
    # certify, and so every question read off it, refuses it the same way
    q = loop_quiver()
    rels = [Relation("r", "v", "v", element(q, (1, ("a",)), (-1, ("a", "a"))))]
    msg = re.escape("relations not inside r^2: ['r']")
    for call in (certify, algebra_dim, ext2_dim, system_of_relations):
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match=msg):
                call(q, rels, n)
    with pytest.raises(ValueError, match=msg):
        find_admissibility_bound(q, rels)


def _spec_or_family(kind, rng):
    """(q, relations, N) for a benchmark spec or a family draw (N = 5 when
    the draw has no bound up to 5)."""
    if kind in _SPECS:
        pf = dsl.parse(W.rescaled_text(_SPECS[kind](), rng))
        return pf.quiver, pf.relations, W.IDEAL_EXPECTED[kind][0]
    q, rels = family_ideal(rng, kind)
    return q, rels, find_admissibility_bound(q, rels, max_n=5) or 5


@pytest.mark.parametrize("kind", FAMILIES + ("comm4", "grid4"))
def test_span_construction_calls_no_product_generator(kind):
    # the exact chain grows, as the certified one, from shifted pivot rows
    # and the relations alone, and builds no product u * rho * v; yet at
    # every bound 1..N+1 it has the pivots and normal forms of the span of
    # every product whose terms all fit below the bound
    q, rels, n = _spec_or_family(kind, random.Random(0))
    span = TruncatedIdealSpan(q, rels, 1)
    while span.bound <= n + 1:
        assert_same_span(span.space, _span(q, rels, span.bound - 1, truncate=False)[2])
        span._grow(exact=True)


@pytest.mark.parametrize("kind", list(W.IDEAL_EXPECTED))
def test_exact_proof_matches_all_rows_on_the_benchmark_ideals(kind):
    # every leave-one-out candidate of the ideal pipeline's five ideals, at
    # the bound and expression length that the minimal system asks
    pf = {name: pf for name, pf, _ in W._ideal_inputs(dgquiver, ROOT, random.Random(0))}[kind]
    q, rels, n = pf.quiver, pf.relations, W.IDEAL_EXPECTED[kind][0]
    max_expr_len = n + max((r.body.max_length() or 1 for r in rels), default=1)
    for k in range(len(rels)):
        candidate = rels[:k] + rels[k + 1:]
        want = _all_rows_generates_arrow_power(q, candidate, n, max_expr_len)
        assert generates_arrow_power(q, candidate, n, max_expr_len) == want, rels[k].label


def test_exact_proof_stops_at_the_first_level_that_holds(monkeypatch):
    # comm3+red without `red` generates r^4 with products that fit in length
    # 4, so the proof stops at bound 5 where max_expr_len = 7 allows bound 8;
    # without c01 as well it answers False once it has grown to bound 8
    q, rels, _ = _spec_or_family("comm3+red", random.Random(0))
    assert [r.label for r in rels[:2]] == ["red", "c01"]
    grown = []
    grow = TruncatedIdealSpan._grow
    monkeypatch.setattr(
        TruncatedIdealSpan, "_grow", lambda self, **k: grown.append(self.bound + 1) or grow(self, **k)
    )
    assert generates_arrow_power(q, rels[1:], 4, 7)
    assert grown == [1, 2, 3, 4, 5]
    grown.clear()
    assert not generates_arrow_power(q, rels[2:], 4, 7)
    assert grown == list(range(1, 9))


@pytest.mark.parametrize(
    "kind, proofs", [("comm4", 0), ("grid4", 0), ("quaternion", 1), ("comm3+red", 1)]
)
def test_minimal_system_reads_the_recorded_boundary(kind, proofs, quaternion, monkeypatch):
    # each drop test reads the certified span's recorded I r + r I: where ext2
    # equals the number of relations no candidate spans I/(I r + r I), so no
    # span is built (a span per candidate took 10 product generator calls on
    # comm4 and 9 on grid4); elsewhere each candidate that spans it asks for
    # one exact generation proof, which grows the only span built
    from dgquiver import ideals

    if kind == "quaternion":
        (q, rels), n = quaternion, 5
    else:
        q, rels, n = _spec_or_family(kind, random.Random(0))
    span = certify(q, rels, n)
    assert (span.ext2() == len(rels)) == (proofs == 0)
    want = _old_system_of_relations(q, rels, n)
    calls = Counter()
    prove, init = ideals.generates_arrow_power, TruncatedIdealSpan.__init__
    monkeypatch.setattr(ideals, "generates_arrow_power", lambda *a: calls.update(["proof"]) or prove(*a))
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", lambda *a: calls.update(["span"]) or init(*a))
    assert span.minimal_system() == want
    assert calls == Counter({"proof": proofs, "span": proofs})


@pytest.mark.parametrize(
    "kind, work",
    [("comm4", {"_eliminate": 380, "take_on": 24}), ("grid4", {"_eliminate": 153, "take_on": 168})],
    ids=["comm4", "grid4"],
)
def test_search_and_certify_do_the_same_work(kind, work, monkeypatch):
    # the search grows its span through the steps of one construction at
    # its bound, so both make the same eliminations and `take_on` calls:
    # only the right shifts of the rows that raised the rank and the cut
    # relations are eliminated, and each arrow takes on one level's pivots
    q, rels, n = _spec_or_family(kind, random.Random(0))
    calls = Counter()
    for name in ("_eliminate", "take_on"):
        method = getattr(RowSpace, name)
        monkeypatch.setattr(
            RowSpace, name, lambda self, *a, _m=method, _n=name: calls.update([_n]) or _m(self, *a)
        )
    assert certify(q, rels, n).bound == n + 1
    once = dict(calls)
    assert once == work
    calls.clear()
    assert certify(q, rels).bound == n + 1
    assert calls == once


# ---------- the bound search grows one span ----------


def _per_n_search(q, relations, max_n):
    """The per-n bound search: `certify(q, R, n)` for n = 2, 3, ..., each n a
    span of its own; the slow oracle of `certify(q, R, max_n=...)`."""
    for n in range(2, max_n + 1):
        try:
            return certify(q, relations, n)
        except NotAdmissibleError:
            pass
    return None


def _search_input(rng, kind):
    if kind in _SPECS:
        pf = dsl.parse(W.rescaled_text(_SPECS[kind](), rng))
        return pf.quiver, pf.relations
    if kind == "a*a - a*a*a":
        q = loop_quiver()
        return q, [_relation(q, "r", rng, ("a", "a"), ("a", "a", "a"))]
    if kind == "no arrows":
        return GradedQuiver(["v", "w"]), []
    return family_ideal(rng, kind)


@given(
    st.integers(0, 2**32),
    st.sampled_from(FAMILIES + tuple(_SPECS) + ("a*a - a*a*a", "no arrows")),
)
@example(1, "comm4")
@example(1, "grid4")
@example(1, "a*a - a*a*a")
@example(1, "no arrows")
@settings(max_examples=40, deadline=None)
def test_grown_search_matches_the_per_n_search(seed, kind):
    # one span grown level by level finds the bound of the per-n search, and
    # its span has the pivots, boundary pivots and normal forms of the span
    # that the per-n search certified
    rng = random.Random(seed)
    q, rels = _search_input(rng, kind)
    max_n = 7 if kind in _SPECS else 5
    old = _per_n_search(q, rels, max_n)
    assert find_admissibility_bound(q, rels, max_n=max_n) == (old and old.bound - 1)
    if old is None:
        with pytest.raises(NotAdmissibleError, match=f"no admissibility bound up to {max_n}"):
            certify(q, rels, max_n=max_n)
        return
    span = certify(q, rels, max_n=max_n)
    assert (span.bound, _span_keys(span)) == (old.bound, _span_keys(old))
    assert_same_span(span.space, old.space)
    assert span._boundary_space.pivot_columns() == old._boundary_space.pivot_columns()
    assert (span.dim(), span.ext2()) == (old.dim(), old.ext2())


def test_search_stops_at_its_cap(quaternion, square):
    q, rels = quaternion
    assert certify(q, rels, max_n=5).bound == 6
    assert find_admissibility_bound(q, rels, max_n=5) == 5
    assert find_admissibility_bound(q, rels, max_n=4) is None
    with pytest.raises(NotAdmissibleError, match=re.escape("no admissibility bound up to 4")):
        certify(q, rels, max_n=4)
    # the square's walk runs out after length 2, so length 3 holds no path
    q, _ = square
    assert find_admissibility_bound(q, [], max_n=3) == 3
    assert find_admissibility_bound(q, [], max_n=2) is None


def test_search_refuses_bad_input_before_building(quaternion, monkeypatch):
    q, rels = quaternion
    built = []
    init = TruncatedIdealSpan.__init__
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", lambda *a: built.append(1) or init(*a))
    for max_n in (1, 0, -3):
        with pytest.raises(ValueError, match="max_n must be >= 2"):
            certify(q, rels, max_n=max_n)
        with pytest.raises(ValueError, match="max_n must be >= 2"):
            find_admissibility_bound(q, rels, max_n=max_n)
    short = [Relation("s", "v", "v", element(q, (1, ("a",)), (-1, ("a", "b"))))]
    with pytest.raises(ValueError, match=re.escape("relations not inside r^2: ['s']")):
        certify(q, short)
    assert built == []


@pytest.mark.parametrize("kind, max_n, found", [
    ("quaternion", 12, 5),
    ("grid4", 12, 7),
    ("free loop", 6, None),
])
def test_search_grows_one_span(kind, max_n, found, quaternion, monkeypatch):
    # one span, tested once at every n = 2..N (2..max_n when none is found);
    # grid4 is acyclic and its walk ends at length 6, so n = 7 holds no path
    from dgquiver import ideals

    if kind == "quaternion":
        q, rels = quaternion
    elif kind == "grid4":
        pf = dsl.parse(W.rescaled_text(_SPECS[kind](), random.Random(0)))
        q, rels = pf.quiver, pf.relations
    else:
        q, rels = loop_quiver(), []
    built, tested = [], []
    init = TruncatedIdealSpan.__init__
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", lambda *a: built.append(1) or init(*a))
    test = ideals.bound_is_valid
    monkeypatch.setattr(ideals, "bound_is_valid", lambda span: tested.append(span.bound - 1) or test(span))
    assert find_admissibility_bound(q, rels, max_n=max_n) == found
    assert len(built) == 1
    assert tested == list(range(2, (found or max_n) + 1))


# ---------- the bound test reads the top level's pivots ----------


@given(
    st.integers(0, 2**32),
    st.sampled_from(FAMILIES + tuple(_SPECS) + ("a*a - a*a*a", "acyclic")),
)
@example(1, "comm4")
@example(1, "comm3+red")
@example(1, "grid4")
@example(1, "a*a - a*a*a")
@example(1, "acyclic")
@settings(max_examples=40, deadline=None)
def test_bound_test_agrees_with_the_per_path_test(seed, kind):
    # counting the top level's pivots answers as eliminating each path of
    # length n does, at every n = 0..N+2, N the bound or else the search's
    # cap; an acyclic quiver is tested past the end of its walk
    rng = random.Random(seed)
    if kind == "acyclic":
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q)
        cap = len(list(q._walk(sys.maxsize)))
    else:
        q, rels = _search_input(rng, kind)
        cap = 7 if kind in _SPECS else 5
    top = (find_admissibility_bound(q, rels, max_n=cap) or cap) + 2
    for n in range(top + 1):
        span = TruncatedIdealSpan(q, rels, n + 1)
        assert bound_is_valid(span) == _holds_length(span.space, list(q._walk(n)), n), n


def test_bound_test_eliminates_no_path(monkeypatch):
    # certify at n = 5 on comm4 eliminates only the rows it adds (380),
    # and the search asks `RowSpace.contains` nothing: the bound test counts
    # pivots instead of eliminating each of the 1,024 paths of length 5
    pf = dsl.parse(W.rescaled_text(_SPECS["comm4"](), random.Random(0)))
    q, rels = pf.quiver, pf.relations
    calls = Counter()
    for name in ("_eliminate", "contains"):
        method = getattr(RowSpace, name)
        monkeypatch.setattr(
            RowSpace, name, lambda self, row, _m=method, _n=name: calls.update([_n]) or _m(self, row)
        )
    assert certify(q, rels, 5).bound == 6
    assert calls == {"_eliminate": 380}
    calls.clear()
    assert certify(q, rels).bound == 6
    assert calls["contains"] == 0
