import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    GradedQuiver,
    NotAdmissibleError,
    Path,
    PathElement,
    Relation,
    TruncatedIdealSpan,
    algebra_dim,
    boundary_image_vanishes,
    bound_is_valid,
    certifies_non_membership,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    generates_arrow_power,
    ginzburg_from_relations,
    homology_dims,
    ideal_membership,
    spans_boundary_quotient,
    split_extension_check,
    system_of_relations,
)
from dgquiver.dg import validate_relations
from dgquiver.ideals import _boundary_spans, _require_bound, _two_sided_products
from dgquiver.linalg import RowSpace

from conftest import (
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
        assert not bound_is_valid(q, rels, n)


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
    for r in rels:
        assert ideal_membership(q, rels, 5, r.body)


def test_membership_displayed_identity(quaternion):
    # a^2 b = r1 * b + b a * r2 + b a^2 b a lies in I r + r I, and in I
    q, rels = quaternion
    aab = element(q, (1, ("a", "a", "b")))
    assert ideal_membership(q, rels, 5, aab)
    combo = (
        rels[0].body * element(q, (1, ("b",)))
        + element(q, (1, ("b", "a"))) * rels[1].body
        + element(q, (1, ("b", "a", "a", "b", "a")))
    )
    assert combo == aab  # the identity itself, exactly
    assert boundary_image_vanishes(q, rels, 5, aab)


def test_membership_needs_room(quaternion):
    q, rels = quaternion
    too_long = element(q, (1, tuple("ab" * 3)))
    with pytest.raises(ValueError):
        ideal_membership(q, rels, 5, too_long)


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
    e = PathElement.idempotent(q, "v")
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
        evaluate_in_representation(q, {}, {}, PathElement.idempotent(q, "v"))


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
    assert spans_boundary_quotient(q, rels, rels, 5)
    # the two-element subset spans the quotient although it does not
    # generate the ideal
    assert spans_boundary_quotient(q, rels, rels[:2], 5)
    assert not spans_boundary_quotient(q, rels, [], 5)


def test_spans_boundary_quotient_checks_membership(quaternion):
    q, rels = quaternion
    outside = [Relation("x", "v", "v", element(q, (1, ("a", "b"))))]
    with pytest.raises(ValueError):
        spans_boundary_quotient(q, rels, outside, 5)


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


def _split_condition_iii(q, relations, n, cap):
    """Slow oracle for condition (iii): inclusion into the doubled quiver
    followed by projection fixes the normal form of every basis path of
    KQ/(R), the normal forms over the doubled quiver read at a bound for the
    degree-0 ideal J found by the operational search.  None when J has no
    bound up to `cap`, else whether (iii) holds."""
    from dgquiver.dg import reverse_arrow_name
    from dgquiver.homology import h0_presentation

    span = _require_bound(q, relations, n)
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
    for p in span.complement_basis():
        x = PathElement(q, {p: Fraction(1)})
        nf_big = big_span.reduce(x.rebind(big)).terms.items()
        projected = PathElement(q, {pp: c for pp, c in nf_big if not set(pp.arrows) & eps_names})
        if span.reduce(projected) != span.reduce(x):
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
    for x in probes:
        assert ideal_membership(q, rels, 5, x) == ideal_membership(q, rels, 7, x)


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
    certified = _require_bound(q, rels, n)
    at_n = TruncatedIdealSpan(q, rels, n)
    length_n = sum(1 for p in q.enumerate_paths(n) if len(p) == n)
    assert certified.rank - length_n == at_n.rank
    assert algebra_dim(q, rels, n) == at_n.ambient_dim - at_n.rank


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
    assert spans_boundary_quotient(q, rels, candidate, n)
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


def _oracle_products(q, relations, paths, max_len, *, truncate, boundary_only=False):
    """u * rho * v as `PathElement` products over all pairs (u, v) of paths,
    each cut to length <= max_len with `truncate`; the slow oracle for the
    integer rows of `_two_sided_products`.  Yields (relation, product)."""
    for rel in relations:
        body = rel.body.rebind(q)
        ml = body.min_length() if truncate else body.max_length()
        if ml is None:
            continue
        for u, v in itertools.product(paths, paths):
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


@given(st.integers(0, 2**32), st.integers(0, 4), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_two_sided_products_match_all_pairs_filter(seed, max_len, truncate, boundary_only):
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
    levels = list(q._walk(max_len))
    paths = q.enumerate_paths(max_len)
    index = {p: i for i, p in enumerate(paths)}
    want = []
    for rel, prod in _oracle_products(
        q, rels, paths, max_len, truncate=truncate, boundary_only=boundary_only
    ):
        scale = math.lcm(*(c.denominator for c in rel.body.terms.values()))
        want.append({index[p]: c * scale for p, c in prod.terms.items()})
    got = list(_two_sided_products(
        q, rels, levels, {p.key: i for i, p in enumerate(paths)}, max_len,
        truncate=truncate, boundary_only=boundary_only,
    ))
    assert got == want
    assert all(type(c) is int for row in got for c in row.values())


# The examples fix a quiver whose vertex is named like its arrow, with the
# relation a*a - 3/4 a*a*a from seed 3: the trivial path at "a" and the
# arrow a must take two distinct columns.  Otherwise the quiver is drawn
# from the seed.  With `boundary_only` the span's rows are those of I r + r I
# on its own columns, as `_boundary_spans` builds them.
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
        span.space = RowSpace(_two_sided_products(
            q, span.relations, span._levels, span.index, bound - 1,
            truncate=True, boundary_only=True,
        ))
    paths = q.enumerate_paths(bound - 1)
    index = {p: i for i, p in enumerate(paths)}
    oracle = _oracle_space(
        q, rels, paths, bound - 1, truncate=True, boundary_only=boundary_only
    )
    assert span.paths == [p.key for p in paths]
    assert span.rank == oracle.rank
    assert span.space.pivot_columns() == oracle.pivot_columns()
    pivots = set(oracle.pivot_columns())
    assert span.complement_basis() == [p for i, p in enumerate(paths) if i not in pivots]
    for _ in range(5):
        support = rng.sample(paths, rng.randint(1, min(4, len(paths))))
        x = PathElement(q, {p: rng.choice(PQ_COEFFS) for p in support})
        nf = oracle.reduce({index[p]: c for p, c in x.terms.items()})
        assert span.reduce(x) == PathElement(q, {paths[i]: c for i, c in nf.items()})
        assert span.contains(x) == (not nf)

    n = rng.randint(1, 3)
    max_expr_len = min(4, n + rng.randint(0, 2))
    all_paths = q.enumerate_paths(max_expr_len)
    generated = _oracle_space(q, rels, all_paths, max_expr_len, truncate=False)
    want = all(
        generated.contains({i: 1}) for i, p in enumerate(all_paths) if len(p) == n
    )
    assert generates_arrow_power(q, rels, n, max_expr_len) == want


def test_span_construction_validates_relations(square):
    # the integer kernel assumes every term runs from rel.source to
    # rel.target and has positive length; invalid relations must raise
    # rather than lose the terms that do not compose
    q, (rel,) = square
    rho = rel.body
    for rels in (
        [Relation("wrong_source", "v2", "v4", rho)],
        [Relation("wrong_target", "v1", "v3", rho)],
        [Relation("trivial", "v1", "v1", PathElement.idempotent(q, "v1"))],
        [rel, rel],
    ):
        msg = re.escape("; ".join(validate_relations(q, rels)))
        with pytest.raises(ValueError, match=msg):
            TruncatedIdealSpan(q, rels, 4)
        with pytest.raises(ValueError, match=msg):
            ext2_dim(q, rels, 3)
        with pytest.raises(ValueError, match=msg):
            generates_arrow_power(q, rels, 3, 4)
        for n in (1, 3):
            with pytest.raises(ValueError, match=msg):
                _require_bound(q, rels, n)


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
    _require_bound(q, rels, 5)
    assert generates_arrow_power(q, rels, 5, 8)
    assert calls == []


def test_generates_arrow_power_length_checks(square):
    q = loop_quiver()
    rels = loop_square_relation(q)
    with pytest.raises(ValueError, match="n must be >= 0"):
        generates_arrow_power(q, [], -1, 3)
    # n = 0 asks about the trivial paths, which no relation in r^2 reaches
    assert not generates_arrow_power(q, rels, 0, 3)
    assert generates_arrow_power(q, rels, 2, 3)
    # the walk on the square stops at length 2, so r^3 = 0 holds vacuously
    assert generates_arrow_power(square[0], [], 3, 4)
    assert not generates_arrow_power(square[0], [], 2, 4)


def test_require_bound_validates_once(quaternion, monkeypatch):
    from dgquiver import ideals

    q, rels = quaternion
    calls = []
    check = ideals._check_relations
    monkeypatch.setattr(
        ideals, "_check_relations", lambda *a: calls.append(1) or check(*a)
    )
    _require_bound(q, rels, 5)
    assert len(calls) == 1


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


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_certified_span_columns_serve_every_span_of_a_call(seed):
    # at a bound n that was found, the boundary span, each candidate span and
    # the normal forms read off the certified span at bound n + 1 equal
    # standalone constructions
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
    n = find_admissibility_bound(q, rels, max_n=4)
    assume(n is not None)
    span, boundary = _boundary_spans(q, rels, n)
    paths = q.enumerate_paths(n)
    oracle = _oracle_space(q, rels, paths, n, truncate=True, boundary_only=True)
    assert (boundary.rank, boundary.pivot_columns()) == (oracle.rank, oracle.pivot_columns())

    for k in range(len(rels)):
        candidate = rels[:k] + rels[k + 1:]
        rows = _two_sided_products(q, candidate, span._levels, span.index, n - 1, truncate=True)
        assert RowSpace(rows).rank == TruncatedIdealSpan(q, candidate, n).rank
    assert system_of_relations(q, rels, n) == _old_system_of_relations(q, rels, n)

    below = [p for p in paths if len(p) < n]
    xs = [
        PathElement(q, {p: rng.choice(PQ_COEFFS) for p in rng.sample(below, min(4, len(below)))})
        for _ in range(5)
    ]
    for b in (n, n + 1, n + 2):
        other = TruncatedIdealSpan(q, rels, b)
        assert span.complement_basis() == other.complement_basis()
        assert [span.reduce(x) for x in xs] == [other.reduce(x) for x in xs]


def test_ideal_call_walks_and_validates_once(quaternion, monkeypatch):
    # the boundary and candidate spans read the certified span's columns, so
    # one call walks the quiver and checks the relations once
    from dgquiver import ideals

    q, rels = quaternion
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ideals, "_check_relations", counted("check", ideals._check_relations))
    monkeypatch.setattr(GradedQuiver, "_walk", counted("walk", GradedQuiver._walk))
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", counted("span", TruncatedIdealSpan.__init__))
    for call in (
        lambda: ext2_dim(q, rels, 5),
        lambda: boundary_image_vanishes(q, rels, 5, rels[0].body),
        lambda: spans_boundary_quotient(q, rels, rels, 5),
    ):
        calls.clear()
        call()
        assert sorted(calls) == ["check", "span", "walk"]
    calls.clear()
    system_of_relations(q, rels, 5)
    assert calls.count("span") == 1
