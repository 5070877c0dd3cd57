import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    DgAlgebra,
    GradedQuiver,
    Path,
    PathElement,
    Relation,
    apply_d,
    certify,
    check_d_squared,
    check_dg_isomorphism,
    cyclic_derivative,
    cyclic_reduce,
    describe_generators,
    dual_name,
    ginzburg_dg_algebra,
    ginzburg_from_relations,
    loop_name,
    map_element,
    relation_arrow_name,
    relation_dg_algebra,
    relation_sub_dg_correspondence,
    reverse_arrow_name,
    sub_dg_algebra,
    sub_dg_completion,
    supercommutator,
    superpotential_extension,
)
from dgquiver.dg import _d_path, _dual_arrow, _sign

from conftest import (
    assert_d2_kills_random_products,
    element,
    grid,
    random_quiver,
    random_relations,
    small_dg_algebras,
    zero_relation,
)


# ---------- relation dg-algebra ----------


def test_relation_dg_empty(square):
    q, _ = square
    dg = relation_dg_algebra(q, [])
    assert dg.quiver == q
    assert all(dg.d(a.name).is_zero() for a in q.arrows)


def test_relation_dg_square(square):
    q, rels = square
    dg = relation_dg_algebra(q, rels)
    eta = dg.quiver.arrow(relation_arrow_name("r"))
    assert (eta.source, eta.target, eta.degree) == ("v1", "v4", -1)
    assert dg.d(eta.name) == rels[0].body.rebind(dg.quiver)


def test_relation_dg_zero_relation(one_vertex):
    dg = relation_dg_algebra(one_vertex, [zero_relation(one_vertex, "r1")])
    eta = dg.quiver.arrow("eta_r1")
    assert eta.degree == -1 and eta.source == eta.target == "v"
    assert dg.d("eta_r1").is_zero()


def test_relation_dg_rejects_graded_input():
    q = GradedQuiver(["v"], [Arrow("a", "v", "v", -1)])
    with pytest.raises(ValueError):
        relation_dg_algebra(q, [])


def test_relation_dg_rejects_bad_endpoints(square):
    q, _ = square
    bad = Relation("r", "v1", "v2", element(q, (1, ("alpha", "beta"))))
    with pytest.raises(ValueError):
        relation_dg_algebra(q, [bad])


def test_relation_over_another_quiver_names_the_arrow_once(square):
    q, _ = square
    other = GradedQuiver(["v1", "v4"], [Arrow("z", "v1", "v4", 0)])
    bad = Relation("r", "v1", "v4", PathElement.from_arrow(other, "z"))
    message = "relation 'r': unknown arrow 'z'"
    for call in (lambda: certify(q, [bad]), lambda: ginzburg_from_relations(q, [bad], 3)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


# ---------- superpotential extension ----------


def test_extension_empty(square):
    q, _ = square
    big, w = superpotential_extension(q, [], 4)
    assert big == q
    assert w.is_zero()


def test_extension_square(square):
    q, rels = square
    for m in (2, 3, 4):
        big, w = superpotential_extension(q, rels, m)
        eps = big.arrow(reverse_arrow_name("r"))
        assert (eps.source, eps.target, eps.degree) == ("v4", "v1", 2 - m)
        expect = cyclic_reduce(
            PathElement.from_arrow(big, eps.name) * rels[0].body.rebind(big)
        )
        assert w == expect
        assert w.degree() == 2 - m


def test_extension_zero_relation(one_vertex):
    big, w = superpotential_extension(one_vertex, [zero_relation(one_vertex, "r1")], 5)
    assert big.arrow("eps_r1").degree == -3
    assert w.is_zero()


def test_extension_rejects_small_m(square):
    q, rels = square
    with pytest.raises(ValueError):
        superpotential_extension(q, rels, 1)


# ---------- Ginzburg dg-algebra ----------


def test_ginzburg_no_arrows_m0():
    q = GradedQuiver(["x", "y"])
    dg = ginzburg_dg_algebra(q, PathElement.zero(q), 0)
    assert {a.name for a in dg.quiver.arrows} == {"t_x", "t_y"}
    assert all(a.degree == 0 for a in dg.quiver.arrows)
    assert dg.d("t_x").is_zero() and dg.d("t_y").is_zero()


def test_ginzburg_one_vertex_zero_relation_differentials(one_vertex):
    # loops eps (2-m), eps* (-1), t (-m); d(t) = eps eps* - (-1)^m eps* eps
    for m in (3, 4, 5):
        dg = ginzburg_from_relations(one_vertex, [zero_relation(one_vertex, "r1")], m)
        degs = {a.name: a.degree for a in dg.quiver.arrows}
        assert degs == {"eps_r1": 2 - m, "eps_r1_star": -1, "t_v": -m}
        assert dg.d("eps_r1").is_zero()
        assert dg.d("eps_r1_star").is_zero()
        big = dg.quiver
        e = PathElement.from_arrow(big, "eps_r1")
        es = PathElement.from_arrow(big, "eps_r1_star")
        assert dg.d("t_v") == e * es - ((-1) ** m) * (es * e)


def test_ginzburg_empty_relations_single_loop(one_vertex):
    for m in (3, 4):
        dg = ginzburg_from_relations(one_vertex, [], m)
        assert [(a.name, a.degree) for a in dg.quiver.arrows] == [("t_v", -m)]
        assert dg.d("t_v").is_zero()


def table_degrees(q, rels, m):
    dg = ginzburg_from_relations(q, rels, m)
    got = {a.name: a.degree for a in dg.quiver.arrows}
    expect = {}
    for a in q.arrows:
        expect[a.name] = 0
        expect[dual_name(a.name)] = 1 - m
    for r in rels:
        expect[reverse_arrow_name(r.label)] = 2 - m
        expect[dual_name(reverse_arrow_name(r.label))] = -1
    for v in q.vertices:
        expect[loop_name(v)] = -m
    return got, expect, dg


def test_ginzburg_square_degree_table(square):
    q, rels = square
    for m in (2, 3, 4, 6):
        got, expect, dg = table_degrees(q, rels, m)
        assert got == expect
        # d(eps*) = (-1)^m rho
        rho = rels[0].body.rebind(dg.quiver)
        assert dg.d(dual_name(reverse_arrow_name("r"))) == ((-1) ** m) * rho
        # all arrow degrees are non-positive for m >= 2
        assert all(d <= 0 for d in got.values())
        assert len(dg.quiver.arrows) == 2 * (len(q.arrows) + len(rels)) + len(q.vertices)


def test_ginzburg_degree_mismatch_rejected(one_vertex):
    q = GradedQuiver(["v"], [Arrow("e", "v", "v", -1), Arrow("f", "v", "v", -1)])
    w = cyclic_reduce(PathElement.from_path(q, ("e", "f")))  # degree -2
    assert not w.is_zero()
    with pytest.raises(ValueError):
        ginzburg_dg_algebra(q, w, 3)  # needs degree 2 - 3 = -1
    ginzburg_dg_algebra(q, w, 4)  # -2 = 2 - 4 is fine


def test_ginzburg_refuses_a_malformed_superpotential():
    q = GradedQuiver(
        ["u", "v"],
        [Arrow("a", "v", "v", 0), Arrow("s", "v", "v", -1), Arrow("c", "v", "u", 0)],
    )
    other = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    bad = [
        (PathElement.from_path(other, ("a", "a", "a")), "different quiver"),
        (PathElement.from_arrow(q, "c"), "term is not a cycle: c"),
        (element(q, (1, ("a", "a")), (1, ("s",))), "superpotentials must be homogeneous"),
        (PathElement.from_path(q, ("a", "a", "a")), r"superpotential degree 0 != 2 - m = -5"),
    ]
    for w, message in bad:
        with pytest.raises(ValueError, match=message):
            ginzburg_dg_algebra(q, w, 7)


@given(
    st.lists(st.sampled_from(["a", "s", "t"]), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from((1, -1, 2, Fraction(1, 2)))),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=80, deadline=None)
def test_ginzburg_reads_any_rotation_of_w(word, rotations):
    # a sum of rotations of one cycle, each with its own coefficient: the
    # unreduced element builds the same dg-algebra as its reduction
    q = GradedQuiver(
        ["v"], [Arrow("a", "v", "v", 0), Arrow("s", "v", "v", -1), Arrow("t", "v", "v", -2)]
    )
    m = 2 - sum(q.arrow(n).degree for n in word)
    cycles = [(c, tuple(word[k % len(word):] + word[:k % len(word)])) for k, c in rotations]
    w = element(q, *cycles)
    assert ginzburg_dg_algebra(q, w, m) == ginzburg_dg_algebra(q, cyclic_reduce(w), m)


# ---------- apply_d ----------


def test_apply_d_on_single_arrow(square):
    q, rels = square
    dg = relation_dg_algebra(q, rels)
    eta = PathElement.from_arrow(dg.quiver, "eta_r")
    assert apply_d(dg, eta) == dg.d("eta_r")


def test_apply_d_degree_zero_frame(square):
    # d(u eta v) = u rho v when u, v have degree 0
    q, rels = square
    dg = relation_dg_algebra(q, rels)
    big = dg.quiver
    # u = e_{v1}, v = path out of v4: none, so use a loop-free check with
    # u = alpha side: build u eta where eta: v1 -> v4; precompose with e_v1
    u = PathElement(big, {big.trivial_path("v1"): 1})
    x = u * PathElement.from_arrow(big, "eta_r")
    assert apply_d(dg, x) == rels[0].body.rebind(big)


def test_apply_d_closed_generators(one_vertex):
    dg = ginzburg_from_relations(one_vertex, [zero_relation(one_vertex, "r1")], 4)
    dt = dg.d("t_v")
    assert apply_d(dg, dt).is_zero()


def test_apply_d_leibniz_randomized(square):
    q, rels = square
    rng = random.Random(3)
    for m in (3, 4):
        dg = ginzburg_from_relations(q, rels, m)
        big = dg.quiver
        paths = [p for p in big.enumerate_paths(3) if not p.is_trivial]
        for _ in range(200):
            x = PathElement(big, {rng.choice(paths): Fraction(rng.randint(1, 3))})
            y = PathElement(big, {rng.choice(paths): Fraction(rng.randint(1, 3))})
            sign = (-1) ** (x.degree() % 2)
            lhs = apply_d(dg, x * y)
            rhs = apply_d(dg, x) * y + sign * (x * apply_d(dg, y))
            assert lhs == rhs


def test_apply_d_fraction_coefficient():
    # d(eta x eta) = d(eta) x eta - eta x d(eta), with d(eta) = 1/2 x x
    q = GradedQuiver(["v"], [Arrow("x", "v", "v", 0)])
    half = element(q, (Fraction(1, 2), ("x", "x")))
    dg = relation_dg_algebra(q, [Relation("r", "v", "v", half)])
    big = dg.quiver
    _, terms = dg._table["eta_r"]
    assert terms == [(("x", "x"), Fraction(1, 2))]
    x = element(big, (2, ("eta_r", "x", "eta_r")))
    assert apply_d(dg, x) == element(
        big, (1, ("x", "x", "x", "eta_r")), (-1, ("eta_r", "x", "x", "x"))
    )


@given(small_dg_algebras())
@settings(max_examples=60, deadline=None)
def test_bounded_kernel_is_the_unbounded_kernel_cut(dg):
    for p in dg.quiver.enumerate_paths(3):
        full = _d_path(dg, p.arrows)
        for cutoff in range(len(p) + 4):
            assert _d_path(dg, p.arrows, cutoff) == {
                k: c for k, c in full.items() if len(k) <= cutoff
            }


# ---------- d squared ----------


def test_check_d_squared_relation_dg(square):
    q, rels = square
    assert check_d_squared(relation_dg_algebra(q, rels)) is None


def test_check_d_squared_quaternion_m3(quaternion):
    q, rels = quaternion
    dg = ginzburg_from_relations(q, rels, 3)
    assert check_d_squared(dg) is None


def test_check_d_squared_adversarial():
    q = GradedQuiver(
        ["v"],
        [Arrow("c", "v", "v", 0), Arrow("a", "v", "v", -1), Arrow("b", "v", "v", -2)],
    )
    dg = DgAlgebra(
        q,
        {
            "b": PathElement.from_arrow(q, "a"),
            "a": PathElement.from_arrow(q, "c"),
        },
    )
    assert check_d_squared(dg) == PathElement.from_arrow(q, "b")


def test_d_squared_is_a_derivation_where_it_is_not_zero():
    # check_d_squared reads only the generators because d^2 is a derivation:
    # the lemma must hold even where d^2 != 0, so test it there
    q = GradedQuiver(
        ["v"],
        [Arrow("c", "v", "v", 0), Arrow("a", "v", "v", -1), Arrow("b", "v", "v", -2)],
    )
    dg = DgAlgebra(
        q, {"b": PathElement.from_arrow(q, "a"), "a": PathElement.from_arrow(q, "c")}
    )

    def d2(x):
        return apply_d(dg, apply_d(dg, x))

    paths = [PathElement(q, {p: Fraction(1)}) for p in q.enumerate_paths(3) if not p.is_trivial]
    assert len(paths) == 39
    for x in paths:
        for y in paths:
            assert d2(x * y) == d2(x) * y + x * d2(y)
    b, c = (PathElement.from_arrow(q, n) for n in "bc")
    assert d2(b * b) == b * c + c * b != 0


def test_dg_algebra_validates_degree_and_endpoints():
    q = GradedQuiver(["v", "w"], [Arrow("a", "v", "w", 0), Arrow("s", "v", "w", -1)])
    with pytest.raises(ValueError):
        DgAlgebra(q, {"a": PathElement.from_arrow(q, "s")})  # degree -1 != 1
    q2 = GradedQuiver(
        ["v", "w"], [Arrow("a", "v", "w", 0), Arrow("s", "w", "v", -1)]
    )
    with pytest.raises(ValueError):
        DgAlgebra(q2, {"s": PathElement.from_arrow(q2, "a")})  # endpoints flip
    with pytest.raises(ValueError, match=r"differential given for unknown arrows \['ghost'\]"):
        DgAlgebra(q, {"ghost": PathElement.zero(q)})


# ---------- sub-dg-algebras and isomorphisms ----------


def test_sub_dg_algebra_closure_cases(square, one_vertex):
    q, rels = square
    m = 3
    dg = ginzburg_from_relations(q, rels, m)
    good = {a.name for a in q.arrows} | {dual_name(reverse_arrow_name("r"))}
    assert {a.name for a in sub_dg_algebra(dg, good).quiver.arrows} == good
    assert sub_dg_algebra(dg, dg.arrow_names()) == dg
    with pytest.raises(KeyError):
        sub_dg_algebra(dg, good | {"nope"})
    dg2 = ginzburg_from_relations(one_vertex, [zero_relation(one_vertex, "r1")], 4)
    with pytest.raises(ValueError, match=r"d\(t_v\)"):
        sub_dg_algebra(dg2, {"t_v"})


def test_check_dg_isomorphism_identity(square):
    q, rels = square
    dg = ginzburg_from_relations(q, rels, 3)
    ident = {a.name: (1, a.name) for a in dg.quiver.arrows}
    assert check_dg_isomorphism(ident, dg, dg) is None


def test_check_dg_isomorphism_rejects_degree_change():
    qa = GradedQuiver(["v"], [Arrow("a", "v", "v", 0)])
    qb = GradedQuiver(["v"], [Arrow("a", "v", "v", -1)])
    with pytest.raises(ValueError):
        check_dg_isomorphism({"a": (1, "a")}, DgAlgebra(qa), DgAlgebra(qb))


def test_check_dg_isomorphism_refusals(square):
    # a map that is not total, not a bijection, has a zero coefficient or
    # moves endpoints is refused before any differential is compared
    q, rels = square
    dg = relation_dg_algebra(q, rels)
    ident = {a.name: (1, a.name) for a in dg.quiver.arrows}
    refusals = [
        ({n: v for n, v in ident.items() if n != "alpha"}, "must assign every arrow"),
        ({**ident, "gamma": (1, "alpha")}, "not a bijection"),
        ({**ident, "alpha": (0, "alpha")}, "zero coefficient on 'alpha'"),
        ({**ident, "alpha": (1, "gamma"), "gamma": (1, "alpha")},
         "'alpha' -> 'gamma' changes endpoints"),
    ]
    for mapping, msg in refusals:
        with pytest.raises(ValueError, match=msg):
            check_dg_isomorphism(mapping, dg, dg)


def _flip(mapping, name):
    """The mapping with the sign on `name` flipped."""
    cf, image = mapping[name]
    return {**mapping, name: (-cf, image)}


def test_witness_with_a_flipped_sign_names_the_generator_it_breaks(square):
    # each witness map, with its one nontrivial sign flipped, fails the
    # check at the generator whose differential the sign balances
    q, rels = square
    for m in (2, 3, 4, 5):
        sub, b, mapping = relation_sub_dg_correspondence(q, rels, m)
        assert check_dg_isomorphism(_flip(mapping, "eps_r_star"), sub, b) == "eps_r_star"
        big, w = superpotential_extension(q, rels, m)
        pres, phi = sub_dg_completion(big, w, m, [a.name for a in q.arrows])
        gamma = ginzburg_dg_algebra(big, w, m)
        assert check_dg_isomorphism(_flip(phi, "alpha_star"), pres, gamma) == "alpha_star"


def test_relation_sub_dg_correspondence(square, quaternion):
    for q, rels in (square, quaternion):
        for m in (2, 3, 4):
            sub, b, mapping = relation_sub_dg_correspondence(q, rels, m)
            assert check_dg_isomorphism(mapping, sub, b) is None


def test_sub_dg_completion_round_trip(square):
    q, rels = square
    for m in (2, 3, 4, 5, 6):
        big, w = superpotential_extension(q, rels, m)
        pres, phi = sub_dg_completion(big, w, m, [a.name for a in q.arrows])
        assert check_d_squared(pres) is None
        gamma = ginzburg_dg_algebra(big, w, m)
        assert check_dg_isomorphism(phi, pres, gamma) is None


def test_sub_dg_completion_refusals(square):
    # an unknown arrow in omega, an outside arrow of even degree at odd m,
    # and a cycle with two arrows outside omega are each refused
    q, rels = square
    big, w = superpotential_extension(q, rels, 3)
    with pytest.raises(KeyError, match="unknown arrows"):
        sub_dg_completion(big, w, 3, ["alpha", "nope"])
    with pytest.raises(ValueError, match="arrow 'alpha' has even degree while m is odd"):
        sub_dg_completion(big, w, 3, [])
    big, w = superpotential_extension(q, rels, 4)
    with pytest.raises(ValueError, match="exactly one arrow outside omega"):
        sub_dg_completion(big, w, 4, [])


def test_sub_dg_completion_graded_input():
    # a graded quiver far from the relations setting; omega = {a}
    for m in (3, 5):
        q = GradedQuiver(
            ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 2 - m)]
        )
        w = cyclic_reduce(PathElement.from_path(q, ("b", "a")))
        pres, phi = sub_dg_completion(q, w, m, ["a"])
        assert check_d_squared(pres) is None
        gamma = ginzburg_dg_algebra(q, w, m)
        assert check_dg_isomorphism(phi, pres, gamma) is None


@pytest.mark.parametrize("taken", ["b_star", "a_star", "t_1"])
def test_sub_dg_completion_refuses_a_taken_generated_name(taken):
    # an arrow of omega named as the dual of an outside arrow (b_star), of a
    # base arrow (a_star) or as a vertex loop (t_1): both doublings refuse it
    q = GradedQuiver(
        ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", -1), Arrow(taken, "1", "1", 0)]
    )
    w = cyclic_reduce(PathElement.from_path(q, ("b", "a")))
    message = f"generated arrow name '{taken}' already in use"
    with pytest.raises(ValueError, match=message):
        ginzburg_dg_algebra(q, w, 3)
    with pytest.raises(ValueError, match=message):
        sub_dg_completion(q, w, 3, ["a", taken])


def test_ginzburg_refuses_a_dual_named_as_a_loop():
    # the dual of the loop t_u and the loop of the vertex u_star are both
    # named t_u_star: the clash between two generated names is refused
    q = GradedQuiver(["u_star"], [Arrow("t_u", "u_star", "u_star", 0)])
    with pytest.raises(ValueError, match="generated arrow name 't_u_star' already in use"):
        ginzburg_dg_algebra(q, PathElement.zero(q), 3)


def test_sub_dg_algebra_extraction(square):
    q, rels = square
    dg = ginzburg_from_relations(q, rels, 3)
    names = [a.name for a in q.arrows] + [dual_name(reverse_arrow_name("r"))]
    sub = sub_dg_algebra(dg, names)
    assert {a.name for a in sub.quiver.arrows} == set(names)
    with pytest.raises(ValueError):
        sub_dg_algebra(dg, ["t_v1"])


def test_doubled_degrees_nonpositive_iff_window():
    # all arrows of the doubled quiver are non-positive exactly when m >= 0
    # and every input degree lies in [1-m, 0]
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(-2, 5)
        degs = [rng.randint(-5, 2) for _ in range(rng.randint(0, 3))]
        q = GradedQuiver(
            ["v"], [Arrow(f"a{i}", "v", "v", d) for i, d in enumerate(degs)]
        )
        dg = ginzburg_dg_algebra(q, PathElement.zero(q), m)
        all_nonpos = all(a.degree <= 0 for a in dg.quiver.arrows)
        window = m >= 0 and all(1 - m <= d <= 0 for d in degs)
        assert all_nonpos == window, (m, degs)


# ---------- randomized structural suite ----------


def test_d_squared_randomized_suite():
    rng = random.Random(20250808)
    for trial in range(25):
        q = random_quiver(rng)
        rels = random_relations(rng, q, max_count=3)
        m = rng.choice([2, 3, 4, 5, 6])
        b = relation_dg_algebra(q, rels)
        g = ginzburg_from_relations(q, rels, m)
        for dg in (b, g):
            assert check_d_squared(dg) is None
            assert_d2_kills_random_products(rng, dg, 8)


# ---------- one-pass constructions against the term-by-term oracle ----------
#
# The `_oracle_*` functions build the constructions term by term: `_mesh`
# as e_v [g, g*] e_v for every vertex v, each sum as one PathElement
# addition per term, and the superpotential of `sub_dg_completion` by
# rotating each cycle to start at its outside arrow with a hand-written
# rotation sign.  They are slow and plain on purpose.


def _oracle_mesh(big, generators):
    mesh = {v: PathElement.zero(big) for v in big.vertices}
    for g in generators:
        x = PathElement.from_arrow(big, g.name)
        xs = PathElement.from_arrow(big, dual_name(g.name))
        comm = supercommutator(x, xs)
        for v in big.vertices:
            e = PathElement(big, {big.trivial_path(v): 1})
            mesh[v] = mesh[v] + e * comm * e
    return mesh


def _oracle_cyclic_derivative(w, arrow):
    q = w.quiver
    a = q.arrow(arrow)
    out = PathElement.zero(q)
    for p, c in w.terms.items():
        if p.is_trivial:
            continue
        names = p.arrows
        degs = [q.arrow(n).degree for n in names]
        wdeg = sum(degs)
        prefix = 0
        terms = {}
        for ell, n in enumerate(names):
            if n == arrow:
                sign = -1 if ((wdeg - 1) * prefix) % 2 else 1
                if a.degree % 2:
                    sign = -sign
                rest = names[ell + 1:] + names[:ell]
                rp = Path(arrows=rest) if rest else q.trivial_path(a.target)
                terms[rp] = terms.get(rp, 0) + sign * c
            prefix += degs[ell]
        out = out + PathElement(q, terms)
    return out


def _oracle_superpotential_extension(q, relations, m):
    extra = [
        Arrow(reverse_arrow_name(r.label), r.target, r.source, 2 - m)
        for r in relations
    ]
    big = q.with_extra_arrows(extra)
    acc = PathElement.zero(big)
    for r in relations:
        eps = PathElement.from_arrow(big, reverse_arrow_name(r.label))
        acc = acc + eps * r.body.rebind(big)
    return big, cyclic_reduce(acc)


def _oracle_ginzburg(q, w, m):
    loops = [Arrow(loop_name(v), v, v, -m) for v in q.vertices]
    big = q.with_extra_arrows([_dual_arrow(a, m) for a in q.arrows] + loops)
    diff = {
        dual_name(a.name): _oracle_cyclic_derivative(w, a.name).rebind(big)
        for a in q.arrows
    }
    mesh = _oracle_mesh(big, q.arrows)
    diff.update({loop_name(v): mesh[v] for v in q.vertices})
    return DgAlgebra(big, diff)


def _oracle_map_element(mapping, x, target):
    out = PathElement.zero(target)
    for p, c in x.terms.items():
        if p.is_trivial:
            out = out + PathElement(target, {target.trivial_path(p.base): c})
            continue
        coeff = Fraction(c)
        names = []
        for n in p.arrows:
            cf, nn = mapping[n]
            coeff *= Fraction(cf)
            names.append(nn)
        if coeff:
            out = out + PathElement(target, {target.path(names): coeff})
    return out


def _oracle_sub_dg_completion(q, w, m, omega):
    betas = [a for a in q.arrows if a.name not in omega]
    inner = [a for a in q.arrows if a.name in omega]
    b_duals = [_dual_arrow(b, m) for b in betas]
    bstar_duals = [
        Arrow(dual_name(dual_name(b.name)), b.source, b.target, b.degree)
        for b in betas
    ]
    loops = [Arrow(loop_name(v), v, v, -m) for v in q.vertices]
    big = GradedQuiver(
        q.vertices,
        tuple(inner + b_duals + [_dual_arrow(a, m) for a in inner] + bstar_duals + loops),
    )
    beta_names = {b.name for b in betas}
    acc = PathElement.zero(big)
    for p, c in w.terms.items():
        (i,) = [i for i, n in enumerate(p.arrows) if n in beta_names]
        rotated = p.arrows[i:] + p.arrows[:i]
        u, v = p.arrows[:i], p.arrows[i:]
        du = sum(q.arrow(n).degree for n in u)
        dv = sum(q.arrow(n).degree for n in v)
        sign = -1 if (du * dv) % 2 else 1  # uv -> vu rotation sign
        names = (dual_name(dual_name(rotated[0])),) + rotated[1:]
        acc = acc + PathElement(big, {big.path(names): c * sign * _sign(m - 1)})
    w_prime = cyclic_reduce(acc)
    diff = {
        dual_name(b.name): _oracle_cyclic_derivative(w, b.name).rebind(big)
        for b in betas
    }
    for a in inner:
        diff[dual_name(a.name)] = _oracle_cyclic_derivative(w_prime, a.name)
    for b in betas:
        diff[dual_name(dual_name(b.name))] = _oracle_cyclic_derivative(
            w_prime, dual_name(b.name)
        )
    mesh = _oracle_mesh(big, inner + b_duals)
    for v in q.vertices:
        diff[loop_name(v)] = _sign(m + 1) * mesh[v]
    phi = {a.name: (1, a.name) for a in inner}
    phi.update({dual_name(b.name): (1, dual_name(b.name)) for b in betas})
    phi.update({dual_name(a.name): (_sign(m - 1), dual_name(a.name)) for a in inner})
    phi.update({dual_name(dual_name(b.name)): (1, b.name) for b in betas})
    phi.update({loop_name(v): (1, loop_name(v)) for v in q.vertices})
    return DgAlgebra(big, diff), phi, w_prime


def _assert_same_dg(new, old):
    assert new == old
    assert describe_generators(new) == describe_generators(old)


def _assert_constructions_match_oracle(q, w, m, omega):
    """ginzburg_dg_algebra, cyclic_derivative, sub_dg_completion and
    map_element on (q, w, m, omega) equal the oracle's, term for term."""
    gamma = ginzburg_dg_algebra(q, w, m)
    _assert_same_dg(gamma, _oracle_ginzburg(q, w, m))
    for a in q.arrows:
        assert cyclic_derivative(w, a.name) == _oracle_cyclic_derivative(w, a.name)
    pres, phi = sub_dg_completion(q, w, m, omega)
    old_pres, old_phi, w_prime = _oracle_sub_dg_completion(q, w, m, omega)
    _assert_same_dg(pres, old_pres)
    assert phi == old_phi
    for a in pres.quiver.arrows:
        assert cyclic_derivative(w_prime, a.name) == _oracle_cyclic_derivative(
            w_prime, a.name
        )
        x = pres.d(a.name)
        assert map_element(phi, x, gamma.quiver) == _oracle_map_element(
            phi, x, gamma.quiver
        )
    assert check_dg_isomorphism(phi, pres, gamma) is None


PQ_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))


@given(st.integers(0, 2**32), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_relation_constructions_match_term_by_term_oracle(seed, m):
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=PQ_COEFFS)
    big, w = superpotential_extension(q, rels, m)
    old_big, old_w = _oracle_superpotential_extension(q, rels, m)
    assert big == old_big and w == old_w and w.degree() == old_w.degree()
    gamma = ginzburg_from_relations(q, rels, m)
    _assert_same_dg(gamma, _oracle_ginzburg(old_big, old_w, m))
    _assert_constructions_match_oracle(big, w, m, [a.name for a in q.arrows])
    sub, b, mapping = relation_sub_dg_correspondence(q, rels, m)
    for name in sub.arrow_names():
        x = sub.d(name)
        assert map_element(mapping, x, b.quiver) == _oracle_map_element(
            mapping, x, b.quiver
        )
    assert check_dg_isomorphism(mapping, sub, b) is None


@st.composite
def graded_superpotentials(draw):
    """(q, w, m, omega): one vertex, inner arrows a_i of degrees -2..1 and
    one outside arrow z_k per cycle of w, which is homogeneous of degree
    2 - m.  Each z_k sits at a drawn position of its cycle but sorts after
    every a_i, so the stored canonical rotation never starts with it; for
    odd m each z_k has odd degree, as `sub_dg_completion` requires."""
    m = draw(st.integers(2, 5))
    inner = [
        Arrow(f"a{i}", "v", "v", draw(st.integers(-2, 1)))
        for i in range(draw(st.integers(1, 3)))
    ]
    outside, cycles = [], []
    for k in range(draw(st.integers(1, 3))):
        word = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=3))
        if m % 2 and sum(a.degree for a in word) % 2:
            word.append(next(a for a in word if a.degree % 2))
        z = Arrow(f"z{k}", "v", "v", 2 - m - sum(a.degree for a in word))
        word.insert(draw(st.integers(0, len(word))), z)
        outside.append(z)
        cycles.append((draw(st.sampled_from(PQ_COEFFS)), tuple(a.name for a in word)))
    q = GradedQuiver(["v"], inner + outside)
    w = cyclic_reduce(element(q, *cycles))
    return q, w, m, [a.name for a in inner]


@given(graded_superpotentials())
@settings(max_examples=80, deadline=None)
def test_graded_constructions_match_term_by_term_oracle(data):
    q, w, m, omega = data
    assert all(p.arrows[0] in omega for p in w.terms)
    _assert_constructions_match_oracle(q, w, m, omega)


def test_ginzburg_products_are_linear_in_the_arrows(monkeypatch):
    # the mesh needs the two products of [g, g*] per arrow g and nothing
    # per vertex: a product e_v [g, g*] e_v per vertex makes the count
    # grow with (arrows x vertices)
    q, rels = grid(4)
    big, w = superpotential_extension(q, rels, 3)
    assert (len(big.vertices), len(big.arrows)) == (16, 33)
    calls = 0
    mul = PathElement.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(PathElement, "__mul__", counting_mul)
    ginzburg_dg_algebra(big, w, 3)
    assert 0 < calls <= 2 * len(big.arrows)
