"""End-to-end acceptance checks.

Each test prints one PASS line on success (visible with -v / -rP); every
expected number here is exact integer arithmetic, no tolerances anywhere.
"""

import random
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

from dgquiver import (
    GradedQuiver,
    PathElement,
    Relation,
    algebra_dim,
    boundary_image_vanishes,
    certifies_non_membership,
    check_d_squared,
    cyclic_derivative,
    dual_name,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    ginzburg_from_relations,
    h0_presentation,
    homology_dims,
    loop_name,
    parse,
    relation_dg_algebra,
    reverse_arrow_name,
    split_extension_check,
    superpotential_extension,
    system_of_relations,
    vosnex_equivalence_check,
)
from dgquiver.dg import apply_d, ginzburg_dg_algebra
from dgquiver.homology import default_truncation_length

from conftest import random_acyclic_quiver, random_relations, zero_relation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    pf = parse((FIXTURES / name).read_text())
    return pf.quiver, pf.relations


def test_criterion_1_one_vertex_homology_table():
    """Homology of the one-vertex dg-algebras, both relation sequences."""
    q = GradedQuiver(["v"])
    zero = [zero_relation(q, "r1")]
    for m in (3, 4, 5):
        rep = homology_dims(ginzburg_from_relations(q, zero, m), m, m + 2)
        expect = {i: 1 for i in range(0, m - 2)}
        expect[m - 2] = 2
        expect[m - 1] = 2 + (1 if m == 3 else 0)
        assert rep.dims == expect, (m, rep.dims)
        assert rep.stabilized

        rep0 = homology_dims(ginzburg_from_relations(q, [], m), m, m + 2)
        assert rep0.dims == {0: 1, **{i: 0 for i in range(1, m)}}
        assert rep0.stabilized
    print("ACCEPTANCE 1 PASS: one-vertex homology tables exact for m in {3,4,5}")


def test_criterion_2_acyclic_vanishing_equivalence():
    """Acyclic quivers without relations satisfy all four vanishing
    conditions, which agree."""
    rng = random.Random(20250801)
    for k in range(5):
        q = random_acyclic_quiver(rng)
        for m in (3, 4):
            verdict = vosnex_equivalence_check(q, [], m, m + 2)
            assert astuple(verdict) == (True, True, True, True), (k, m)
            rep = homology_dims(ginzburg_from_relations(q, [], m), m, m + 2)
            assert rep.vosnex
    print("ACCEPTANCE 2 PASS: vanishing equivalence on 5 random acyclic quivers")


def test_criterion_3_dimension_lower_bounds():
    """dims(m-2) >= |R| and |system| >= ext2 on random admissible inputs."""
    rng = random.Random(20250802)
    done = 0
    while done < 10:
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q, max_count=4, allow_zero=True)
        if not 1 <= len(rels) <= 4:
            continue
        m = rng.choice([3, 4])
        bound = find_admissibility_bound(q, rels)
        assert bound is not None
        rep = homology_dims(
            ginzburg_from_relations(q, rels, m),
            m,
            default_truncation_length(m, rels, bound),
        )
        assert rep.dims[m - 2] >= len(rels), (done, m, rep.dims, len(rels))
        system = system_of_relations(q, rels, bound)
        assert len(system) >= ext2_dim(q, rels, bound)
        done += 1
    print("ACCEPTANCE 3 PASS: lower bounds dims(m-2) >= |R| and |system| >= ext2 on 10 inputs")


def test_criterion_4_quaternion_ideal():
    """The quaternion-type ideal: bound, dimension, boundary class, and the
    representation witness separating the two-generator subideal."""
    q, rels = load("quaternion.quiver")
    bound = find_admissibility_bound(q, rels, max_n=12)
    assert bound == 5
    assert algebra_dim(q, rels, bound) == 8
    aab = PathElement.from_path(q, ("alpha", "alpha", "beta"))
    assert boundary_image_vanishes(q, rels, bound, aab)
    sub = rels[:2]  # drops alpha*alpha*beta
    witness_dims = {"v": 1}
    witness_mats = {"alpha": [[1]], "beta": [[1]]}
    assert evaluate_in_representation(q, witness_dims, witness_mats, aab) == [
        [Fraction(1)]
    ]
    assert certifies_non_membership(q, sub, witness_dims, witness_mats, aab)
    print(
        "ACCEPTANCE 4 PASS: quaternion bound 5, dim 8, boundary class 0, "
        "witness certifies non-membership"
    )


def test_criterion_5_square_h0_and_split_extension():
    """H^0 of the square-quiver dg-algebras: the algebra itself for m > 2,
    a split extension with the expected relation set at m = 2."""
    q, rels = load("square_d4.quiver")
    rho = rels[0].body
    bound = find_admissibility_bound(q, rels)
    dim_a = algebra_dim(q, rels, bound)
    assert dim_a == 9
    for m in (3, 4):
        quiver0, h0_rels = h0_presentation(ginzburg_from_relations(q, rels, m))
        assert [a.name for a in quiver0.arrows] == [a.name for a in q.arrows]
        nonzero = [r for r in h0_rels if not r.is_zero()]
        assert len(nonzero) == 1
        assert nonzero[0] in (rho.rebind(quiver0), -1 * rho.rebind(quiver0))
        rep = homology_dims(ginzburg_from_relations(q, rels, m), m, 2 * bound)
        assert rep.dims[0] == 9 == dim_a
    # m = 2
    assert split_extension_check(q, rels, bound) is None
    quiver2, h0_rels2 = h0_presentation(ginzburg_from_relations(q, rels, 2))
    expected = [
        rho.rebind(quiver2),
        PathElement.from_path(quiver2, ("eps_r", "alpha")),
        PathElement.from_path(quiver2, ("beta", "eps_r")),
        PathElement.from_path(quiver2, ("eps_r", "gamma")),
        PathElement.from_path(quiver2, ("delta", "eps_r")),
    ]
    assert len(h0_rels2) == len(expected) == 5
    for want in expected:
        assert any(r == want or r == -1 * want for r in h0_rels2), want
    print(
        "ACCEPTANCE 5 PASS: square-quiver H^0 is the algebra for m in {3,4} "
        "(dim 9, cross-checked) and the relation extension at m = 2"
    )


def test_criterion_6_structural_suites():
    """d^2 = 0, graded Leibniz, derivative degrees, and the degree table on
    randomized inputs."""
    rng = random.Random(20250803)
    leibniz_checked = 0
    for trial in range(50):
        # alternate acyclic and cyclic shapes
        if trial % 2:
            q = random_acyclic_quiver(rng)
        else:
            from conftest import random_quiver

            q = random_quiver(rng)
        rels = random_relations(rng, q, max_count=3)
        m = rng.choice([2, 3, 4, 5, 6])
        samples = 200 if trial < 2 else 10
        b = relation_dg_algebra(q, rels)
        assert check_d_squared(b, max_len=4, samples_per_degree=samples, seed=trial) is None
        big, w = superpotential_extension(q, rels, m)
        gamma = ginzburg_dg_algebra(big, w, m)
        assert (
            check_d_squared(gamma, max_len=4, samples_per_degree=samples, seed=trial)
            is None
        )

        # degree audit of every generator of the doubled quiver
        degs = {a.name: a.degree for a in gamma.quiver.arrows}
        for a in q.arrows:
            assert degs[a.name] == 0
            assert degs[dual_name(a.name)] == 1 - m
        for r in rels:
            assert degs[reverse_arrow_name(r.label)] == 2 - m
            assert degs[dual_name(reverse_arrow_name(r.label))] == -1
        for v in q.vertices:
            assert degs[loop_name(v)] == -m

        # cyclic derivative degree: |w| - |arrow| whenever nonzero
        if not w.is_zero():
            for a in big.arrows:
                der = cyclic_derivative(w, a.name)
                if not der.is_zero():
                    assert der.degree() == w.degree - a.degree

        # graded Leibniz identity on sampled homogeneous pairs
        paths = [p for p in gamma.quiver.enumerate_paths(3) if not p.is_trivial]
        if paths:
            for _ in range(4):
                x = PathElement(gamma.quiver, {rng.choice(paths): Fraction(rng.randint(1, 3))})
                y = PathElement(gamma.quiver, {rng.choice(paths): Fraction(rng.randint(1, 3))})
                sign = (-1) ** (x.degree() % 2)
                assert apply_d(gamma, x * y) == apply_d(gamma, x) * y + sign * (
                    x * apply_d(gamma, y)
                )
                leibniz_checked += 1
    assert leibniz_checked >= 190
    print(
        "ACCEPTANCE 6 PASS: d^2, Leibniz, derivative degrees and degree "
        f"tables on 50 randomized inputs ({leibniz_checked} Leibniz pairs)"
    )


def test_criterion_7_dimension_separation():
    """Padding by zero relations forces homology the plain construction
    cannot have: a strict gap at i = m - 2."""
    q = GradedQuiver(["1", "2"], [("a", "1", "2", 0)])
    n = 3
    zeros = [zero_relation(q, f"z{k}", q.vertices[k % 2]) for k in range(n)]
    padded = homology_dims(ginzburg_from_relations(q, zeros, 3), 3, 6)
    plain = homology_dims(ginzburg_from_relations(q, [], 3), 3, 6)
    assert padded.dims[1] >= 3
    assert plain.dims[1] == 0
    assert padded.stabilized and plain.stabilized
    print(
        "ACCEPTANCE 7 PASS: zero-padding gap "
        f"{padded.dims[1]} >= 3 vs {plain.dims[1]} at i = m - 2"
    )
