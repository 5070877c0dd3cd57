from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    GradedQuiver,
    NotHomogeneousError,
    PathElement,
    QuiverMismatchError,
    cyclic_derivative,
    cyclic_reduce,
    format_element,
    supercommutator,
)

from conftest import element


def loops(*degree_pairs):
    return GradedQuiver(["v"], [Arrow(n, "v", "v", d) for n, d in degree_pairs])


TWO_LOOPS = loops(("a", 0), ("b", 0))


def brute_concat(x_terms, y_terms):
    """Independent multiplication oracle on a one-vertex quiver: plain
    word concatenation with coefficient products."""
    out = {}
    for (w1, c1), (w2, c2) in product(x_terms.items(), y_terms.items()):
        w = w1 + w2
        out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def as_words(x):
    return {p.arrows: c for p, c in x.terms.items()}


# ---------- add / multiply ----------


def test_add_zero_and_cancellation():
    x = element(TWO_LOOPS, (2, ("a",)), (3, ("b", "a")))
    assert x + PathElement.zero(TWO_LOOPS) == x
    assert (x + (-1) * x).is_zero()


def test_add_collects_coefficients():
    p = element(TWO_LOOPS, (2, ("a",)))
    q = element(TWO_LOOPS, (3, ("a",)))
    assert (p + q) == element(TWO_LOOPS, (5, ("a",)))


def test_add_quiver_mismatch():
    other = loops(("a", 0))
    with pytest.raises(QuiverMismatchError):
        element(TWO_LOOPS, (1, ("a",))) + element(other, (1, ("a",)))


def test_multiply_idempotent_action():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    a = PathElement.from_arrow(q, "a")
    assert PathElement(q, {q.trivial_path("1"): 1}) * a == a
    assert (PathElement(q, {q.trivial_path("2"): 1}) * a).is_zero()


def test_multiply_concatenates_arrows():
    q = GradedQuiver(["1", "2", "3"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)])
    ab = PathElement.from_arrow(q, "a") * PathElement.from_arrow(q, "b")
    assert ab == PathElement.from_path(q, ("a", "b"))


def test_multiply_quaternion_expansion():
    # (a^2 - bab) * b = a^2 b - bab^2, checked against brute concatenation
    x = element(TWO_LOOPS, (1, ("a", "a")), (-1, ("b", "a", "b")))
    y = element(TWO_LOOPS, (1, ("b",)))
    assert as_words(x * y) == brute_concat(as_words(x), as_words(y))
    assert x * y == element(TWO_LOOPS, (1, ("a", "a", "b")), (-1, ("b", "a", "b", "b")))


def test_unit_is_two_sided_identity():
    q = GradedQuiver(
        ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 0)]
    )
    one = PathElement(q, {q.trivial_path(v): 1 for v in q.vertices})
    x = element(q, (3, ("a", "b")), (1, ("a",)))
    assert one * x == x
    assert x * one == x


paths_strategy = st.sampled_from(
    [p for p in TWO_LOOPS.enumerate_paths(3)]
)
coeffs = st.integers(min_value=-4, max_value=4)
elements_strategy = st.dictionaries(paths_strategy, coeffs, max_size=4).map(
    lambda d: PathElement(TWO_LOOPS, d)
)


@given(elements_strategy, elements_strategy, elements_strategy)
@settings(max_examples=80, deadline=None)
def test_multiply_associative_and_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


# ---------- degrees ----------


def test_homogeneous_degree_cases():
    q = loops(("a", -1), ("e", -2))
    assert PathElement.from_arrow(q, "a").degree() == -1
    assert PathElement(q, {q.trivial_path("v"): 1}).degree() == 0
    mixed = element(q, (1, ("a",)), (1, ("e",)))
    with pytest.raises(NotHomogeneousError):
        mixed.degree()
    assert PathElement.zero(q).degree() is None


# ---------- supercommutator ----------


def test_supercommutator_even_self():
    q = loops(("a", 0))
    a = PathElement.from_arrow(q, "a")
    assert supercommutator(a, a).is_zero()


def test_supercommutator_degree_zero_times_odd():
    # |a| = 0 and |s| = 1 - m: the sign (-1)^{0 * (1-m)} is +1 regardless
    for m in (3, 4):
        q = loops(("a", 0), ("s", 1 - m))
        a, s = PathElement.from_arrow(q, "a"), PathElement.from_arrow(q, "s")
        assert supercommutator(a, s) == a * s - s * a


def test_supercommutator_odd_times_odd():
    # |e| = 2 - m with m odd and |s| = -1: the cross sign is -1
    m = 5
    q = loops(("e", 2 - m), ("s", -1))
    e, s = PathElement.from_arrow(q, "e"), PathElement.from_arrow(q, "s")
    assert supercommutator(e, s) == e * s + s * e


def test_integer_scalars_act_from_either_side_and_zero_commutes():
    q = loops(("a", 0), ("s", -1))
    x = element(q, (1, ("a", "s")), (Fraction(-1, 2), ("s", "a")))
    assert x * 2 == 2 * x == x.scale(2)
    assert supercommutator(x, PathElement.zero(q)).is_zero()
    assert supercommutator(PathElement.zero(q), x).is_zero()


def test_supercommutator_requires_homogeneous():
    q = loops(("a", 0), ("s", -1))
    mixed = element(q, (1, ("a",)), (1, ("s",)))
    with pytest.raises(NotHomogeneousError):
        supercommutator(mixed, PathElement.from_arrow(q, "a"))


# ---------- cyclic reduction ----------


def test_cyclic_reduce_trivial_cycle():
    q = loops(("a", 0))
    w = cyclic_reduce(PathElement(q, {q.trivial_path("v"): 1}))
    assert w.terms == {q.trivial_path("v"): Fraction(1)}


def test_cyclic_reduce_even_commutator_vanishes():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 0)])
    ab = PathElement.from_path(q, ("a", "b"))
    ba = PathElement.from_path(q, ("b", "a"))
    assert cyclic_reduce(ab - ba).is_zero()


def test_cyclic_reduce_odd_odd_sum_vanishes():
    # uv and vu with both degrees odd: uv -> vu carries sign -1
    q = GradedQuiver(["1", "2"], [Arrow("u", "1", "2", -1), Arrow("w", "2", "1", -1)])
    uw = PathElement.from_path(q, ("u", "w"))
    wu = PathElement.from_path(q, ("w", "u"))
    assert cyclic_reduce(uw + wu).is_zero()
    assert not cyclic_reduce(uw - wu).is_zero()


def test_cyclic_reduce_periodic_odd_cycle_dropped():
    # s*s with |s| = -1: rotating by one gives the same word with sign -1,
    # so the class is 2-torsion and vanishes over Q
    q = loops(("s", -1))
    ss = PathElement.from_path(q, ("s", "s"))
    assert cyclic_reduce(ss).is_zero()
    # while s*s*s*s has even period degree contributions... rotating by one
    # costs (-1)^{1*3} = -1, so it also dies; an even-degree loop survives
    q2 = loops(("t", -2))
    tt = PathElement.from_path(q2, ("t", "t"))
    assert not cyclic_reduce(tt).is_zero()


def test_cyclic_reduce_rejects_non_cycles():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    with pytest.raises(ValueError):
        cyclic_reduce(PathElement.from_arrow(q, "a"))


def test_cyclic_reduce_supercommutators_die(quaternion):
    q, _ = quaternion
    import random

    rng = random.Random(11)
    paths = [p for p in q.enumerate_paths(3) if len(p) >= 1]
    for _ in range(25):
        x = PathElement(q, {rng.choice(paths): Fraction(rng.randint(1, 3))})
        y = PathElement(q, {rng.choice(paths): Fraction(rng.randint(1, 3))})
        assert cyclic_reduce(supercommutator(x, y)).is_zero()


# ---------- cyclic derivative ----------


def test_cyclic_derivative_no_occurrence():
    q = loops(("a", 0))
    w = cyclic_reduce(PathElement(q, {q.trivial_path("v"): 1}))
    assert cyclic_derivative(w, "a").is_zero()


def test_cyclic_derivative_degree_zero_square_cycle():
    # del_a (aab) = ab + ba in the all-degree-zero case
    w = cyclic_reduce(element(TWO_LOOPS, (1, ("a", "a", "b"))))
    got = cyclic_derivative(w, "a")
    assert got == element(TWO_LOOPS, (1, ("a", "b")), (1, ("b", "a")))


def test_cyclic_derivative_detaches_pairing_arrow():
    # w = sum_k eps_k rho_k with no eps inside any rho:
    # del_{eps_k} w = (-1)^{|eps_k|} rho_k = (-1)^m rho_k
    for m in (3, 4, 5):
        q = GradedQuiver(
            ["v"],
            [
                Arrow("a", "v", "v", 0),
                Arrow("b", "v", "v", 0),
                Arrow("e1", "v", "v", 2 - m),
                Arrow("e2", "v", "v", 2 - m),
            ],
        )
        rho1 = element(q, (1, ("a", "a")), (-1, ("b", "a", "b")))
        rho2 = element(q, (1, ("a", "b")))
        w = cyclic_reduce(
            PathElement.from_arrow(q, "e1") * rho1
            + PathElement.from_arrow(q, "e2") * rho2
        )
        sign = (-1) ** m
        assert cyclic_derivative(w, "e1") == sign * rho1
        assert cyclic_derivative(w, "e2") == sign * rho2


def test_cyclic_derivative_degree_drop():
    # |del_a w| = |w| - |a| on every nonzero derivative
    m = 4
    q = loops(("a", 0), ("e", 2 - m))
    w = cyclic_reduce(element(q, (1, ("e", "a", "a"))))
    d = cyclic_derivative(w, "a")
    assert d.degree() == (2 - m) - 0
    d2 = cyclic_derivative(w, "e")
    assert d2.degree() == (2 - m) - (2 - m)


GRADED_LOOPS = loops(("a", 0), ("s", -1), ("t", -2))


@st.composite
def graded_cycles(draw):
    length = draw(st.integers(min_value=1, max_value=5))
    names = draw(
        st.lists(st.sampled_from(["a", "s", "t"]), min_size=length, max_size=length)
    )
    return tuple(names)


@given(graded_cycles(), st.sampled_from(["a", "s", "t"]), st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_cyclic_derivative_rotation_invariance(names, arrow, k):
    """del_a p == sigma * del_a p' for p' any rotation of p with its sign."""
    q = GRADED_LOOPS
    k = k % len(names)
    rotated = names[k:] + names[:k]
    du = sum(q.arrow(n).degree for n in names[:k])
    dv = sum(q.arrow(n).degree for n in names[k:])
    sigma = -1 if (du * dv) % 2 else 1
    w1 = PathElement(q, {q.path(names): Fraction(1)})
    w2 = PathElement(q, {q.path(rotated): Fraction(1)})
    assert cyclic_derivative(w1, arrow) == sigma * cyclic_derivative(w2, arrow)


def test_cyclic_derivative_unknown_arrow():
    w = cyclic_reduce(element(TWO_LOOPS, (1, ("a", "b"))))
    with pytest.raises(KeyError):
        cyclic_derivative(w, "zz")


def test_format_element_readable():
    x = element(TWO_LOOPS, (1, ("a", "b")), (-2, ("b",)))
    assert format_element(x) == "-2 b + a*b"
    assert format_element(PathElement.zero(TWO_LOOPS)) == "0"
    assert format_element(PathElement(TWO_LOOPS, {TWO_LOOPS.trivial_path("v"): 1})) == "e_v"
