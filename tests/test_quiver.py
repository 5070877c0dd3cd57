import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgquiver import Arrow, GradedQuiver, ParseError, Path, parse


def loops_quiver(*degree_pairs):
    return GradedQuiver(
        ["v"], [Arrow(name, "v", "v", deg) for name, deg in degree_pairs]
    )


def test_empty_quiver_constructs():
    assert GradedQuiver([]).enumerate_paths(3) == []


@pytest.mark.parametrize("vertices, arrows, message", [
    pytest.param(["v"], [Arrow("a", "v", "w", 0)], "arrow 'a' has undeclared target 'w'",
                 id="undeclared-target"),
    # kept as two arrows, this loop made certify answer N = 3 for the
    # relation a*a, whose bound is 2
    pytest.param(["v"], [Arrow("a", "v", "v", 0), Arrow("a", "v", "v", 0)],
                 "duplicate arrow id 'a'", id="doubled-loop"),
    # kept twice, v made path_counts(0, 0, 0) answer {0: 2}
    pytest.param(["v", "v"], [], "duplicate vertex id 'v'", id="doubled-vertex"),
])
def test_a_malformed_quiver_is_refused(vertices, arrows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GradedQuiver(vertices, arrows)


_VERTICES = st.sampled_from(["u", "v", "w"])
_ENDS = st.sampled_from(["u", "v"])
_ARROWS = st.builds(Arrow, st.sampled_from(["a", "b", "c"]), _ENDS, _ENDS, st.integers(-1, 1))


@settings(max_examples=200, deadline=None)
@given(
    vertices=st.lists(_VERTICES, max_size=4) | st.lists(_VERTICES, max_size=3, unique=True),
    arrows=st.lists(_ARROWS, max_size=4) | st.lists(_ARROWS, max_size=3, unique_by=lambda a: a.name),
)
def test_the_constructor_refuses_what_the_parser_diagnoses(vertices, arrows):
    # repeated names and undeclared endpoints, one statement per line: the
    # library raises iff the parser does, with its messages in its order
    text = "".join(f"vertex {v}\n" for v in vertices) + "".join(
        f"arrow {a.name} : {a.source} -> {a.target} deg {a.degree}\n" for a in arrows
    )
    try:
        pf = parse(text)
    except ParseError as exc:
        with pytest.raises(ValueError) as info:
            GradedQuiver(vertices, arrows)
        assert str(info.value) == "; ".join(d.message for d in exc.diagnostics)
    else:
        assert GradedQuiver(vertices, arrows) == pf.quiver


def test_enumerate_no_arrows():
    q = GradedQuiver(["v"])
    assert q.enumerate_paths(5) == [q.trivial_path("v")]


def test_enumerate_single_loop():
    q = loops_quiver(("a", 0))
    paths = q.enumerate_paths(3)
    assert [p.arrows for p in paths] == [(), ("a",), ("a", "a"), ("a", "a", "a")]


def test_enumerate_degree_filter_two_loops():
    # loops of degree -1 and -2; in degree -2 exactly the square of the
    # first and the second itself
    q = loops_quiver(("eps_star", -1), ("eps", -2))
    got = {p.arrows for p in q.enumerate_paths(4) if q.degree_of(p) == -2}
    assert got == {("eps",), ("eps_star", "eps_star")}


def test_enumerate_prefix_consistency():
    q = GradedQuiver(
        ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 0), Arrow("c", "1", "1", 0)]
    )
    shorter = q.enumerate_paths(3)
    longer = [p for p in q.enumerate_paths(4) if len(p) <= 3]
    assert shorter == longer


def test_enumerate_path_count_formula():
    # one vertex, k loops in degree 0: (k^{L+1} - 1)/(k - 1) paths up to L
    for k in (2, 3):
        q = loops_quiver(*[(f"x{i}", 0) for i in range(k)])
        for max_len in (0, 1, 2, 3):
            expect = (k ** (max_len + 1) - 1) // (k - 1)
            assert len(q.enumerate_paths(max_len)) == expect


def test_enumerated_paths_compose():
    q = GradedQuiver(
        ["1", "2", "3"],
        [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0), Arrow("c", "2", "1", 0)],
    )
    for p in q.enumerate_paths(4):
        if not p.is_trivial:
            q.path(p.arrows)  # raises if consecutive arrows do not compose


def test_is_acyclic():
    assert not loops_quiver(("a", 0)).is_acyclic()
    a3 = GradedQuiver(["1", "2", "3"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)])
    assert a3.is_acyclic()
    square = GradedQuiver(
        ["v1", "v2", "v3", "v4"],
        [
            Arrow("alpha", "v1", "v2", 0),
            Arrow("beta", "v2", "v4", 0),
            Arrow("gamma", "v1", "v3", 0),
            Arrow("delta", "v3", "v4", 0),
        ],
    )
    assert square.is_acyclic()
    two_cycle = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "1", 0)])
    assert not two_cycle.is_acyclic()


def test_longest_path_length():
    a3 = GradedQuiver(["1", "2", "3"], [Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)])
    # the walk stops at length 2, the longest path, whatever max_len asks for
    assert max(len(p) for p in a3.enumerate_paths(5)) == 2
    assert not loops_quiver(("a", 0)).is_acyclic()


def test_longest_path_length_deep_line():
    # deeper than the interpreter's recursion limit
    n = 3000
    line = GradedQuiver(
        [str(i) for i in range(n)],
        [Arrow(f"a{i}", str(i), str(i + 1), 0) for i in range(n - 1)],
    )
    assert line.is_acyclic()


def test_compose_with_trivial_paths():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    a = q.path(["a"])
    assert q.compose(q.trivial_path("1"), a) == a
    assert q.compose(a, q.trivial_path("2")) == a
    assert q.compose(a, q.trivial_path("1")) is None
    assert q.compose(q.trivial_path("2"), a) is None


def test_path_constructor_rejects_non_composable():
    q = GradedQuiver(["1", "2"], [Arrow("a", "1", "2", 0)])
    with pytest.raises(ValueError):
        q.path(["a", "a"])


def test_path_value_invariant():
    with pytest.raises(ValueError):
        Path(arrows=("a",), base="v")
    with pytest.raises(ValueError):
        Path()


@st.composite
def small_quivers(draw):
    """Up to three vertices and five arrows of degree -2 to 2, declared in a
    drawn permutation of their names, so that declaration order need not be
    name order.  Positive degrees reach the walk's upward pruning."""
    vertices = [str(i) for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vertices)
    specs = draw(st.lists(st.tuples(ends, ends, st.integers(-2, 2)), max_size=5))
    names = draw(st.permutations([f"a{k}" for k in range(len(specs))]))
    return GradedQuiver(
        vertices, [Arrow(name, s, t, d) for name, (s, t, d) in zip(names, specs)]
    )


@given(
    small_quivers(), st.integers(0, 4), st.integers(-5, 1), st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 6), st.integers(-6, 2), st.integers(0, 4)), max_size=3),
)
@example(GradedQuiver(["a"], [("a", "a", "a", 0)]), 2, 0, 0, [])  # vertex named like its arrow
# declared in reverse name order: only a walk in name order sorts level 2
@example(
    GradedQuiver(["0", "1"], [("b", "0", "0", 0), ("a", "0", "0", 0), ("c", "1", "0", 0)]),
    3, 0, 0, [],
)
@example(GradedQuiver(["0", "1"]), 3, -1, 2, [])  # no arrows: the trivial paths only
@example(GradedQuiver(["0"], [("a", "0", "0", -1), ("b", "0", "0", 2)]), 0, -1, 2, [])  # max_len 0
# every path has degree <= 0, so no path reaches the window
@example(GradedQuiver(["0"], [("a", "0", "0", -1), ("b", "0", "0", 0)]), 4, 1, 3, [])
# the warm quiver first filled a wider window, deeper, and a disjoint one
@example(
    GradedQuiver(["0", "1"], [("a", "0", "1", -1), ("b", "1", "0", 2), ("c", "0", "0", 0)]),
    4, -2, 3, [(6, -6, 4), (1, 2, 0)],
)
@settings(max_examples=80, deadline=None)
def test_paths_by_degree_matches_filter(q, max_len, lo, width, warmups):
    # the quiver's one table set answers alike whatever it filled first: a
    # warm copy, which first counted other windows at other cutoffs and
    # placed paths of other degrees, answers as the fresh quiver and the walk
    warm = GradedQuiver(q.vertices, q.arrows)
    for n, wlo, wwidth in warmups:
        warm.path_counts(n, wlo, wlo + wwidth)
        position = warm.path_positions(wlo + wwidth)
        for key in warm.paths_by_degree(n, wlo + wwidth, wlo + wwidth)[wlo + wwidth]:
            if type(key) is tuple:
                position(key)
    paths = q.enumerate_paths(max_len)
    assert paths == sorted(paths, key=q.path_sort_key)
    buckets = q.paths_by_degree(max_len, lo, lo + width)
    assert set(buckets) == set(range(lo, lo + width + 1))
    for quiver in (q, warm):
        for d, got in buckets.items():
            assert got == [p.key for p in paths if q.degree_of(p) == d]
            # counted, a nontrivial path's position is the walk's
            position = quiver.path_positions(d)
            assert {i: position(k) for i, k in enumerate(got) if type(k) is tuple} == {
                i: i for i, k in enumerate(got) if type(k) is tuple
            }
        assert quiver.path_counts(max_len, lo, lo + width) == {d: len(b) for d, b in buckets.items()}


def test_a_repeated_count_makes_no_count_table_call(monkeypatch):
    # `path_counts` and `_lesser` call `_lesser` only for a state not yet in
    # the tables, which keep the states outside the steps too: each call of a
    # first count builds a state, and counting again, or a narrower window at
    # the same cutoff, makes no call
    from dgquiver import quiver

    q = loops_quiver(("a", 0), ("b", -1), ("c", -2), ("d", 1))
    calls = []  # per call, whether its state (v, d, n) was kept already
    lesser = quiver._lesser
    monkeypatch.setattr(quiver, "_lesser", lambda *args: calls.append(args[3:] in args[2])
                        or lesser(*args))
    first = q.path_counts(6, -3, 0)
    assert len(calls) == len(q._tables) > 0 and not any(calls)
    calls.clear()
    assert q.path_counts(6, -3, 0) == first
    assert q.path_counts(6, -2, -1) == {d: first[d] for d in (-2, -1)}
    assert calls == []


def test_lookups_and_extensions_refuse_what_the_quiver_lacks():
    q = loops_quiver(("a", 0))
    with pytest.raises(KeyError, match="unknown vertex 'ghost'"):
        q.vertex_index("ghost")
    with pytest.raises(ValueError, match="use trivial_path for length-0 paths"):
        q.path([])
    with pytest.raises(ValueError, match="generated arrow name 'a' already in use"):
        q.with_extra_arrows([Arrow("a", "v", "v", -1)])
