import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import PathElement, ProblemFile, parse, serialize
from dgquiver.dsl import Diagnostic, ParseError

from conftest import random_acyclic_quiver, random_relations


def test_parse_minimal_file():
    pf = parse("vertex v\n")
    assert pf.quiver.vertices == ("v",)
    assert pf.quiver.arrows == ()
    assert pf.relations == [] and pf.m is None and pf.options == {}


def test_parse_square_example():
    text = """
    # the commuting square
    vertex v1 v2 v3 v4
    arrow a : v1 -> v2
    arrow b : v2 -> v4
    arrow c : v1 -> v3
    arrow d : v3 -> v4
    relation r1 : v1 -> v4 = a*b - c*d
    """
    pf = parse(text)
    assert len(pf.quiver.arrows) == 4
    (rel,) = pf.relations
    assert rel.label == "r1" and (rel.source, rel.target) == ("v1", "v4")
    expect = PathElement.from_path(pf.quiver, ("a", "b")) - PathElement.from_path(
        pf.quiver, ("c", "d")
    )
    assert rel.body == expect


def test_parse_undeclared_arrow_is_diagnosed():
    text = "vertex v\nrelation r : v -> v = ghost\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    assert "ghost" in diag.message and diag.line == 2


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("vertex v\narrow x : v ->\n")
    d = exc.value.diagnostics[0]
    assert (d.line, d.column) == (2, 15)


def test_parse_collects_multiple_diagnostics():
    text = "arrow x : v ->\nfoo\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert len(exc.value.diagnostics) >= 2


def test_parse_degrees_and_options():
    text = (
        "vertex v\n"
        "arrow s : v -> v deg -1\n"
        "arrow u : v -> v deg 2\n"
        "m = 4\n"
        "option max_len = 7\n"
        "option note = hello\n"
    )
    pf = parse(text)
    assert pf.quiver.arrow("s").degree == -1
    assert pf.quiver.arrow("u").degree == 2
    assert pf.m == 4
    assert pf.options == {"max_len": 7, "note": "hello"}


def test_parse_negative_option_values():
    # a '-' followed by a number is a negative int; other values as before
    pf = parse(
        "vertex v\n"
        "option seed = -3\n"
        "option max_len = - 12\n"
        "option ratio = 3/4\n"
        "option dash = -\n"
    )
    assert pf.options == {"seed": -3, "max_len": -12, "ratio": "3/4", "dash": "-"}
    for line, message in [
        ("option x = -3/4", "a negative option value must be an integer"),
        ("option x = - y", "trailing tokens"),
        ("option x = -3 4", "trailing tokens"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(f"vertex v\n{line}\n")
        assert [d.message for d in exc.value.diagnostics] == [message]


def test_parse_zero_relation_and_coefficients():
    text = (
        "vertex v\n"
        "arrow a : v -> v\n"
        "relation z : v -> v = 0\n"
        "relation w : v -> v = 3/2 a*a - a*a*a\n"
    )
    pf = parse(text)
    z, w = pf.relations
    assert z.body.is_zero()
    assert w.body.terms[pf.quiver.path(("a", "a"))] == Fraction(3, 2)
    assert w.body.terms[pf.quiver.path(("a", "a", "a"))] == Fraction(-1)


def test_parse_rejects_constant_term():
    with pytest.raises(ParseError) as exc:
        parse("vertex v\narrow a : v -> v\nrelation r : v -> v = 1 + a\n")
    assert "constant term" in exc.value.diagnostics[0].message


def test_parse_rejects_endpoint_mismatch():
    text = "vertex u v\narrow a : u -> v\nrelation r : v -> v = a*a\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_reports_relation_problems_at_their_label():
    text = """vertex a b c
arrow x : a -> b
arrow y : b -> c
arrow z : a -> c

relation r : a -> b = x*y
relation r : a -> c = x*y - z
relation s : a -> d = x*y
"""
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.diagnostics == [
        Diagnostic(6, 10, "relation 'r': term ends at 'c', expected 'b'"),
        Diagnostic(7, 10, "duplicate relation label 'r'"),
        Diagnostic(8, 10, "relation 's' uses undeclared vertex 'd'"),
    ]


def test_parse_reports_quiver_problems_at_their_token():
    text = "vertex a b\narrow x : a -> q\narrow x : a -> b\nvertex a\narrow y : p -> a\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.diagnostics == [
        Diagnostic(4, 8, "duplicate vertex id 'a'"),
        Diagnostic(2, 16, "arrow 'x' has undeclared target 'q'"),
        Diagnostic(3, 7, "duplicate arrow id 'x'"),
        Diagnostic(5, 11, "arrow 'y' has undeclared source 'p'"),
    ]


def test_parse_duplicate_m():
    with pytest.raises(ParseError) as exc:
        parse("vertex v\nm = 2\nm = 3\n")
    assert "already set" in exc.value.diagnostics[0].message


def test_parse_cancelling_terms_leave_zero_body():
    pf = parse("vertex v\narrow a : v -> v\nrelation r : v -> v = a*a - a*a\n")
    assert pf.relations[0].body.is_zero()


def test_round_trip_fixed_example():
    text = (
        "vertex v1 v2\n"
        "arrow a : v1 -> v2\n"
        "arrow b : v2 -> v1 deg -2\n"
        "relation r : v1 -> v1 = 2 a*b\n"
        "m = 3\n"
        "option seed = 5\n"
    )
    pf = parse(text)
    assert parse(serialize(pf)) == pf


def test_round_trip_randomized():
    rng = random.Random(123)
    for trial in range(15):
        q = random_acyclic_quiver(rng)
        rels = random_relations(rng, q, max_count=3)
        pf = ProblemFile(
            quiver=q,
            relations=rels,
            m=rng.choice([None, 2, 3, 4]),
            options={} if rng.random() < 0.5 else {
                "max_len": rng.randint(3, 9), "seed": rng.randint(-9, 9)
            },
        )
        assert parse(serialize(pf)) == pf, f"trial {trial}"


@pytest.mark.parametrize(
    "line, column, message",
    [
        ("relation r : v -> v =", 22, "expected an expression"),
        ("relation r : v -> v = + a*a", 23, "unexpected leading '+'"),
        ("relation r : v -> v = a*a b*b", 27, "expected '+' or '-' between terms"),
        ("relation r : v -> v = a*a + -", 29, "expected a term"),
        ("arrow c : v -> v deg 1 x", 24, "trailing tokens"),
    ],
)
def test_parse_names_each_malformed_statement(line, column, message):
    text = f"vertex v\narrow a : v -> v\narrow b : v -> v\n{line}\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.diagnostics == [Diagnostic(4, column, message)]


def test_diagnostic_str():
    assert str(Diagnostic(3, 7, "boom")) == "line 3, column 7: boom"


def test_parse_zero_denominator_is_diagnosed():
    text = "vertex v\narrow a : v -> v\nrelation r : v -> v = a*a*a - 1/0 a*a\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    assert (diag.line, diag.column, diag.message) == (3, 31, "zero denominator")


_COEFF = st.tuples(st.integers(0, 30), st.integers(0, 4))
_TERM = st.tuples(
    st.sampled_from(["+", "-"]),
    st.none() | _COEFF,
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TERM, min_size=1, max_size=4))
def test_parse_relation_coefficients_fuzz(terms):
    """A well-formed relation line with p/q coefficients parses, or raises
    ParseError at the first zero denominator; never anything else."""
    line, zero_den_col = "relation r : v -> v = ", None
    for k, (sign, coeff, path) in enumerate(terms):
        if k:
            line += f"{sign} "
        elif sign == "-":
            line += "-"
        if coeff is not None:
            p, den = coeff
            if den == 0 and zero_den_col is None:
                zero_den_col = len(line) + 1
            line += f"{p}/{den} "
        line += "*".join(path) + " "
    text = "vertex v\narrow a : v -> v\narrow b : v -> v\n" + line + "\n"
    try:
        pf = parse(text)
    except ParseError as exc:
        assert all(d.line >= 1 and d.column >= 1 for d in exc.diagnostics)
        assert zero_den_col is not None, exc.diagnostics
        assert exc.diagnostics[0] == Diagnostic(4, zero_den_col, "zero denominator")
    else:
        assert zero_den_col is None
        assert len(pf.relations) == 1


_ID = st.sampled_from(["v", "w", "a", "b", "deg", "m", "vertex", "arrow", "option"])
_INT = st.builds(
    lambda neg, n: f"- {n}" if neg else str(n), st.booleans(), st.integers(0, 12)
)
_NOISE = st.sampled_from(
    [":", "->", "=", "-", "+", "*", "0", "7", "3/4", "2/0", "#", "!", "deg", "v", "x_1"]
)
_WELL_FORMED = st.one_of(
    st.builds(lambda ids: ["vertex", *ids], st.lists(_ID, min_size=1, max_size=3)),
    st.builds(
        lambda name, src, dst, deg: ["arrow", name, ":", src, "->", dst]
        + ([] if deg is None else ["deg", deg]),
        _ID, st.sampled_from(["v", "w"]), st.sampled_from(["v", "w"]), st.none() | _INT,
    ),
    st.builds(lambda n: ["m", "=", n], _INT),
    st.builds(lambda key, val: ["option", key, "=", val], _ID, _ID | _INT | _NOISE),
)


@st.composite
def _statement_line(draw):
    """A vertex, arrow, m or option line: well formed, with a few tokens
    dropped, replaced or inserted, or the keyword and random tokens."""
    tokens = draw(_WELL_FORMED)
    kind = draw(st.sampled_from(["keep", "edit", "random"]))
    if kind == "random":
        tokens = tokens[:1] + draw(st.lists(_NOISE | _ID, max_size=7))
    elif kind == "edit":
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(tokens)))
            op = draw(st.sampled_from(["drop", "replace", "insert"]))
            if op == "insert" or k == len(tokens):
                tokens = tokens[:k] + [draw(_NOISE | _ID)] + tokens[k:]
            elif op == "replace":
                tokens = tokens[:k] + [draw(_NOISE | _ID)] + tokens[k + 1:]
            else:
                tokens = tokens[:k] + tokens[k + 1:]
    return draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


@settings(max_examples=300, deadline=None)
@given(st.lists(_statement_line(), min_size=1, max_size=5))
def test_parse_statement_lines_fuzz(lines):
    """Vertex, arrow, m and option lines built from random tokens parse, or
    raise ParseError whose every diagnostic has a line and a column; a file
    that parses survives a round trip through serialize."""
    try:
        pf = parse("\n".join(lines) + "\n")
    except ParseError as exc:
        assert exc.diagnostics
        for d in exc.diagnostics:
            assert 1 <= d.line <= len(lines) and d.column >= 1, d
    else:
        assert parse(serialize(pf)) == pf
