"""Line-oriented input language for quivers with relations.

Grammar ('#' starts a comment, blank lines are skipped)::

    vertex <id> [<id> ...]
    arrow <id> : <src> -> <dst> [deg <int>]
    relation <id> : <src> -> <dst> = <expr>
    m = <int>
    option <key> = <value>

An expression is a signed sum of terms; a term is an optional rational
coefficient (``p`` or ``p/q``) followed by a path, paths being arrow ids
joined by ``*`` and composed left to right.  A bare ``0`` denotes the zero
relation.  Arrow degrees default to 0.  An integer (a degree, m, or an
option value) may carry a leading ``-``; other option values are kept as text.

Parsing either returns a complete `ProblemFile` or raises `ParseError`
carrying every collected diagnostic with line and column; there are no
partial results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import PathElement, format_element
from .dg import Relation, _relation_problems
from .quiver import Arrow, GradedQuiver, Path


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ProblemFile:
    quiver: GradedQuiver
    relations: list[Relation]
    m: int | None = None
    options: dict[str, int | str] = field(default_factory=dict)


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrowsym>->)"
    r"|(?P<sym>[:=*+\-])"
)


def _tokenize(text: str, lineno: int, diags: list[Diagnostic]):
    tokens = []  # (kind, value, column)
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            diags.append(Diagnostic(lineno, pos + 1, f"unexpected character {text[pos]!r}"))
            return None
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            val = m.group()
            if kind == "sym":
                kind = val
            elif kind == "arrowsym":
                kind = "->"
            tokens.append((kind, val, m.start() + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self, ahead=0):
        k = self.pos + ahead
        return self.tokens[k] if k < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def column(self):
        t = self.peek()
        return t[2] if t else (self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1)

    def expect(self, kind, what):
        t = self.next()
        if t is None or t[0] != kind:
            raise _LineError(self.lineno, t[2] if t else self.column(), f"expected {what}")
        return t


class _LineError(Exception):
    def __init__(self, line, column, message):
        self.diagnostic = Diagnostic(line, column, message)
        super().__init__(message)


def _signed_int(cur: _Cursor, what: str, name: str) -> int:
    """An integer with an optional leading '-'; a fraction raises."""
    if neg := cur.peek() is not None and cur.peek()[0] == "-":
        cur.next()
    num = cur.expect("number", what)
    if "/" in num[1]:
        raise _LineError(cur.lineno, num[2], f"{name} must be an integer")
    return -int(num[1]) if neg else int(num[1])


@dataclass
class _RawTerm:
    sign: int
    coeff: Fraction | None
    path: list[str]
    column: int


def _parse_expr(cur: _Cursor) -> list[_RawTerm]:
    terms = []
    first = True
    while True:
        t = cur.peek()
        if t is None:
            if first:
                raise _LineError(cur.lineno, cur.column(), "expected an expression")
            break
        sign = 1
        if t[0] in ("+", "-"):
            if first and t[0] == "+":
                raise _LineError(cur.lineno, t[2], "unexpected leading '+'")
            sign = -1 if t[0] == "-" else 1
            cur.next()
        elif not first:
            raise _LineError(cur.lineno, t[2], "expected '+' or '-' between terms")
        col = cur.column()
        coeff = None
        t = cur.peek()
        if t is not None and t[0] == "number":
            if "/" in t[1] and int(t[1].partition("/")[2]) == 0:
                raise _LineError(cur.lineno, t[2], "zero denominator")
            coeff = Fraction(t[1])
            cur.next()
        path: list[str] = []
        t = cur.peek()
        if t is not None and t[0] == "id":
            path.append(cur.next()[1])
            while (t := cur.peek()) is not None and t[0] == "*":
                cur.next()
                path.append(cur.expect("id", "an arrow id after '*'")[1])
        if coeff is None and not path:
            raise _LineError(cur.lineno, cur.column(), "expected a term")
        terms.append(_RawTerm(sign, coeff, path, col))
        first = False
    return terms


def parse(text: str) -> ProblemFile:
    """Parse the line-oriented language; raises ParseError with diagnostics."""
    diags: list[Diagnostic] = []
    vertices: list[str] = []
    arrows: list[Arrow] = []
    raw_relations = []  # (lineno, label column, label, src, dst, [_RawTerm])
    # (line, column) of each vertex id and of each arrow's name, source and
    # target token, parallel to `vertices` and `arrows`
    where: dict[str, list[tuple[int, int]]] = {
        "vertex": [], "name": [], "source": [], "target": [],
    }
    m_value: int | None = None
    m_line: int | None = None
    options: dict[str, int | str] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno, diags)
        if tokens is None or not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.next()
        try:
            if head[0] == "id" and head[1] == "vertex":
                got = False
                while (t := cur.peek()) is not None:
                    _, v, col = cur.expect("id", "a vertex id")
                    vertices.append(v)
                    where["vertex"].append((lineno, col))
                    got = True
                if not got:
                    raise _LineError(lineno, cur.column(), "expected at least one vertex id")
            elif head[0] == "id" and head[1] == "arrow":
                name = cur.expect("id", "an arrow id")
                cur.expect(":", "':'")
                src = cur.expect("id", "a source vertex")
                cur.expect("->", "'->'")
                dst = cur.expect("id", "a target vertex")
                degree = 0
                if cur.peek() is not None:
                    kw = cur.expect("id", "'deg'")
                    if kw[1] != "deg":
                        raise _LineError(lineno, kw[2], "expected 'deg'")
                    degree = _signed_int(cur, "an integer degree", "degree")
                if cur.peek() is not None:
                    raise _LineError(lineno, cur.column(), "trailing tokens")
                arrows.append(Arrow(name[1], src[1], dst[1], degree))
                for key, token in (("name", name), ("source", src), ("target", dst)):
                    where[key].append((lineno, token[2]))
            elif head[0] == "id" and head[1] == "relation":
                _, label, label_col = cur.expect("id", "a relation id")
                cur.expect(":", "':'")
                src = cur.expect("id", "a source vertex")[1]
                cur.expect("->", "'->'")
                dst = cur.expect("id", "a target vertex")[1]
                cur.expect("=", "'='")
                raw_relations.append((lineno, label_col, label, src, dst, _parse_expr(cur)))
            elif head[0] == "id" and head[1] == "m":
                cur.expect("=", "'='")
                value = _signed_int(cur, "an integer", "m")
                if m_line is not None:
                    raise _LineError(lineno, head[2], f"m already set on line {m_line}")
                m_value, m_line = value, lineno
                if cur.peek() is not None:
                    raise _LineError(lineno, cur.column(), "trailing tokens")
            elif head[0] == "id" and head[1] == "option":
                key = cur.expect("id", "an option key")[1]
                cur.expect("=", "'='")
                val, after = cur.peek(), cur.peek(1)
                if val is None:
                    raise _LineError(lineno, cur.column(), "expected a value")
                if val[0] == "number" and "/" not in val[1] or (
                    val[0] == "-" and after is not None and after[0] == "number"
                ):
                    options[key] = _signed_int(cur, "a number", "a negative option value")
                else:
                    options[key] = cur.next()[1]
                if cur.peek() is not None:
                    raise _LineError(lineno, cur.column(), "trailing tokens")
            else:
                raise _LineError(
                    lineno, head[2],
                    f"unknown statement {head[1]!r} (expected vertex, arrow, "
                    f"relation, m or option)",
                )
        except _LineError as exc:
            diags.append(exc.diagnostic)

    quiver = GradedQuiver(vertices, arrows)
    for key, i, msg in quiver._problems():
        diags.append(Diagnostic(*where[key][i], msg))
    if diags:
        raise ParseError(diags)

    relations: list[Relation] = []
    for lineno, _, label, src, dst, raw_terms in raw_relations:
        terms: dict[Path, Fraction] = {}
        ok = True
        for rt in raw_terms:
            if not rt.path:
                if rt.coeff != 0:
                    diags.append(Diagnostic(lineno, rt.column, "constant term in a relation"))
                    ok = False
                continue
            unknown = [a for a in rt.path if not quiver.has_arrow(a)]
            if unknown:
                diags.append(Diagnostic(
                    lineno, rt.column, f"unknown arrow {unknown[0]!r} in relation {label!r}"
                ))
                ok = False
                continue
            try:
                p = quiver.path(rt.path)
            except ValueError as exc:
                diags.append(Diagnostic(lineno, rt.column, str(exc)))
                ok = False
                continue
            c = rt.sign * (rt.coeff if rt.coeff is not None else Fraction(1))
            terms[p] = terms.get(p, 0) + c
        if not ok:
            continue
        relations.append(Relation(label, src, dst, PathElement(quiver, terms)))
    if not diags:
        # every raw relation became a relation, so their indices agree
        for i, msg in _relation_problems(quiver, relations):
            diags.append(Diagnostic(*raw_relations[i][:2], msg))
    if diags:
        raise ParseError(diags)
    return ProblemFile(quiver=quiver, relations=relations, m=m_value, options=options)


def serialize(pf: ProblemFile) -> str:
    """Canonical text form; parse(serialize(pf)) == pf."""
    lines = []
    if pf.quiver.vertices:
        lines.append("vertex " + " ".join(pf.quiver.vertices))
    for a in pf.quiver.arrows:
        suffix = f" deg {a.degree}" if a.degree else ""
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}{suffix}")
    for r in pf.relations:
        lines.append(
            f"relation {r.label} : {r.source} -> {r.target} = "
            f"{format_element(r.body)}"
        )
    if pf.m is not None:
        lines.append(f"m = {pf.m}")
    for k in sorted(pf.options):
        lines.append(f"option {k} = {pf.options[k]}")
    return "\n".join(lines) + "\n"
