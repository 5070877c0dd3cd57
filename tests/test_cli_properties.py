"""A property net over the command line: every command on random small
problem files, run in process through `cli.main`.

Each command ends with exit code 0, 1 or 2 and no traceback, two runs give
the same bytes, and the blocks that a single-purpose command shares with
`report` are equal.  The commands that read m only optionally, or not at
all, also run without `--m`, and those that never read it answer the same.
Once `report`'s L reaches N - 1, H^0 is the dimension of KQ/(R).  An
out-of-range max_len or max_n is refused first, whatever else is wrong.  Fresh
names for the vertices, arrows and relations, with each arrow and each
relation scaled by a nonzero integer, change no exit code and no number or
name of any report once the names are mapped back.  Names that meet the
generated ones change no exit code and no message, unless the clash is
refused as such.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    GradedQuiver,
    PathElement,
    ProblemFile,
    Relation,
    cli,
    dual_name,
    loop_name,
    relation_arrow_name,
    reverse_arrow_name,
    serialize,
)

from conftest import random_quiver, random_relations


COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3), st.integers(2, 6))
def test_every_command_exits_cleanly_and_agrees_with_report(tmp_path_factory, seed, max_len, max_n):
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=COEFFS)
    pf = ProblemFile(q, rels, options={"max_len": max_len})
    path = tmp_path_factory.mktemp("cli") / "problem.quiver"
    path.write_text(serialize(pf), encoding="utf-8")

    results = {}
    for command, spec in cli.COMMANDS.items():
        runs = []
        for m_flag in [["--m", "3"]] + ([] if spec.m == "required" else [[]]):
            argv = [command, str(path), *m_flag, "--max-n", str(max_n)]
            first = _run(argv)
            code, _, err = first
            assert code in (0, 1, 2), (command, first)
            assert "Traceback" not in err, (command, err)
            assert _run(argv) == first, command
            runs.append(first)
        if spec.m is None:
            assert runs[0] == runs[1], command
        code, out, _ = runs[0]
        results[command] = json.loads(out) if code == 0 else None

    report = results["report"]
    assert report is not None
    n = report["ideal"]["admissible_N"]
    if n is not None and report["homology"]["L"] >= n - 1:
        assert report["homology"]["dims"]["0"] == report["ideal"]["dim"]
    assert results["homology"]["homology"] == report["homology"]
    assert results["admissibility"]["ideal"]["admissible_N"] == report["ideal"]["admissible_N"]
    for command, key in (("ideal-dim", "dim"), ("ext2", "ext2"),
                         ("system-of-relations", "system_of_relations")):
        if results[command] is None:  # no bound up to max_n
            assert report["ideal"] == {"admissible_N": None}
        else:
            ideal = results[command]["ideal"]
            assert ideal == {k: report["ideal"][k] for k in ("admissible_N", key)}


# an out-of-range flag or file option, and the message that refuses it
_OUT_OF_RANGE = [
    (["--max-len", "-1"], {}, "max_len must be >= 0"),
    ([], {"max_len": -2}, "max_len must be >= 0"),
    (["--max-n", "1"], {}, "max_n must be >= 2"),
    ([], {"max_n": 0}, "max_n must be >= 2"),
]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(sorted(cli.COMMANDS)),
       st.sampled_from(_OUT_OF_RANGE), st.sampled_from([None, 1, 2, 3]), st.booleans())
def test_out_of_range_settings_are_refused_first(tmp_path_factory, seed, command, bad, m, graded):
    # every command refuses an out-of-range max_len or max_n before any work
    # and before any other error: a missing or bad m that the command reads,
    # or an arrow of nonzero degree.  Only a bad m that it does not read
    # comes first
    rng = random.Random(seed)
    q = random_quiver(rng)
    rels = random_relations(rng, q, max_count=3, coeffs=COEFFS)
    if graded:
        q = q.with_extra_arrows([Arrow("g", q.vertices[0], q.vertices[0], -1)])
    flags, options, message = bad
    path = tmp_path_factory.mktemp("range") / "problem.quiver"
    path.write_text(serialize(ProblemFile(q, rels, options=options)), encoding="utf-8")
    m_flag = [] if m is None else ["--m", str(m)]
    if m == 1 and cli.COMMANDS[command].m is None:
        message = "the construction needs m >= 2"
    assert _run([command, str(path), *m_flag, *flags]) == (1, "", f"error: {message}\n")


def _renamed(rng: random.Random, pf: ProblemFile, pools=None) -> tuple[ProblemFile, dict[str, str]]:
    """pf under fresh names, drawn so that their order changes, with every
    arrow a sent to lambda_a a and every relation scaled by its own mu, all
    nonzero integers; and the map from each new name, derived names
    included, back to the old one.  With `pools`, the vertex, arrow and
    relation names are drawn from pools["w"], ["c"] and ["s"]."""
    q = pf.quiver

    def fresh(prefix: str, names: list[str]) -> dict[str, str]:
        if pools:
            return dict(zip(names, rng.sample(pools[prefix], len(names))))
        numbers = rng.sample(range(len(names)), len(names))
        return {old: f"{prefix}{k}" for old, k in zip(names, numbers)}

    vertex = fresh("w", list(q.vertices))
    arrow = fresh("c", [a.name for a in q.arrows])
    label = fresh("s", [r.label for r in pf.relations])
    scale = {a.name: rng.choice((1, -1, 2, -3)) for a in q.arrows}
    new_q = GradedQuiver(
        [vertex[v] for v in q.vertices],
        [Arrow(arrow[a.name], vertex[a.source], vertex[a.target], a.degree) for a in q.arrows],
    )
    relations = []
    for r in pf.relations:
        mu = rng.choice((1, -1, 2, -3))
        body = PathElement(new_q, {
            new_q.path([arrow[n] for n in p.arrows]): mu * c * math.prod(map(scale.get, p.arrows))
            for p, c in r.body.terms.items()
        })
        relations.append(Relation(label[r.label], vertex[r.source], vertex[r.target], body))
    arrows = dict(arrow)  # each name that the Ginzburg construction dualizes
    for f in (reverse_arrow_name, relation_arrow_name):
        arrows.update((f(old), f(new)) for old, new in label.items())
    back = {new: old for names in (vertex, label, arrows) for old, new in names.items()}
    back.update((loop_name(new), loop_name(old)) for old, new in vertex.items())
    back.update((dual_name(new), dual_name(old)) for old, new in arrows.items())
    return ProblemFile(new_q, relations, options=pf.options), back


def _read_back(value, names: dict[str, str]):
    """The report with every name read through `names`; a string that is
    no name, such as a formatted element, which rescaling changes, reads as "~"."""
    if isinstance(value, dict):
        return {names.get(k, k): _read_back(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_read_back(v, names) for v in value]
    if isinstance(value, str):
        return names.get(value, "~")
    return value


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_renaming_and_rescaling_change_no_report(tmp_path_factory, seed, max_len):
    rng = random.Random(seed)
    q = random_quiver(rng)
    pf = ProblemFile(q, random_relations(rng, q, max_count=3, coeffs=COEFFS),
                     options={"max_len": max_len})
    renamed, back = _renamed(rng, pf)
    same = {name: name for name in back.values()}
    folder = tmp_path_factory.mktemp("renamed")
    reports = []
    for problem, names in ((pf, same), (renamed, back)):
        path = folder / f"{len(reports)}.quiver"
        path.write_text(serialize(problem), encoding="utf-8")
        runs = {}
        for command in cli.COMMANDS:
            code, out, _ = _run([command, str(path), "--m", "3", "--max-n", "5"])
            runs[command] = code, _read_back(json.loads(out), names) if code == 0 else None
        reports.append(runs)
    assert reports[0] == reports[1]


# vertex, arrow and relation names that meet the generated ones: the loop
# t_u of vertex u, the dual t_u_star of arrow t_u and the loop of vertex
# u_star, and the relation arrows eps_u and eta_x of relations u and x
_CLASH_PRONE = {
    "w": ["u", "x", "u_star", "x_star"],
    "c": ["t_u", "t_x", "t_u_star", "eps_u", "eta_x", "a"],
    "s": ["u", "x", "r"],
}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_clashing_names_are_refused_or_change_nothing(tmp_path_factory, seed):
    # under names that can meet the generated ones, each command gives the
    # exit code and message of the same file under clash-free names, or
    # refuses the clash; it never fails late, in a degree or endpoint check
    rng = random.Random(seed)
    q = random_quiver(rng)
    pf = ProblemFile(q, random_relations(rng, q, max_count=3, coeffs=COEFFS),
                     options={"max_len": 2})
    clashing, _ = _renamed(rng, pf, _CLASH_PRONE)
    folder = tmp_path_factory.mktemp("clash")
    paths = [folder / "plain.quiver", folder / "clashing.quiver"]
    for path, problem in zip(paths, (pf, clashing)):
        path.write_text(serialize(problem), encoding="utf-8")
    for command in cli.COMMANDS:
        (code, _, err), (clash_code, _, clash_err) = (
            _run([command, str(path), "--m", "3", "--max-n", "5"]) for path in paths
        )
        if not re.fullmatch(r"error: generated arrow name '\w+' already in use\n", clash_err):
            assert (clash_code, clash_err) == (code, err), command
