"""A property net over the command line: every command on random small
problem files, run in process through `cli.main`.

Each command ends with exit code 0, 1 or 2 and no traceback, two runs give
the same bytes, and the blocks that a single-purpose command shares with
`report` are equal.  The commands that read m only optionally, or not at
all, also run without `--m`, and those that never read it answer the same.
Once `report`'s L reaches N - 1, H^0 is the dimension of KQ/(R).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import ProblemFile, cli, serialize

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
