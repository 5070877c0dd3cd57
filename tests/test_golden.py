"""Golden outputs: every CLI command on the fixtures and the demo scripts.

Each case runs `cli.main` in-process and compares stdout, stderr and the
exit code byte for byte with `tests/golden/cli.json`; each demo's stdout is
compared with `tests/golden/demos.json`.  A refactor must leave them all
unchanged.  To record the data again after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from dgquiver import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

# a path algebra with no admissibility bound: KQ is infinite-dimensional
ONE_LOOP = "vertex v\narrow a : v -> v\n"

COMMANDS = (
    "validate", "build-b", "build-gamma", "check-d2", "homology", "h0",
    "vosnex", "ideal-dim", "admissibility", "system-of-relations", "ext2",
    "split-ext-2", "report",
)
FIXTURE_NAMES = ("one_vertex_empty", "one_vertex_zero", "quaternion", "square_d4")


def _cases() -> list[tuple[str, str, list[str]]]:
    """(case id, input name, extra argv) for every recorded CLI run."""
    cases = []
    for name in FIXTURE_NAMES + ("one_loop",):
        for command in COMMANDS:
            cases.append((f"{name}-{command}-m3", name, [command, "--m", "3"]))
    for name in FIXTURE_NAMES:
        cases.append((f"{name}-report-m2", name, ["report", "--m", "2"]))
    return cases


CASES = _cases()
DEMO_NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))


def _input_path(name: str, tmp: Path) -> Path:
    if name == "one_loop":
        path = tmp / "one_loop.quiver"
        path.write_text(ONE_LOOP)
        return path
    return FIXTURES / f"{name}.quiver"


def run_case(name: str, argv: list[str], tmp: Path) -> dict:
    command, *flags = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(_input_path(name, tmp)), *flags])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(stem: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    return out.getvalue()


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id,name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(case_id, name, argv, tmp_path):
    assert run_case(name, argv, tmp_path) == _load("cli.json")[case_id]


def test_golden_cases_cover_every_cli_command():
    assert set(COMMANDS) == set(cli.COMMANDS)
    assert sorted(_load("cli.json")) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("stem", DEMO_NAMES)
def test_demo_golden(stem):
    assert run_demo(stem) == _load("demos.json")[stem]


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = {cid: run_case(name, argv, Path(tmp)) for cid, name, argv in CASES}
    demos = {stem: run_demo(stem) for stem in DEMO_NAMES}
    for fname, payload in (("cli.json", data), ("demos.json", demos)):
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        (GOLDEN / fname).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
