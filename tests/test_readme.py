"""The README's library quick start runs, and gives what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# (expression, its comment in the README, the value that comment promises)
PROMISED = [
    ("ideal.bound - 1", "N = 5", 5),
    ("ideal.dim()", "8", 8),
    ("ideal.ext2()", "2", 2),
    ('ideal.contains(P("a", "a", "b"))', "True", True),
    ("[r.label for r in ideal.minimal_system()]", "all three", ["r1", "r2", "r3"]),
    ("sorted(homology_dims(dg, m=3, max_len=5).dims)", None, [0, 1, 2]),
]


def test_library_quick_start_runs_and_keeps_its_promises():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.DOTALL).group(1)
    lines = {re.sub(r"\s+", " ", line).strip() for line in block.splitlines()}
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    for expression, comment, value in PROMISED:
        if comment is not None:
            assert f"{expression} # {comment}" in lines, expression
        assert eval(expression, namespace) == value, expression
