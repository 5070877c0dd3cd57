"""The names that `perfbench/spans.py` traces must resolve in dgquiver.

The tracer rebinds each `(module, attr)` of `FUNCTIONS` and each
`(module, class, method)` of `METHODS` by name; a refactor that drops or
moves one breaks `perfbench/run.py --trace 1`, which the test suite does
not run.  The two lists are read from the file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_lists() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }


def test_traced_names_resolve():
    lists = _traced_lists()
    assert lists["FUNCTIONS"] and lists["METHODS"]
    for mod_name, attr in lists["FUNCTIONS"]:
        module = importlib.import_module(f"dgquiver.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    for mod_name, cls_name, meth in lists["METHODS"]:
        cls = getattr(importlib.import_module(f"dgquiver.{mod_name}"), cls_name)
        assert meth in cls.__dict__, f"{mod_name}.{cls_name}.{meth}"
