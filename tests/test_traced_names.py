"""The names that `perfbench/spans.py` traces must resolve in dgquiver.

The tracer rebinds each `(module, attr)` of `FUNCTIONS` and each
`(module, class, method)` of `METHODS` by name; a refactor that drops or
moves one breaks `perfbench/run.py --trace 1`, which the test suite does
not run.  The two lists are read from the file's source, not imported;
the traced run loads `spans.py` and `workloads.py` from their files.
"""

import ast
import importlib
import importlib.util
import random
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def _load(name: str):
    """A perfbench module loaded from its file, once per session."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "perfbench" / f"{name}.py")
        sys.modules[key] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]


def _traced_tiny(name: str):
    """(tracer, lib, inputs): the tracer after one traced op of the TINY
    workload `name` on `inputs`, whose answer is checked, with every wrapper
    removed again."""
    spans, workloads = _load("spans"), _load("workloads")
    lib = types.SimpleNamespace(**{
        m: importlib.import_module(f"dgquiver.{m}")
        for m in ("quiver", "dg", "homology", "linalg", "ideals", "dsl")
    })
    w = workloads.TINY[name]
    inputs = w.make_inputs(lib, ROOT, random.Random(1))
    tracer = spans.Tracer(lib)
    tracer.install()
    try:
        assert tracer.call_op(w.op, lib, inputs) == w.expected
    finally:
        tracer.remove()
    assert tracer.leftover_wrappers() == []
    return tracer, lib, inputs


def test_tiny_ideal_op_opens_the_search_spans():
    # the ideal pipeline's per-layer metrics read these spans; the harness's
    # own self-check pins them, but tier-1 does not run it.  Quaternion's
    # minimal system asks one generation proof, so the proof's true_ratio
    # metric has a call to read
    opened = {s.name for s in _traced_tiny("ideal-pipeline")[0].spans}
    assert {
        "ideals.find_admissibility_bound", "ideals.bound_is_valid", "ideals.generates_arrow_power"
    } <= opened


def test_tiny_hom_op_counts_the_truncated_complexes():
    # the hom workloads' per-layer basis and nnz metrics read these counters,
    # and the tracer computes nnz from `SparseMatrix.entries`: basis is the
    # window's path count, and nnz the entries of every matrix of an untraced
    # build at the same cutoff
    tracer, lib, inputs = _traced_tiny("hom-quaternion")
    m = _load("workloads").M
    gamma = lib.dg.ginzburg_from_relations(inputs.quiver, inputs.relations, m)
    built = [s for s in tracer.spans if s.name == "homology.build_truncated"]
    assert built
    for span in built:
        max_len = span.counters["max_len"]
        cx = lib.homology.build_truncated(gamma, max_len, range(-m, 1))
        assert span.counters["basis"] == sum(gamma.quiver.path_counts(max_len, -m, 0).values()) > 0
        assert span.counters["nnz"] == sum(len(mx.entries) for mx in cx.matrices.values()) > 0


def test_rank_pass_ranks_the_l_plus_1_matrix(monkeypatch):
    # the claimed per-layer metric linalg.rank.deg-3 is `rank` of the degree
    # -3 matrix at the cutoff L + 1; the harness's self-check is not tier-1
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends perfbench/
    run = _load("run")
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"dgquiver.{m}") for m in run.MODULES})
    w = run.W.TINY["hom-quaternion"]
    inputs = w.make_inputs(lib, ROOT, random.Random(1))
    out = run._rank_pass(w, lib, inputs)
    gamma = lib.dg.ginzburg_from_relations(inputs.quiver, inputs.relations, run.W.M)
    mx = lib.homology.build_truncated(gamma, w.max_len + 1, range(-3, 1)).matrices[-3]
    assert w.max_len + 1 == 4
    assert out["linalg.rank.deg-3"] == lib.linalg.rank(mx) > 0
    assert out["linalg.rank.deg-3.s"] > 0
