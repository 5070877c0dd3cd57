"""Fast self-check of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.TINY))
def test_tiny_answers_are_exact_for_every_seed(name):
    w = W.TINY[name]
    for seed in (1, 2, 3):
        lib, inputs, times = run.setup(w, seed, repeats=1)
        answer, ok, wall, cpu, raw = run.run_op(w, lib, inputs)
        assert ok, answer
        assert len(times) == 1 and wall > 0 and cpu > 0 and raw > 0


def test_seed_changes_coefficients_not_structure():
    spec = W.grid_spec(3)
    texts = {W.rescaled_text(spec, random.Random(s)) for s in range(4)}
    assert len(texts) > 1
    lib = run.load_library(run.ROOT)
    for text in texts:
        pf = lib.dsl.parse(text)
        assert [r.label for r in pf.relations] == [r[0] for r in spec.relations]
        assert [len(r.body.terms) for r in pf.relations] == [2] * 4


def test_rescaling_substitutes_every_arrow():
    spec = W.grid_spec(2)  # arrows h0_0, d0_0, d0_1, h1_0; one relation
    draws = iter([2, 3, -1, -2, -3])  # four arrows, then the relation

    class Draws:
        def choice(self, options):
            return next(draws)

    pf = run.load_library(run.ROOT).dsl.parse(W.rescaled_text(spec, Draws()))
    coeffs = {p.arrows: c for p, c in pf.relations[0].body.terms.items()}
    assert coeffs == {("h0_0", "d0_1"): -3 * 2 * -1, ("d0_0", "h1_0"): -1 * -3 * 3 * -2}


def test_wrong_answer_counts_as_failure():
    w = dataclasses.replace(W.TINY["ideal-pipeline"], expected={"quaternion": None})
    lib, inputs, times = run.setup(w, 1, repeats=2)
    metrics, attempted, failed = run.end_to_end(w, lib, inputs, times, seconds=0)
    assert attempted == failed == 1
    assert set(metrics) == set(run.END_TO_END)


def test_wrong_answer_in_traced_run_counts_as_failure():
    w = dataclasses.replace(W.TINY["ideal-pipeline"], expected={"quaternion": None})
    lib, inputs, _ = run.setup(w, 1, repeats=1)
    metrics, attempted, failed, leftover = run.traced(w, lib, inputs, 0, None)
    assert attempted == failed == 2 and leftover == []


def test_exception_counts_as_failure():
    def boom(lib, inputs):
        raise ZeroDivisionError

    w = dataclasses.replace(W.TINY["ideal-pipeline"], op=boom)
    lib, inputs, _ = run.setup(w, 1, repeats=1)
    answer, ok, *_ = run.run_op(w, lib, inputs)
    assert answer is None and not ok


@pytest.mark.parametrize("name", sorted(W.TINY))
def test_traced_run_reports_every_layer_and_unwraps(name, tmp_path):
    w = W.TINY[name]
    lib, inputs, _ = run.setup(w, 5, repeats=1)
    originals = {m: dict(vars(getattr(lib, m))) for m in run.MODULES}
    out = tmp_path / "spans.json"
    metrics, attempted, failed, leftover = run.traced(w, lib, inputs, 0, out)
    assert set(metrics) == set(run.PER_LAYER)
    assert attempted == 2 and failed == 0 and leftover == []
    assert {m: dict(vars(getattr(lib, m))) for m in run.MODULES} == originals
    spans = json.loads(out.read_text())
    assert spans and all(s["end"] >= s["start"] for s in spans)
    if w.max_len is not None:
        assert metrics["homology.build_truncated.calls"] == 2
        assert metrics["homology.basis.L"] < metrics["homology.basis.L1"]
        assert metrics["linalg.rank.deg-3"] > 0
    else:
        assert metrics["ideals.bound_is_valid.calls"] > 0
        assert metrics["homology.build_truncated.calls"] == 0


def test_self_times_add_up_to_the_op():
    w = W.TINY["hom-quaternion"]
    lib, inputs, _ = run.setup(w, 1, repeats=1)
    tracer = run.Tracer(lib)
    tracer.install()
    try:
        tracer.call_op(w.op, lib, inputs)
    finally:
        tracer.remove()
    own = tracer.self_time()
    root = tracer.spans[0]
    assert root.name == "op" and root.parent is None
    assert sum(own.values()) == pytest.approx(root.end - root.start)
    assert all(v >= 0 for v in own.values())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(W.WORKLOADS)


def test_overhead_does_not_count_the_cost_of_running_second(monkeypatch):
    w = W.TINY["ideal-pipeline"]
    lib, inputs, _ = run.setup(w, 1, repeats=1)
    calls = itertools.count()

    def fake_run_op(workload, lib, inputs, tracer=None):
        if tracer is not None:
            tracer.call_op(lambda: None)
        second = next(calls) % 2  # the second op of a pair takes 0.5 s longer
        wall = 1.0 + 0.5 * second + 0.1 * (tracer is not None)
        return workload.expected, True, wall, wall, wall

    monkeypatch.setattr(run, "run_op", fake_run_op)
    metrics, attempted, failed, leftover = run.traced(w, lib, inputs, 0.05, None)
    assert attempted >= 4 and failed == 0 and leftover == []
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)


def _probed_busy_block(seconds):
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            speed.reference()
    return probe


def test_speed_probe_scales_by_the_sampled_reference_time(monkeypatch):
    before = signal.getsignal(signal.SIGALRM)
    probe = _probed_busy_block(0.3)
    assert len(probe.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    # A host twice as slow makes every reference take twice as long.
    original = speed.reference
    monkeypatch.setattr(speed, "reference", lambda: (original(), original()))
    slow = _probed_busy_block(0.3)
    assert 0.35 < slow.wall_factor / probe.wall_factor < 0.65


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideal-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
