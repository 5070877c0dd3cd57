"""The dgquiver benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload hom-quaternion --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; dgquiver is imported from its `src/`.
Set-up (import, fixture parse, seeded input generation) is repeated
SETUP_REPEATS times and its median reported as `setup_s`.  Then ops run in
a closed loop until the next op would end past `--seconds`; every answer
is compared with the exact expected integers, and a mismatch or an
exception counts as a failed op.

Set-up and op times (`setup_s`, `op_s`, `op_cpu_s`, `trace.overhead_s`)
are seconds at the host's uncontended speed: each is scaled by the host
speed a `speed.SpeedProbe` sampled while it ran, because other tenants of
the shared host otherwise move them by a quarter or more between runs.
The unscaled op walls are printed on stderr.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1`
untraced and traced ops alternate, the traced ones under wrapped layer
calls (see spans.py); the per-layer metrics are medians over the traced
ops.  `trace.overhead_s` is traced minus untraced op time: the pairs run
untraced-first and traced-first in turn, and the medians of the two orders
are averaged, so a cost of running second does not count as overhead.  The
`linalg.rank.*` metrics time `linalg.rank`, before the ops, on the
matrices that `build_truncated` gives at the L+1 cutoff.  Spans are
written to `.perfbench-out/` in the checkout.  The last line of stdout is
one JSON object; a human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("quiver", "dg", "homology", "linalg", "ideals", "dsl")
SETUP_REPEATS = 40

RANK_DEGREES = (-3, -2, -1)
# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class SetupError(Exception):
    """The checkout does not hold the program or its fixtures."""


def load_library(root: Path):
    """Import the dgquiver modules afresh from root/src."""
    src = root / "src"
    if not (src / "dgquiver" / "__init__.py").is_file():
        raise SetupError(f"no dgquiver package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "dgquiver" or n.startswith("dgquiver.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dgquiver")
    if Path(pkg.__file__).resolve().parent != (src / "dgquiver").resolve():
        raise SetupError(f"dgquiver imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"dgquiver.{m}") for m in MODULES}
    )


def setup(workload: W.Workload, seed: int, root: Path = ROOT, repeats: int = SETUP_REPEATS):
    """(lib, inputs, scaled seconds per set-up); the last set-up is the one used."""
    times = []
    with SpeedProbe() as probe:
        for _ in range(repeats):
            t0 = probe.clock()[0]
            lib = load_library(root)
            try:
                inputs = workload.make_inputs(lib, root, random.Random(seed))
            except FileNotFoundError as exc:
                raise SetupError(str(exc)) from exc
            times.append(probe.clock()[0] - t0)
    return lib, inputs, [t * probe.wall_factor for t in times]


def run_op(workload, lib, inputs, tracer: Tracer | None = None):
    """(answer or None, ok, scaled wall s, scaled cpu s, unscaled wall s) of
    one op, traced if `tracer`."""
    with SpeedProbe() as probe:
        t0, c0 = probe.clock()
        try:
            if tracer is None:
                answer = workload.op(lib, inputs)
            else:
                answer = tracer.call_op(workload.op, lib, inputs)
        except Exception:  # any failure of the program is a failed op
            traceback.print_exc()
            answer = None
        t1, c1 = probe.clock()
    ok = answer is not None and answer == workload.expected
    if answer is not None and not ok:
        print(f"wrong answer: {answer!r}", file=sys.stderr)
    return answer, ok, (t1 - t0) * probe.wall_factor, (c1 - c0) * probe.cpu_factor, t1 - t0


def closed_loop(step, seconds: float) -> list:
    """Call step() until the next call would end past `seconds`; at least once."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def end_to_end(workload, lib, inputs, setup_times, seconds):
    results = closed_loop(lambda: run_op(workload, lib, inputs), seconds)
    print("op walls:", " ".join(f"{r[4]:.3f}" for r in results), file=sys.stderr)
    print("scaled:  ", " ".join(f"{r[2]:.3f}" for r in results), file=sys.stderr)
    metrics = {
        "op_s": statistics.median(r[2] for r in results),
        "op_cpu_s": statistics.median(r[3] for r in results),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(not r[1] for r in results)
    return metrics, len(results), failed


def _rank_pass(workload, lib, inputs) -> dict:
    """Time linalg.rank per degree on the complex at the L+1 cutoff."""
    out = {}
    for d in RANK_DEGREES:
        out[f"linalg.rank.deg{d}.s"] = out[f"linalg.rank.deg{d}"] = 0
    out["linalg.rank_per_row"] = 0
    if workload.max_len is None:
        return out
    dga = lib.dg.ginzburg_from_relations(inputs.quiver, inputs.relations, W.M)
    cx = lib.homology.build_truncated(dga, workload.max_len + 1, range(-W.M, 1))
    ranks = rows = 0
    for d in RANK_DEGREES:
        mx = cx.matrices[d]
        t0 = time.perf_counter()
        r = lib.linalg.rank(mx)
        out[f"linalg.rank.deg{d}.s"] = time.perf_counter() - t0
        out[f"linalg.rank.deg{d}"] = r
        ranks += r
        rows += len({i for i, _ in mx.entries})
    out["linalg.rank_per_row"] = ranks / rows if rows else 0
    return out


def layer_metrics(tracer: Tracer, workload, overhead: float) -> dict:
    """Per-op sums over the spans, then medians over the traced ops."""
    own = tracer.self_time()
    per_op: list[dict] = [defaultdict(int) for _ in range(tracer.op + 1)]
    for s in tracer.spans:
        m = per_op[s.op]
        m["trace.spans"] += 1
        m[f"{s.name}.s"] += s.end - s.start
        m[f"{s.name}.self_s"] += own[s.id]
        m[f"{s.name}.calls"] += 1
        if "paths" in s.counters:
            m["quiver.paths.count"] += s.counters["paths"]
        if "true" in s.counters:
            m[f"{s.name}.true"] += s.counters["true"]
        if "basis" in s.counters:
            tag = "L" if s.counters["max_len"] == workload.max_len else "L1"
            m[f"homology.basis.{tag}"] += s.counters["basis"]
            m[f"homology.nnz.{tag}"] += s.counters["nnz"]
    for m in per_op:
        m["homology.build_truncated.s"] = m["homology.build_truncated.self_s"]
        calls = m["ideals.generates_arrow_power.calls"]
        m["ideals.generates_arrow_power.true_ratio"] = (
            m["ideals.generates_arrow_power.true"] / calls if calls else 0
        )
    out = {
        name: statistics.median(m[name] for m in per_op)
        for name in PER_LAYER
        if not name.startswith(("linalg.", "trace.overhead"))
    }
    out["trace.overhead_s"] = overhead
    return out


def traced(workload, lib, inputs, seconds, out_path: Path | None):
    """(per-layer metrics, ops attempted, ops failed, wrappers left over).

    Ops run in pairs, one untraced and one traced, and every other pair runs
    the traced op first; a pair fails where either answer is wrong or the
    traced answer differs from the untraced one.
    """
    tracer = Tracer(lib)
    leftover: set[str] = set()

    def traced_op():
        tracer.install()
        try:
            return run_op(workload, lib, inputs, tracer)
        finally:
            tracer.remove()
            leftover.update(tracer.leftover_wrappers())

    order = itertools.cycle((True, False))

    def pair():
        if next(order):
            plain = run_op(workload, lib, inputs)
            return plain, traced_op()
        traced_ = traced_op()
        return run_op(workload, lib, inputs), traced_

    start = time.perf_counter()
    ranks = _rank_pass(workload, lib, inputs)
    pairs = closed_loop(pair, seconds - (time.perf_counter() - start))
    failed = sum((not p[1]) + (not t[1] or t[0] != p[0]) for p, t in pairs)
    by_order = [[t[2] - p[2] for p, t in pairs[k::2]] for k in (0, 1)]
    overhead = statistics.fmean(statistics.median(d) for d in by_order if d)
    metrics = layer_metrics(tracer, workload, overhead)
    metrics.update(ranks)
    if out_path is not None:
        tracer.write(out_path)
    return metrics, 2 * len(pairs), failed, sorted(leftover)


def report(metrics: dict, units: dict, attempted: int, failed: int, correct: bool) -> str:
    for name, unit in units.items():
        print(f"{name:45s} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"{'ops':45s} {attempted:>14d}", file=sys.stderr)
    print(f"{'error_rate':45s} {failed / attempted:>14.6g} failed/attempted", file=sys.stderr)
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = W.WORKLOADS[args.workload]
    try:
        lib, inputs, setup_times = setup(workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        out = ROOT / ".perfbench-out" / f"trace-{args.workload}-{args.seed}.json"
        metrics, attempted, failed, leftover = traced(workload, lib, inputs, args.seconds, out)
        if leftover:
            print(f"wrappers left installed: {leftover}", file=sys.stderr)
        correct = failed == 0 and not leftover
        line = report(metrics, PER_LAYER, attempted, failed, correct)
    else:
        metrics, attempted, failed = end_to_end(workload, lib, inputs, setup_times, args.seconds)
        line = report(metrics, END_TO_END, attempted, failed, failed == 0)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
