"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json it runs run.py for `run_seconds`
once per seed in SEEDS, one run at a time, with tracing off, and once per
seed in TRACED_SEEDS with tracing on.  Per metric it records the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median.  The output also names the Python version, the git commit and
nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
TRACED_SEEDS = (11, 12)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        traced = [run_once(name, s, seconds, 1) for s in TRACED_SEEDS]
        entry = {
            "seeds": list(SEEDS),
            "traced_seeds": list(TRACED_SEEDS),
            "attempted": [r["attempted"] for r in runs + traced],
            "failed": [r["failed"] for r in runs + traced],
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": summarise(runs),
            "per_layer": summarise(traced),
        }
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(
                f"{name:15s} {metric:12s} median {s['median']:.6g} {s['unit']} "
                f"spread {s['spread']:.3%}",
                file=sys.stderr,
            )
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
