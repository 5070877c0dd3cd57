"""Batch command line: parse a problem file, run a computation, emit JSON.

Exit codes: 0 on success, 1 on a computation error (bad m, no admissibility
bound, failed precondition) or an unreadable input or output file, 2 on a
parse error.  Diagnostics go to stderr, the JSON report to stdout or to
--output.  Reports are byte-identical across runs: every randomized check
takes its seed from --seed (default 0) and all enumeration orders are
deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .algebra import format_element
from .dg import (
    check_d_squared,
    ginzburg_from_relations,
    relation_dg_algebra,
)
from .dsl import ParseError, ProblemFile, parse
from .homology import (
    default_truncation_length,
    h0_presentation,
    homology_dims,
    vosnex_equivalence_check,
)
from .ideals import (
    NotAdmissibleError,
    algebra_dim,
    ext2_dim,
    find_admissibility_bound,
    split_extension_check,
    system_of_relations,
)


class CommandError(Exception):
    pass


def _arrow_list(arrows) -> list[dict]:
    return [
        {"name": a.name, "source": a.source, "target": a.target, "degree": a.degree}
        for a in arrows
    ]


def _input_block(pf: ProblemFile) -> dict:
    return {
        "vertices": list(pf.quiver.vertices),
        "arrows": _arrow_list(pf.quiver.arrows),
        "relations": [
            {
                "label": r.label,
                "source": r.source,
                "target": r.target,
                "body": format_element(r.body),
            }
            for r in pf.relations
        ],
        "m": pf.m,
        "options": {k: pf.options[k] for k in sorted(pf.options)},
    }


def _dg_block(dg) -> dict:
    return {
        "arrows": _arrow_list(dg.quiver.arrows),
        "differentials": {
            a.name: format_element(dg.d(a.name)) for a in dg.quiver.arrows
        },
    }


def _opt_int(pf: ProblemFile, key: str, flag_value, fallback: int) -> int:
    """The flag, else the file's `option key = ...`, else the fallback; a
    file value that is not an integer is an error even when a flag is given."""
    v = pf.options.get(key, fallback)
    if not isinstance(v, int):
        raise CommandError(f"option {key} = {v} is not an integer")
    return v if flag_value is None else flag_value


def _find_bound(pf: ProblemFile, max_n: int) -> int:
    bound = find_admissibility_bound(pf.quiver, pf.relations, max_n=max_n)
    if bound is None:
        raise NotAdmissibleError(f"no admissibility bound up to {max_n}")
    return bound


@dataclass(frozen=True)
class _Job:
    """One command's input once the preconditions in its table row hold."""

    pf: ProblemFile
    args: argparse.Namespace
    max_n: int
    m: int | None
    bound: int | None

    def max_len(self, m: int) -> int:
        default = default_truncation_length(m, self.pf.relations, self.bound)
        return _opt_int(self.pf, "max_len", self.args.max_len, default)

    def gamma(self):
        return ginzburg_from_relations(self.pf.quiver, self.pf.relations, self.m)


# ---------- report sections: each shared by its command and `report` ----------


def _homology_block(dg, m: int, max_len: int) -> dict:
    rep = homology_dims(dg, m, max_len)
    return {
        "L": rep.max_len,
        "stabilized": rep.stabilized,
        "dims": {str(i): rep.dims[i] for i in sorted(rep.dims)},
        "vosnex": rep.vosnex,
    }


_IDEAL_ENTRIES = {
    "dim": lambda pf, n: algebra_dim(pf.quiver, pf.relations, n),
    "system_of_relations": lambda pf, n: [
        {"label": r.label, "body": format_element(r.body)}
        for r in system_of_relations(pf.quiver, pf.relations, n)
    ],
    "ext2": lambda pf, n: ext2_dim(pf.quiver, pf.relations, n),
}


def _d2_verdict(job: _Job, dg, max_len: int) -> str:
    seed = _opt_int(job.pf, "seed", job.args.seed, 0)
    samples = _opt_int(job.pf, "d2_samples", None, 200)
    bad = check_d_squared(dg, max_len=max_len, samples_per_degree=samples, seed=seed)
    return "ok" if bad is None else f"counterexample: {format_element(bad)}"


def _split_verdict(job: _Job) -> str:
    verdict = split_extension_check(job.pf.quiver, job.pf.relations, job.bound)
    return "ok" if verdict is None else verdict


# ---------- command bodies ----------


def _check_d2(job: _Job) -> dict:
    # without m only the relation dg-algebra is checked, with it the doubled
    # dg-algebra as well
    max_len = job.max_len(2 if job.m is None else job.m)
    targets = [("b", relation_dg_algebra(job.pf.quiver, job.pf.relations))]
    if job.m is not None:
        targets.append(("gamma", job.gamma()))
    return {
        "checks": {f"d_squared_{name}": _d2_verdict(job, dg, max_len) for name, dg in targets}
    }


def _h0(job: _Job) -> dict:
    quiver0, rels = h0_presentation(job.gamma())
    return {
        "h0": {
            "vertices": list(quiver0.vertices),
            "arrows": [a.name for a in quiver0.arrows],
            "relations": [format_element(r) for r in rels],
        }
    }


def _vosnex(job: _Job) -> dict:
    pf = job.pf
    verdict = vosnex_equivalence_check(pf.quiver, pf.relations, job.m, job.max_len(job.m))
    return {"vosnex": {**asdict(verdict), "all_equal": verdict.all_equal()}}


def _ideal_command(key: str) -> Callable[[_Job], dict]:
    entry = _IDEAL_ENTRIES[key]
    return lambda job: {"ideal": {"admissible_N": job.bound, key: entry(job.pf, job.bound)}}


def _admissibility(job: _Job) -> dict:
    bound = find_admissibility_bound(job.pf.quiver, job.pf.relations, max_n=job.max_n)
    return {"ideal": {"admissible_N": bound, "searched_up_to": job.max_n}}


def _report(job: _Job) -> dict:
    max_len = job.max_len(job.m)
    dg = job.gamma()
    out = {"gamma": _dg_block(dg), "homology": _homology_block(dg, job.m, max_len)}
    ideal: dict = {"admissible_N": job.bound}
    if job.bound is not None:
        for key, entry in _IDEAL_ENTRIES.items():
            ideal[key] = entry(job.pf, job.bound)
    out["ideal"] = ideal
    checks = {"d_squared": _d2_verdict(job, dg, max_len)}
    if job.m == 2 and job.bound is not None:
        checks["split_extension"] = _split_verdict(job)
    out["checks"] = checks
    return out


class _Command(NamedTuple):
    """`m`: "required", "optional" or None (not read); `bound`: "find" (exit 1
    when there is none up to max_n), "try" (None when there is none) or None."""

    m: str | None
    degree_zero: bool
    bound: str | None
    body: Callable[[_Job], dict]


COMMANDS = {
    "validate": _Command(None, False, None, lambda job: {"checks": {"validate": "ok"}}),
    "build-b": _Command(
        None, True, None,
        lambda job: {"b": _dg_block(relation_dg_algebra(job.pf.quiver, job.pf.relations))},
    ),
    "build-gamma": _Command("required", True, None, lambda job: {"gamma": _dg_block(job.gamma())}),
    "check-d2": _Command("optional", True, None, _check_d2),
    "homology": _Command(
        "required", True, "try",
        lambda job: {"homology": _homology_block(job.gamma(), job.m, job.max_len(job.m))},
    ),
    "h0": _Command("required", True, None, _h0),
    "vosnex": _Command("required", True, "try", _vosnex),
    "ideal-dim": _Command(None, True, "find", _ideal_command("dim")),
    "admissibility": _Command(None, True, None, _admissibility),
    "system-of-relations": _Command(None, True, "find", _ideal_command("system_of_relations")),
    "ext2": _Command(None, True, "find", _ideal_command("ext2")),
    "split-ext-2": _Command(
        None, True, "find",
        lambda job: {"m": 2, "checks": {"split_extension": _split_verdict(job)}},
    ),
    "report": _Command("required", True, "try", _report),
}


def run(command: str, pf: ProblemFile, args) -> dict:
    """Dispatch one command on a parsed problem file; returns the report."""
    spec = COMMANDS.get(command)
    if spec is None:
        raise CommandError(f"unknown command {command!r}")
    out = {"input": _input_block(pf)}
    max_n = _opt_int(pf, "max_n", args.max_n, 12)
    m = bound = None
    if spec.m is not None:
        m = args.m if args.m is not None else pf.m
        if m is None and spec.m == "required":
            raise CommandError("this command needs m (flag --m or an 'm =' line)")
    if spec.degree_zero:
        bad = [a.name for a in pf.quiver.arrows if a.degree != 0]
        if bad:
            raise CommandError(
                f"this command needs all arrows in degree 0, got nonzero degrees on {bad}"
            )
    if spec.bound == "find":
        bound = _find_bound(pf, max_n)
    elif spec.bound == "try":
        with contextlib.suppress(ValueError):  # NotAdmissibleError included
            bound = _find_bound(pf, max_n)
    if m is not None:
        out["m"] = m
    out.update(spec.body(_Job(pf, args, max_n, m, bound)))
    return out


def emit_report(results: dict) -> str:
    """Render the report dict as JSON with a stable key order."""
    return json.dumps(results, indent=2) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dgquiver",
        description="exact computations on quivers with relations",
    )
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("file", help="problem file")
    ap.add_argument("--m", type=int, default=None)
    ap.add_argument("--max-len", type=int, default=None, dest="max_len")
    ap.add_argument("--max-n", type=int, default=None, dest="max_n")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--output", default=None)
    args = ap.parse_args(argv)

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        pf = parse(text)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"{args.file}:{d}", file=sys.stderr)
        return 2

    try:
        results = run(args.command, pf, args)
    except (CommandError, NotAdmissibleError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: input too large for this run", file=sys.stderr)
        return 1

    payload = emit_report(results)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
