"""Batch command line: parse a problem file, run a computation, emit JSON.

Exit codes: 0 on success, 1 on a computation error (bad m, no admissibility
bound, failed precondition) or an unreadable input or output file, 2 on a
parse error.  Diagnostics go to stderr, the JSON report to stdout or to
--output.  Reports are byte-identical across runs: no check draws samples
and all enumeration orders are deterministic.

One range check runs first, before any work, for every command: --max-len
or `option max_len` must be >= 0 and --max-n or `option max_n` >= 2, read
or not, and a file option must be an integer even under its flag.  --m is
checked there (>= 2) only where the command does not read m; a command that
reads it refuses a bad m as its construction does (vosnex: m > 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .algebra import format_element
from .dg import check_d_squared, ginzburg_from_relations, relation_dg_algebra
from .dsl import ParseError, ProblemFile, parse
from .homology import default_truncation_length, h0_presentation, homology_dims
from .ideals import (
    DEFAULT_MAX_N,
    TruncatedIdealSpan,
    certify,
    find_admissibility_bound,
    split_extension_check,
    vosnex_equivalence_check,
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


@dataclass(frozen=True)
class _Job:
    """One command's input once the preconditions in its table row hold.
    The bound search runs once, on the first read of `ideal` (None when it
    finds no bound), `bound` or `certified()` (which raises its error then),
    and not at all for a command that reads none of them."""

    pf: ProblemFile
    args: argparse.Namespace
    max_n: int
    m: int | None

    @cached_property
    def _search(self) -> TruncatedIdealSpan | ValueError:
        try:
            return certify(self.pf.quiver, self.pf.relations, max_n=self.max_n)
        except ValueError as exc:  # NotAdmissibleError is one
            return exc

    def certified(self) -> TruncatedIdealSpan:
        if self.ideal is None:
            raise self._search
        return self.ideal

    @property
    def ideal(self) -> TruncatedIdealSpan | None:
        return None if isinstance(self._search, ValueError) else self._search

    @property
    def bound(self) -> int | None:
        return None if self.ideal is None else self.ideal.bound - 1

    def max_len(self) -> int:
        if self.args.max_len is None and "max_len" not in self.pf.options:  # the default searches
            return default_truncation_length(self.m, self.pf.relations, self.bound)
        return _opt_int(self.pf, "max_len", self.args.max_len, 0)

    def gamma(self):
        return ginzburg_from_relations(self.pf.quiver, self.pf.relations, self.m)


# ---------- report sections: each shared by its command and `report` ----------


def _homology_block(max_len: int, dg, m: int) -> dict:
    rep = homology_dims(dg, m, max_len)
    return {
        "L": rep.max_len,
        "stabilized": rep.stabilized,
        "dims": {str(i): rep.dims[i] for i in sorted(rep.dims)},
        "vosnex": rep.vosnex,
    }


_IDEAL_ENTRIES = {
    "dim": TruncatedIdealSpan.dim,
    "system_of_relations": lambda ideal: [
        {"label": r.label, "body": format_element(r.body)} for r in ideal.minimal_system()
    ],
    "ext2": TruncatedIdealSpan.ext2,
}


def _d2_verdict(dg) -> str:
    bad = check_d_squared(dg)
    return "ok" if bad is None else f"counterexample: {format_element(bad)}"


def _split_verdict(job: _Job) -> str:
    verdict = split_extension_check(job.pf.quiver, job.pf.relations, job.certified().bound - 1)
    return "ok" if verdict is None else verdict


# ---------- command bodies ----------


def _check_d2(job: _Job) -> dict:
    # without m only the relation dg-algebra is checked, with it the doubled
    # dg-algebra as well
    targets = [("b", relation_dg_algebra(job.pf.quiver, job.pf.relations))]
    if job.m is not None:
        targets.append(("gamma", job.gamma()))
    return {
        "checks": {f"d_squared_{name}": _d2_verdict(dg) for name, dg in targets}
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
    verdict = vosnex_equivalence_check(pf.quiver, pf.relations, job.m, job.max_len(), job.ideal)
    return {"vosnex": {**asdict(verdict), "all_equal": verdict.all_equal()}}


def _ideal_command(key: str) -> Callable[[_Job], dict]:
    entry = _IDEAL_ENTRIES[key]
    return lambda job: {"ideal": {"admissible_N": job.certified().bound - 1, key: entry(job.ideal)}}


def _admissibility(job: _Job) -> dict:
    bound = find_admissibility_bound(job.pf.quiver, job.pf.relations, max_n=job.max_n)
    return {"ideal": {"admissible_N": bound, "searched_up_to": job.max_n}}


def _report(job: _Job) -> dict:
    ideal = job.ideal  # the search before the construction
    max_len = job.max_len()
    dg = job.gamma()
    out = {"gamma": _dg_block(dg), "homology": _homology_block(max_len, dg, job.m)}
    out["ideal"] = {"admissible_N": job.bound}
    if ideal is not None:
        out["ideal"].update((key, entry(ideal)) for key, entry in _IDEAL_ENTRIES.items())
    out["checks"] = checks = {"d_squared": _d2_verdict(dg)}
    if job.m == 2 and ideal is not None:
        checks["split_extension"] = _split_verdict(job)
    return out


class _Command(NamedTuple):
    """`m`: "required", "optional" or None (not read)."""

    m: str | None
    degree_zero: bool
    body: Callable[[_Job], dict]


COMMANDS = {
    "validate": _Command(None, False, lambda job: {"checks": {"validate": "ok"}}),
    "build-b": _Command(
        None, True,
        lambda job: {"b": _dg_block(relation_dg_algebra(job.pf.quiver, job.pf.relations))},
    ),
    "build-gamma": _Command("required", True, lambda job: {"gamma": _dg_block(job.gamma())}),
    "check-d2": _Command("optional", True, _check_d2),
    "homology": _Command(
        "required", True,  # the cutoff, and any search it needs, before the construction
        lambda job: {"homology": _homology_block(job.max_len(), job.gamma(), job.m)},
    ),
    "h0": _Command("required", True, _h0),
    "vosnex": _Command("required", True, _vosnex),
    "ideal-dim": _Command(None, True, _ideal_command("dim")),
    "admissibility": _Command(None, True, _admissibility),
    "system-of-relations": _Command(None, True, _ideal_command("system_of_relations")),
    "ext2": _Command(None, True, _ideal_command("ext2")),
    "split-ext-2": _Command(
        None, True, lambda job: {"m": 2, "checks": {"split_extension": _split_verdict(job)}},
    ),
    "report": _Command("required", True, _report),
}


def run(command: str, pf: ProblemFile, args) -> dict:
    """Dispatch one command on a parsed problem file; returns the report."""
    spec = COMMANDS.get(command)
    if spec is None:
        raise CommandError(f"unknown command {command!r}")
    # the one range check, before any work (see the module docstring)
    if spec.m is None and args.m is not None and args.m < 2:
        raise CommandError("the construction needs m >= 2")
    for flag, least in (("max_len", 0), ("max_n", 2)):
        if _opt_int(pf, flag, getattr(args, flag), least) < least:
            raise CommandError(f"{flag} must be >= {least}")
    out = {"input": _input_block(pf)}
    max_n = _opt_int(pf, "max_n", args.max_n, DEFAULT_MAX_N)
    m = None
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
    if m is not None:
        out["m"] = m
    out.update(spec.body(_Job(pf, args, max_n, m)))
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
    except (CommandError, ValueError, KeyError) as exc:
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
