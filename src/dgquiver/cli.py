"""Batch command line: parse a problem file, run a computation, emit JSON.

Exit codes: 0 on success, 1 on a computation error (bad m, no admissibility
bound, failed precondition), 2 on a parse error.  Diagnostics go to stderr,
the JSON report to stdout or to --output.  Reports are byte-identical across
runs: every randomized check takes its seed from --seed (default 0) and all
enumeration orders are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import format_element
from .dg import (
    check_d_squared,
    ginzburg_from_relations,
    relation_dg_algebra,
)
from .dsl import ParseError, ProblemFile, format_expression, parse
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

COMMANDS = (
    "validate",
    "build-b",
    "build-gamma",
    "check-d2",
    "homology",
    "h0",
    "vosnex",
    "ideal-dim",
    "admissibility",
    "system-of-relations",
    "ext2",
    "split-ext-2",
    "report",
)


class CommandError(Exception):
    pass


def _input_block(pf: ProblemFile) -> dict:
    return {
        "vertices": list(pf.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target, "degree": a.degree}
            for a in pf.quiver.arrows
        ],
        "relations": [
            {
                "label": r.label,
                "source": r.source,
                "target": r.target,
                "body": format_expression(r.body),
            }
            for r in pf.relations
        ],
        "m": pf.m,
        "options": {k: pf.options[k] for k in sorted(pf.options)},
    }


def _dg_block(dg) -> dict:
    return {
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target, "degree": a.degree}
            for a in dg.quiver.arrows
        ],
        "differentials": {
            a.name: format_element(dg.d(a.name)) for a in dg.quiver.arrows
        },
    }


def _homology_block(rep) -> dict:
    return {
        "L": rep.max_len,
        "stabilized": rep.stabilized,
        "dims": {str(i): rep.dims[i] for i in sorted(rep.dims)},
        "vosnex": rep.vosnex,
    }


def _require_m(pf: ProblemFile, args) -> int:
    m = args.m if args.m is not None else pf.m
    if m is None:
        raise CommandError("this command needs m (flag --m or an 'm =' line)")
    return m


def _require_degree_zero(pf: ProblemFile) -> None:
    bad = [a.name for a in pf.quiver.arrows if a.degree != 0]
    if bad:
        raise CommandError(
            f"this command needs all arrows in degree 0, got nonzero degrees on {bad}"
        )


def _opt_int(pf: ProblemFile, key: str, flag_value, fallback: int) -> int:
    if flag_value is not None:
        return flag_value
    v = pf.options.get(key)
    if isinstance(v, int):
        return v
    return fallback


def _resolve_max_len(pf: ProblemFile, args, m: int, bound: int | None) -> int:
    if args.max_len is not None:
        return args.max_len
    v = pf.options.get("max_len")
    if isinstance(v, int):
        return v
    return default_truncation_length(m, pf.relations, bound)


def _find_bound(pf: ProblemFile, max_n: int) -> int:
    bound = find_admissibility_bound(pf.quiver, pf.relations, max_n=max_n)
    if bound is None:
        raise NotAdmissibleError(f"no admissibility bound up to {max_n}")
    return bound


def _try_bound(pf: ProblemFile, max_n: int) -> int | None:
    try:
        return _find_bound(pf, max_n)
    except ValueError:  # NotAdmissibleError included
        return None


def run(command: str, pf: ProblemFile, args) -> dict:
    """Dispatch one command on a parsed problem file; returns the report."""
    out = {"input": _input_block(pf)}
    max_n = _opt_int(pf, "max_n", args.max_n, 12)

    if command == "validate":
        out["checks"] = {"validate": "ok"}
        return out

    if command == "build-b":
        _require_degree_zero(pf)
        out["b"] = _dg_block(relation_dg_algebra(pf.quiver, pf.relations))
        return out

    if command == "build-gamma":
        m = _require_m(pf, args)
        _require_degree_zero(pf)
        out["m"] = m
        out["gamma"] = _dg_block(ginzburg_from_relations(pf.quiver, pf.relations, m))
        return out

    if command == "check-d2":
        # m is optional here: without it only the relation dg-algebra is
        # checked, with it the doubled dg-algebra as well
        m = args.m if args.m is not None else pf.m
        _require_degree_zero(pf)
        max_len = _resolve_max_len(pf, args, m if m is not None else 2, None)
        seed = _opt_int(pf, "seed", args.seed, 0)
        samples = _opt_int(pf, "d2_samples", None, 200)
        targets = [("b", relation_dg_algebra(pf.quiver, pf.relations))]
        if m is not None:
            out["m"] = m
            targets.append(("gamma", ginzburg_from_relations(pf.quiver, pf.relations, m)))
        checks = {}
        for name, dg in targets:
            bad = check_d_squared(dg, max_len=max_len, samples_per_degree=samples, seed=seed)
            checks[f"d_squared_{name}"] = (
                "ok" if bad is None else f"counterexample: {format_element(bad)}"
            )
        out["checks"] = checks
        return out

    if command == "homology":
        m = _require_m(pf, args)
        _require_degree_zero(pf)
        max_len = _resolve_max_len(pf, args, m, _try_bound(pf, max_n))
        dg = ginzburg_from_relations(pf.quiver, pf.relations, m)
        out["m"] = m
        out["homology"] = _homology_block(homology_dims(dg, m, max_len))
        return out

    if command == "h0":
        m = _require_m(pf, args)
        _require_degree_zero(pf)
        dg = ginzburg_from_relations(pf.quiver, pf.relations, m)
        quiver0, rels = h0_presentation(dg)
        out["m"] = m
        out["h0"] = {
            "vertices": list(quiver0.vertices),
            "arrows": [a.name for a in quiver0.arrows],
            "relations": [format_element(r) for r in rels],
        }
        return out

    if command == "vosnex":
        m = _require_m(pf, args)
        _require_degree_zero(pf)
        max_len = _resolve_max_len(pf, args, m, _try_bound(pf, max_n))
        verdict = vosnex_equivalence_check(pf.quiver, pf.relations, m, max_len)
        out["m"] = m
        out["vosnex"] = {
            "acyclic_and_no_relations": verdict.acyclic_and_no_relations,
            "degree_zero_finite": verdict.degree_zero_finite,
            "small_negative_vanishing": verdict.small_negative_vanishing,
            "top_small_negative_zero": verdict.top_small_negative_zero,
            "all_equal": verdict.all_equal(),
        }
        return out

    if command == "ideal-dim":
        _require_degree_zero(pf)
        bound = _find_bound(pf, max_n)
        out["ideal"] = {
            "admissible_N": bound,
            "dim": algebra_dim(pf.quiver, pf.relations, bound),
        }
        return out

    if command == "admissibility":
        _require_degree_zero(pf)
        bound = find_admissibility_bound(pf.quiver, pf.relations, max_n=max_n)
        out["ideal"] = {"admissible_N": bound, "searched_up_to": max_n}
        return out

    if command == "system-of-relations":
        _require_degree_zero(pf)
        bound = _find_bound(pf, max_n)
        system = system_of_relations(pf.quiver, pf.relations, bound)
        out["ideal"] = {
            "admissible_N": bound,
            "system_of_relations": [
                {"label": r.label, "body": format_expression(r.body)} for r in system
            ],
        }
        return out

    if command == "ext2":
        _require_degree_zero(pf)
        bound = _find_bound(pf, max_n)
        out["ideal"] = {
            "admissible_N": bound,
            "ext2": ext2_dim(pf.quiver, pf.relations, bound),
        }
        return out

    if command == "split-ext-2":
        _require_degree_zero(pf)
        bound = _find_bound(pf, max_n)
        verdict = split_extension_check(pf.quiver, pf.relations, bound, search_cap=max_n)
        out["m"] = 2
        out["checks"] = {"split_extension": "ok" if verdict is None else verdict}
        return out

    if command == "report":
        m = _require_m(pf, args)
        _require_degree_zero(pf)
        seed = _opt_int(pf, "seed", args.seed, 0)
        samples = _opt_int(pf, "d2_samples", None, 200)
        bound = _try_bound(pf, max_n)
        max_len = _resolve_max_len(pf, args, m, bound)
        dg = ginzburg_from_relations(pf.quiver, pf.relations, m)
        out["m"] = m
        out["gamma"] = _dg_block(dg)
        out["homology"] = _homology_block(homology_dims(dg, m, max_len))
        ideal: dict = {"admissible_N": bound}
        if bound is not None:
            ideal["dim"] = algebra_dim(pf.quiver, pf.relations, bound)
            ideal["system_of_relations"] = [
                {"label": r.label, "body": format_expression(r.body)}
                for r in system_of_relations(pf.quiver, pf.relations, bound)
            ]
            ideal["ext2"] = ext2_dim(pf.quiver, pf.relations, bound)
        out["ideal"] = ideal
        checks = {}
        bad = check_d_squared(dg, max_len=max_len, samples_per_degree=samples, seed=seed)
        checks["d_squared"] = (
            "ok" if bad is None else f"counterexample: {format_element(bad)}"
        )
        if m == 2 and bound is not None:
            try:
                verdict = split_extension_check(
                    pf.quiver, pf.relations, bound, search_cap=max_n
                )
                checks["split_extension"] = "ok" if verdict is None else verdict
            except NotAdmissibleError as exc:
                checks["split_extension"] = f"inconclusive: {exc}"
        out["checks"] = checks
        return out

    raise CommandError(f"unknown command {command!r}")


def emit_report(results: dict) -> str:
    """Render the report dict as JSON with a stable key order."""
    return json.dumps(results, indent=2) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dgquiver",
        description="exact computations on quivers with relations",
    )
    ap.add_argument("command", choices=COMMANDS)
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
    except OSError as exc:
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

    payload = emit_report(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
