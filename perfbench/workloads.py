"""Seeded inputs, operations and exact expected answers of the workloads.

Every input is emitted as problem-file text and read back with
`dgquiver.dsl.parse`, so the program only ever sees parsed inputs.  The
seed rescales each arrow a -> s_a * a and each relation rho -> t_rho * rho
by nonzero integers.  Both are automorphisms of the input, so every
expected answer below is the same for every seed; only the sizes of the
rational coefficients that the elimination meets change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

M = 3
# Small factors keep coefficient growth, and so op time, close across seeds.
SCALES = (1, -1, 2, -2, 3, -3)


@dataclass
class Spec:
    """A quiver with relations before rescaling.

    `relations` holds (label, source, target, [(coefficient, arrow names)]).
    """

    vertices: list[str]
    arrows: list[tuple[str, str, str]]
    relations: list[tuple[str, str, str, list[tuple[Fraction, tuple[str, ...]]]]]


def spec_from_problem(pf) -> Spec:
    """Read a parsed problem file back into a Spec (degree-0 arrows only)."""
    return Spec(
        vertices=list(pf.quiver.vertices),
        arrows=[(a.name, a.source, a.target) for a in pf.quiver.arrows],
        relations=[
            (
                r.label, r.source, r.target,
                [(c, p.arrows) for p, c in r.body.terms.items()],
            )
            for r in pf.relations
        ],
    )


def grid_spec(n: int) -> Spec:
    """The n x n grid: arrows h (right) and v (down), one commuting square
    relation per cell, ((n-1)^2 relations, 2n(n-1) arrows)."""
    vertices = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    arrows = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                arrows.append((f"h{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}"))
            if i + 1 < n:
                arrows.append((f"d{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}"))
    relations = []
    for i in range(n - 1):
        for j in range(n - 1):
            relations.append((
                f"s{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j + 1}",
                [
                    (Fraction(1), (f"h{i}_{j}", f"d{i}_{j + 1}")),
                    (Fraction(-1), (f"d{i}_{j}", f"h{i + 1}_{j}")),
                ],
            ))
    return Spec(vertices, arrows, relations)


def commutative_spec(k: int, redundant: bool = False) -> Spec:
    """One vertex with loops x0..x{k-1}; relations x_i x_j - x_j x_i (i < j)
    and x_i^2.  With `redundant`, the consequence x0 x1 x2 - x1 x0 x2 is
    listed first under the label `red`."""
    loops = [f"x{i}" for i in range(k)]
    relations = []
    if redundant:
        relations.append((
            "red", "v", "v",
            [(Fraction(1), ("x0", "x1", "x2")), (Fraction(-1), ("x1", "x0", "x2"))],
        ))
    for i in range(k):
        for j in range(i + 1, k):
            relations.append((
                f"c{i}{j}", "v", "v",
                [(Fraction(1), (loops[i], loops[j])), (Fraction(-1), (loops[j], loops[i]))],
            ))
    for i in range(k):
        relations.append((f"q{i}", "v", "v", [(Fraction(1), (loops[i], loops[i]))]))
    return Spec(["v"], [(x, "v", "v") for x in loops], relations)


def rescaled_text(spec: Spec, rng: random.Random) -> str:
    """Problem-file text of `spec` with every arrow and relation rescaled by
    a nonzero integer drawn from `rng`."""
    arrow_scale = {name: rng.choice(SCALES) for name, _, _ in spec.arrows}
    lines = ["vertex " + " ".join(spec.vertices)]
    lines += [f"arrow {name} : {s} -> {t}" for name, s, t in spec.arrows]
    for label, s, t, terms in spec.relations:
        rel_scale = rng.choice(SCALES)
        parts = []
        for coeff, arrows in terms:
            c = coeff * rel_scale
            for a in arrows:
                c *= arrow_scale[a]
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)} {'*'.join(arrows)}")
        body = " ".join(parts)
        body = body[2:] if body.startswith("+ ") else body
        lines.append(f"relation {label} : {s} -> {t} = {body}")
    return "\n".join(lines) + "\n"


def _parse(lib, spec: Spec, rng: random.Random):
    return lib.dsl.parse(rescaled_text(spec, rng))


def _fixture(lib, root: Path, name: str) -> Spec:
    text = (root / "fixtures" / f"{name}.quiver").read_text()
    return spec_from_problem(lib.dsl.parse(text))


# ---------- operations ----------


def homology_op(lib, pf, max_len: int):
    """ginzburg_from_relations then homology_dims: (dims, stabilized)."""
    dga = lib.dg.ginzburg_from_relations(pf.quiver, pf.relations, M)
    rep = lib.homology.homology_dims(dga, M, max_len)
    return dict(rep.dims), rep.stabilized


def ideal_answers(lib, pf, split: bool):
    """(bound, algebra dim, kept labels, ext2[, split-extension result])."""
    q, rels = pf.quiver, pf.relations
    n = lib.ideals.find_admissibility_bound(q, rels)
    out = (
        n,
        lib.ideals.algebra_dim(q, rels, n),
        tuple(r.label for r in lib.ideals.system_of_relations(q, rels, n)),
        lib.ideals.ext2_dim(q, rels, n),
    )
    if split:
        out += (lib.ideals.split_extension_check(q, rels, n),)
    return out


def ideal_op(lib, ideals):
    return {name: ideal_answers(lib, pf, split) for name, pf, split in ideals}


# ---------- workloads ----------


@dataclass
class Workload:
    name: str
    make_inputs: Callable  # (lib, root, rng) -> inputs
    op: Callable           # (lib, inputs) -> answer
    expected: object
    max_len: int | None = None  # homology cutoff L, for the traced rank pass


def _hom_workload(name, spec_of, max_len, expected):
    return Workload(
        name=name,
        make_inputs=lambda lib, root, rng: _parse(lib, spec_of(lib, root), rng),
        op=lambda lib, pf: homology_op(lib, pf, max_len),
        expected=expected,
        max_len=max_len,
    )


def _ideal_inputs(lib, root, rng, with_large: bool = True):
    items = [("quaternion", _fixture(lib, root, "quaternion"), False)]
    if with_large:
        items += [
            ("comm4", commutative_spec(4), False),
            ("comm3+red", commutative_spec(3, redundant=True), False),
            ("grid4", grid_spec(4), False),
        ]
    items.append(("square_d4", _fixture(lib, root, "square_d4"), True))
    return [(name, _parse(lib, spec, rng), split) for name, spec, split in items]


_C = tuple(f"c{i}{j}" for i in range(4) for j in range(i + 1, 4))
_GRID_LABELS = tuple(f"s{i}_{j}" for i in range(3) for j in range(3))

IDEAL_EXPECTED = {
    "quaternion": (5, 8, ("r1", "r2", "r3"), 2),
    "comm4": (5, 16, _C + ("q0", "q1", "q2", "q3"), 10),
    "comm3+red": (4, 8, ("c01", "c02", "c12", "q0", "q1", "q2"), 6),
    "grid4": (7, 100, _GRID_LABELS, 9),
    "square_d4": (3, 9, ("r",), 1, None),
}

# Why each workload was chosen is recorded in BENCHMARK.json.  In short:
# hom-quaternion is one vertex with relations that are not length-homogeneous,
# so the L+1 build dominates; hom-grid has 256 endpoint blocks and
# homogeneous relations, so elimination dominates; ideal-pipeline uses
# RowSpace membership and normal forms with no dg or homology work.
WORKLOADS = {
    w.name: w
    for w in [
        _hom_workload(
            "hom-quaternion",
            lambda lib, root: _fixture(lib, root, "quaternion"),
            5,
            ({0: 8, 1: 212, 2: 1942}, False),
        ),
        _hom_workload(
            "hom-grid",
            lambda lib, root: grid_spec(4),
            6,
            ({0: 100, 1: 36, 2: 645}, False),
        ),
        Workload("ideal-pipeline", _ideal_inputs, ideal_op, IDEAL_EXPECTED),
    ]
}

# Tiny versions for the harness self-check: quaternion at L=3, and the
# quaternion and square_d4 ideals.
TINY = {
    w.name: w
    for w in [
        _hom_workload(
            "hom-quaternion",
            lambda lib, root: _fixture(lib, root, "quaternion"),
            3,
            ({0: 7, 1: 66, 2: 229}, False),
        ),
        Workload(
            "ideal-pipeline",
            lambda lib, root, rng: _ideal_inputs(lib, root, rng, with_large=False),
            ideal_op,
            {k: IDEAL_EXPECTED[k] for k in ("quaternion", "square_d4")},
        ),
    ]
}
