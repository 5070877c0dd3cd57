import math
import random
from copy import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    GradedQuiver,
    Relation,
    RowSpace,
    SparseMatrix,
    build_truncated,
    rank,
    relation_dg_algebra,
)
from dgquiver.linalg import _integral, as_rational

from conftest import assert_same_span, element


def _matrix(rows: int, cols: int, entries=()) -> SparseMatrix:
    """The rows x cols matrix of {(i, j): value}, made as `build_truncated`
    makes one: its nonzero entries, by row, nonempty rows only."""
    by_row = {}
    for (i, j), v in dict(entries).items():
        if v:
            by_row.setdefault(i, {})[j] = v
    return SparseMatrix._of_rows(rows, cols, by_row)


def test_refusals_of_inexact_and_misplaced_entries():
    with pytest.raises(TypeError, match="not an exact rational: 1.5"):
        as_rational(1.5)
    # `build_truncated` is the one maker: there is no public constructor
    with pytest.raises(TypeError):
        SparseMatrix(2, 2, {(0, 0): 1})


def test_rank_empty_matrix():
    assert rank(_matrix(0, 0)) == 0


def test_rank_identity():
    assert rank(_matrix(3, 3, {(i, i): 1 for i in range(3)})) == 3


def test_rank_proportional_rows():
    m = _matrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank(m) == 1


def test_is_in_span_zero_vector():
    space = RowSpace()
    space.add({0: 1, 1: 2})
    space.add({1: 1})
    assert space.contains({})


def test_is_in_span_orthogonal_coordinate():
    space = RowSpace()
    space.add({1: 1})
    assert not space.contains({0: 1})


def test_is_in_span_scalar_multiple():
    space = RowSpace()
    space.add({0: 1, 1: 2})
    assert space.contains({0: 3, 1: 6})


def test_quotient_dim_examples():
    def quotient_dim(m):
        return m.cols - rank(m)

    assert quotient_dim(_matrix(0, 5)) == 5
    assert quotient_dim(_matrix(3, 3, {(i, i): 1 for i in range(3)})) == 0
    assert quotient_dim(_matrix(1, 2, {(0, 0): 1, (0, 1): 1})) == 1


small_fraction = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=997
)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(
        st.lists(
            st.lists(small_fraction, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return _matrix(
        rows, cols, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)}
    )


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_equals_rank_of_transpose(m):
    transposed = {(j, i): v for (i, j), v in m.entries.items()}
    assert rank(m) == rank(_matrix(m.cols, m.rows, transposed))


@given(small_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_scaling_and_permutation(m, rnd):
    r = rank(m)
    perm = list(range(m.rows))
    rnd.shuffle(perm)
    scale = [Fraction(rnd.randint(1, 7), rnd.randint(1, 7)) for _ in range(m.rows)]
    moved = {(perm[i], j): v * scale[i] for (i, j), v in m.entries.items()}
    assert rank(_matrix(m.rows, m.cols, moved)) == r


@st.composite
def sparse_rows_and_vector(draw):
    """Rows of a random sparse rational matrix, sometimes scaled by 2^256,
    plus one probe vector of the same width."""
    cols = draw(st.integers(min_value=1, max_value=7))
    entry = st.just(Fraction(0)) | small_fraction
    scale = draw(st.sampled_from([Fraction(1), Fraction(2) ** 256]))
    rows = draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=7
    ))
    vector = draw(st.lists(entry, min_size=cols, max_size=cols))
    return [[x * scale for x in r] for r in rows], vector


def _sparse(dense) -> dict:
    return {j: x for j, x in enumerate(dense) if x}


def _rowspace(rows) -> RowSpace:
    space = RowSpace()
    for r in rows:
        space.add(_sparse(r))
    return space


@given(sparse_rows_and_vector(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_rowspace_matches_sympy_rref(data, rnd):
    rows, v = data
    rref, pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
    ).rref()
    # v - sum over pivots p of v[p] * (the rref row leading in column p):
    # the one vector of v + span with no entry on a pivot
    expect = [sympy.Rational(x.numerator, x.denominator) for x in v]
    for k, p in enumerate(pivots):
        coef = expect[p]
        expect = [e - coef * rref[k, j] for j, e in enumerate(expect)]
    expect = [Fraction(int(e.p), int(e.q)) for e in expect]
    assert not set(_sparse(expect)) & set(pivots)

    # the same span inserted in shuffled order, with combinations mixed in
    shuffled = list(rows)
    for _ in range(rnd.randint(0, 3)):
        weights = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in rows]
        shuffled.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(len(v))])
    rnd.shuffle(shuffled)

    for space in (_rowspace(rows), _rowspace(shuffled)):
        assert space.rank == len(pivots)
        assert space.pivot_columns() == list(pivots)
        assert space.contains(_sparse(x - e for x, e in zip(v, expect)))
        assert space.contains(_sparse(v)) == (not _sparse(expect))


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=12, deadline=None)
def test_huge_entry_hilbert_block_has_full_rank(n):
    # Hilbert-style matrices are notoriously ill conditioned in floating
    # point; scaled by 2^256 the entries are astronomically large integers
    # divided by small ones, and the exact rank must still be n.
    scale = Fraction(2) ** 256
    m = _matrix(
        n, n,
        {(i, j): scale / (i + j + 1) for i in range(n) for j in range(n)},
    )
    assert rank(m) == n


def test_huge_entry_singular_matrix_detected():
    scale = Fraction(2) ** 256
    rng = random.Random(7)
    rows = [[scale * rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
    # fourth row = combination of the first three
    combo = [sum(rows[k][j] * (k + 1) for k in range(3)) for j in range(4)]
    entries = {(i, j): v for i, row in enumerate(rows + [combo]) for j, v in enumerate(row)}
    top = {(i, j): v for (i, j), v in entries.items() if i < 3}
    assert rank(_matrix(4, 4, entries)) == rank(_matrix(3, 4, top))


def test_huge_entry_dense_singular_matrix_matches_sympy_rank():
    # coefficient growth: fraction-free elimination of a dense 25 x 25
    # integer matrix with entries up to 2^64 whose last row is a combination
    # of the others.  sympy.Matrix.rank itself runs for minutes here, so the
    # reference is its exact domain-matrix rank.
    rng = random.Random(11)
    n = 25
    rows = [[rng.randint(-2**64, 2**64) for _ in range(n)] for _ in range(n - 1)]
    weights = [rng.randint(-9, 9) for _ in rows]
    rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)])
    m = _matrix(n, n, {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})
    assert rank(m) == sympy.Matrix(rows).to_DM().rank() == n - 1


class _FractionRowSpace:
    """The rational echelon kernel that `RowSpace` replaced, kept as the
    slow oracle: pivot rows scaled to lead 1, elimination in `Fraction`."""

    def __init__(self) -> None:
        self._pivots = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def reduce(self, row) -> dict:
        out = {c: Fraction(v) for c, v in row.items() if v}
        while True:
            hit = None
            for c in out:
                if c in self._pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return out
            coef = out.pop(hit)
            for c, v in self._pivots[hit].items():
                if c == hit:
                    continue
                new = out.get(c, 0) - coef * v
                if new:
                    out[c] = new
                else:
                    out.pop(c, None)

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def add(self, row) -> bool:
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead]
        self._pivots[lead] = {c: v * inv for c, v in res.items()}
        return True


@st.composite
def row_stream(draw):
    """Rows with p/q entries and zeros, some negated, half scaled by 2^256,
    some combinations of earlier rows; integral entries sometimes passed as
    `int`.  Plus probe vectors of the same width."""
    cols = draw(st.integers(min_value=1, max_value=8))
    entry = st.just(Fraction(0)) | small_fraction
    dense = st.lists(entry, min_size=cols, max_size=cols)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(small_fraction, min_size=len(rows), max_size=len(rows)))
            row = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(cols)]
        else:
            row = draw(dense)
        if draw(st.booleans()):
            row = [-x for x in row]
        if draw(st.booleans()):
            row = [x * 2**256 for x in row]
        rows.append(row)
    probes = draw(st.lists(dense, min_size=1, max_size=3))
    as_int = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return rows, probes, as_int


def _typed(dense, as_int: bool) -> dict:
    """All entries of a dense row, zeros included, as a column dict."""
    return {j: int(x) if as_int and x.denominator == 1 else x for j, x in enumerate(dense)}


def _primitive(row) -> dict:
    """The integer multiple of a `Fraction` row that leads with 1 whose
    entries have gcd 1; its lead stays positive."""
    scale = math.lcm(*(x.denominator for x in row.values()))
    ints = {c: int(x * scale) for c, x in row.items()}
    g = math.gcd(*ints.values())
    return {c: x // g for c, x in ints.items()}


@given(row_stream())
@settings(max_examples=120, deadline=None)
def test_rowspace_matches_fraction_oracle_after_every_add(data):
    rows, probes, as_int = data
    space, oracle = RowSpace(), _FractionRowSpace()
    for row, flag in zip(rows, as_int):
        row = _typed(row, flag)
        assert space.add(row) == oracle.add(row)
        assert space.rank == oracle.rank
        assert space.pivot_columns() == oracle.pivot_columns()
        for c, p in space._pivots.items():  # primitive integer, positive lead
            assert min(p) == c and p[c] > 0 and math.gcd(*p.values()) == 1
            assert all(type(x) is int and x for x in p.values())
        # each pivot row is the oracle's, which leads with 1, made primitive
        assert space._pivots == {c: _primitive(p) for c, p in oracle._pivots.items()}
        assert space.contains(row)
        for v in [row] + [_sparse(p) for p in probes]:
            assert space.contains(v) == oracle.contains(v)


def test_sparse_matrix_entry_types():
    m = SparseMatrix._of_rows(2, 3, {0: {0: 3, 1: Fraction(1, 2), 2: Fraction(2, 3)}, 1: {2: -4}})
    assert m.entries == {(0, 0): 3, (0, 1): Fraction(1, 2), (0, 2): Fraction(2, 3), (1, 2): -4}
    assert [type(m.entries[ij]) for ij in [(0, 0), (0, 1), (0, 2), (1, 2)]] == [
        int, Fraction, Fraction, int
    ]
    assert repr(m) == "SparseMatrix(2x3, 4 entries)"

    # a differential with a 1/2 coefficient, as `build_truncated` stores it:
    # nonzero int and Fraction entries in range, repr counting them
    q = GradedQuiver(["v"], [("a", "v", "v", 0), ("b", "v", "v", 0)])
    body = element(q, (1, ("a", "b")), (Fraction(1, 2), ("b", "a")))
    dg = relation_dg_algebra(q, [Relation("r", "v", "v", body)])
    mx = build_truncated(dg, 3, [-1]).matrices[-1]
    entries = mx.entries
    assert {type(v) for v in entries.values()} == {int, Fraction} and all(entries.values())
    assert all(0 <= i < mx.rows and 0 <= j < mx.cols for i, j in entries)
    assert repr(mx) == f"SparseMatrix({mx.rows}x{mx.cols}, {len(entries)} entries)"


# rows as callers pass them: all-int rows, the fast path of `_integral`, and
# rows mixing ints, explicit zeros, Fractions and bools
_entry = st.integers(-3, 3) | st.just(0) | st.booleans() | st.fractions(-3, 3, max_denominator=4)
_row = st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=6) | st.dictionaries(
    st.integers(0, 5), _entry, max_size=6
)


def _snapshot(row) -> list:
    return [(c, type(v), v) for c, v in row.items()]


@given(st.lists(_row, max_size=6), _row)
@settings(max_examples=150, deadline=None)
def test_kernel_leaves_its_input_rows_unchanged(rows, probe):
    before = [_snapshot(r) for r in rows + [probe]]
    space = RowSpace(rows)
    for r in rows + [probe]:
        space.contains(r)
    space.add(probe)
    assert [_snapshot(r) for r in rows + [probe]] == before
    m = _matrix(len(rows), 6, {(i, c): int(v) if type(v) is bool else v
                               for i, r in enumerate(rows) for c, v in r.items()})
    entries = _snapshot(m.entries)
    assert rank(m) == rank(m)
    assert _snapshot(m.entries) == entries


def _old_integral(row):
    """`_integral` before its all-int path scanned at C speed: the reference."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}, 1
    out = {c: as_rational(v).as_integer_ratio() for c, v in row.items()}
    s = math.lcm(*(d for _, d in out.values()))
    return {c: n * (s // d) for c, (n, d) in out.items() if n}, s


@given(_row)
@settings(max_examples=200, deadline=None)
def test_integral_matches_the_reference(row):
    got = _integral(row)
    want, _ = _old_integral(row)
    assert _snapshot(got) == _snapshot(want)
    assert got is not row


@given(row_stream(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_take_on_matches_add_on_the_images(data, rnd):
    # the images of an echelon basis under order-keeping injective column
    # maps with disjoint images span what adding those images spans
    rows, _, as_int = data
    basis = RowSpace(_typed(r, f) for r, f in zip(rows, as_int))
    cols = len(rows[0])
    images = [
        dict(zip(range(cols), sorted(rnd.sample(range(k * 3 * cols, (k + 1) * 3 * cols), cols))))
        for k in range(2)
    ]
    taken = RowSpace()
    for image in images:
        taken.take_on(basis, image)
    added = RowSpace(
        {image[c]: v for c, v in row.items()} for image in images for row in basis._pivots.values()
    )
    assert_same_span(taken, added)
    for c, p in taken._pivots.items():
        assert min(p) == c and p[c] > 0 and math.gcd(*p.values()) == 1


def test_take_on_refuses_a_taken_or_misplaced_lead():
    basis = RowSpace([{0: 1, 1: 2}, {1: 1, 2: 3}])
    space = RowSpace([{5: 1}])
    for image in (
        {0: 5, 1: 6, 2: 7},  # the lead 5 is a pivot already
        {0: 3, 1: 2, 2: 4},  # 2, the image of column 1, precedes the lead 3
        {0: 3, 1: 3, 2: 4},  # two columns of one row meet
        {0: 3, 1: 4},  # column 2 of the row led at 1 has no image
    ):
        with pytest.raises(ValueError):
            space.take_on(basis, image)
        assert space.pivot_columns() == [5]  # nothing was taken on
    with pytest.raises(ValueError):
        RowSpace().take_on(RowSpace([{0: 1, 1: 2}]), {0: 5})
    space.take_on(basis, {0: 6, 1: 7, 2: 9})
    assert space.pivot_columns() == [5, 6, 7]
    with pytest.raises(ValueError):
        space.take_on(basis, {0: 6, 1: 7, 2: 9})


@given(row_stream())
@settings(max_examples=80, deadline=None)
def test_taken_on_and_copied_spans_answer_as_the_span(data):
    # the pivot rows taken on under the identity map, and a copy, span the
    # span again: both answer as the original does, and growing the copy
    # leaves the original as it was
    rows, probes, as_int = data
    space = RowSpace(_typed(r, f) for r, f in zip(rows, as_int))
    pivots = space.pivot_columns()
    rebuilt = RowSpace()
    rebuilt.take_on(space, {c: c for c in range(len(rows[0]))})
    copied = copy(space)
    for other in (rebuilt, copied):
        assert_same_span(other, space)
    for v in [_sparse(r) for r in probes]:
        copied.add(v)
    assert space.pivot_columns() == pivots
