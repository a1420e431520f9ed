import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur.linalg import (
    Matrix,
    add_scaled,
    column_kernel,
    intersect,
    left_kernel,
    rank,
    span,
)
from qschur.scalars import ScalarContext


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(2)


def _contains(basis, v) -> bool:
    return not basis.reduce(v)


def _m(ctx, rows):
    out = Matrix(ctx, len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out.set_entry(i, j, ctx.scalar(v))
    return out


def test_matmul_and_identity(ctx):
    a = _m(ctx, [[1, 2], [3, 4]])
    eye = Matrix.identity(ctx, 2)
    assert a * eye == a
    b = _m(ctx, [[0, 1], [1, 0]])
    assert (a * b) == _m(ctx, [[2, 1], [4, 3]])


def test_kron_indexing(ctx):
    a = _m(ctx, [[0, 1], [0, 0]])
    b = Matrix.identity(ctx, 3)
    k = a.kron(b)
    assert k.nrows == 6
    assert k.entry(0, 3).is_one()  # (0,0) x (0,0) block structure
    assert k.entry(1, 4).is_one()


def test_add_scaled_stores_no_zero(ctx):
    one, two, three = ctx.one, ctx.scalar(2), ctx.scalar(3)
    acc = {0: one, 1: two}
    assert add_scaled(acc, {0: one, 2: one}, -one) is acc
    assert acc == {1: two, 2: -one}
    assert add_scaled(acc, {1: one, 3: ctx.zero}) == {1: three, 2: -one}
    assert add_scaled(acc, {1: one, 2: one}, ctx.zero) == {1: three, 2: -one}


def test_apply_row_col(ctx):
    a = _m(ctx, [[1, 2], [3, 4]])
    assert a.apply_row({0: ctx.one}) == {0: ctx.one, 1: ctx.scalar(2)}
    assert a.apply_col({0: ctx.one}) == {0: ctx.one, 1: ctx.scalar(3)}


def test_subspace_rref_canonical(ctx):
    b1 = span(ctx, 3, [{0: ctx.one, 1: ctx.one}, {1: ctx.one, 2: ctx.one}])
    b2 = span(
        ctx, 3,
        [{0: ctx.one, 1: ctx.scalar(2), 2: ctx.one},
         {0: ctx.scalar(2), 1: ctx.scalar(3), 2: ctx.one}],
    )
    # same subspace reached from different spanning sets
    assert b1 == b2
    assert b1.dim == 2


def test_reduce_and_contains(ctx):
    b = span(ctx, 3, [{0: ctx.one, 2: ctx.one}])
    assert _contains(b, {0: ctx.scalar(5), 2: ctx.scalar(5)})
    assert not _contains(b, {0: ctx.one})
    resid = b.reduce({0: ctx.one, 1: ctx.one, 2: ctx.one})
    assert 1 in resid and 0 not in resid


def test_coords(ctx):
    rows = [{0: ctx.one, 2: ctx.scalar(3)}, {1: ctx.one}]
    b = span(ctx, 3, rows)
    v = {0: ctx.scalar(2), 1: ctx.scalar(-1), 2: ctx.scalar(6)}
    coords = b.coords(v)
    assert coords == {0: ctx.scalar(2), 1: ctx.scalar(-1)}
    assert b.coords({2: ctx.one}) is None


def test_kernels(ctx):
    m = _m(ctx, [[1, 2, 3], [2, 4, 6]])
    ker = column_kernel(m)
    assert len(ker) == 2
    for v in ker:
        assert not m.apply_col(v)
    lk = left_kernel(m)
    assert len(lk) == 1
    assert rank(m) == 1


def test_intersection(ctx):
    a = span(ctx, 3, [{0: ctx.one}, {1: ctx.one}])
    b = span(ctx, 3, [{1: ctx.one}, {2: ctx.one}])
    c = intersect(a, b)
    assert c.dim == 1
    assert _contains(c, {1: ctx.one})


def test_triplet_round_trip(ctx):
    m = _m(ctx, [[1, 0], [0, -2]])
    trip = m.to_triplets()
    back = Matrix.from_triplets(ctx, 2, 2, trip)
    assert back == m


_CTX = ScalarContext(2)

vec_strategy = st.dictionaries(
    st.integers(0, 5),
    st.integers(-3, 3).filter(bool).map(_CTX.scalar),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(vec_strategy, min_size=1, max_size=6))
def test_rref_invariants(vectors):
    b = span(_CTX, 6, vectors)
    # pivot rows are monic at their pivot and vanish at every other pivot
    for j, row in b.pivots.items():
        assert row[j].is_one()
        assert min(row) == j
        for other in b.pivots:
            if other != j:
                assert other not in row
    # every spanning vector reduces to zero, and reduction is idempotent
    for v in vectors:
        assert not b.reduce(v)
    probe = {0: _CTX.one, 3: _CTX.scalar(2), 5: _CTX.scalar(-1)}
    r1 = b.reduce(probe)
    assert b.reduce(r1) == r1
    # adding a contained vector never grows the basis
    dim = b.dim
    for v in vectors:
        assert not b.add(v)
    assert b.dim == dim


# -- quotient coordinates: coset / descend ------------------------------------

_AMB = 5
_BACKENDS = [ScalarContext(2), ScalarContext(2, t0=Fraction(5, 3))]


@st.composite
def _quotient_case(draw):
    """A backend, a sparse operator, subspace generators and two probe vectors."""
    ctx = draw(st.sampled_from(_BACKENDS))
    scalar = st.builds(
        lambda a, k: ctx.scalar(a) * ctx.t_power(k),
        st.integers(-3, 3).filter(bool), st.integers(-1, 1),
    )
    vec = st.dictionaries(st.integers(0, _AMB - 1), scalar, max_size=3)
    op = Matrix(ctx, _AMB, _AMB)
    for (i, j), c in draw(st.dictionaries(
            st.tuples(st.integers(0, _AMB - 1), st.integers(0, _AMB - 1)), scalar,
            max_size=6)).items():
        op.set_entry(i, j, c)
    gens = draw(st.lists(vec, min_size=1, max_size=3))
    return ctx, op, gens, draw(vec), draw(vec), draw(scalar)


def _images(op):
    """op by its images, c -> op e_c, as SubspaceBasis.descend reads it."""
    return op.transpose().rows.__getitem__


class _Recorder:
    """The images of op, recording each column asked for."""

    def __init__(self, op):
        self.image, self.asked = _images(op), []

    def __call__(self, c):
        self.asked.append(c)
        return self.image(c)


def _column_spin(ctx, op, vectors):
    """The smallest op-stable subspace (column convention) containing vectors."""
    out = span(ctx, _AMB, vectors)
    grew = True
    while grew:
        grew = any([out.add(op.apply_col(row)) for row in out.rows()])
    return out


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_coset_kills_subspace_and_is_linear(case):
    ctx, _, gens, v, w, c = case
    U = span(ctx, _AMB, gens)
    for row in U.rows() + gens:
        assert U.coset(row) == {}
    assert U.coset(add_scaled(dict(w), v, c)) == add_scaled(U.coset(w), U.coset(v), c)
    assert all(0 <= k < _AMB - U.dim for k in U.coset(v))


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_coords_rebuild_vectors_of_the_span(case):
    ctx, _, gens, v, w, c = case
    U = span(ctx, _AMB, gens)
    rows = U.rows()
    inside = add_scaled(dict(w) if _contains(U, w) else {}, gens[0], c)
    coords = U.coords(inside)
    assert all(0 <= k < U.dim for k in coords)
    rebuilt = {}
    for k, x in coords.items():
        add_scaled(rebuilt, rows[k], x)
    assert rebuilt == inside
    # off the span: a free unit vector, and v whenever it is not in U
    assert U.coords({U.free_columns()[0]: ctx.one}) is None
    assert (U.coords(v) is None) == (not _contains(U, v))


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_descend_commutes_with_coset(case):
    ctx, op, gens, v, _, _ = case
    U = _column_spin(ctx, op, gens)
    down = U.descend(_images(op), check=True)
    assert down == U.descend(_images(op))
    assert (down.nrows, down.ncols) == (_AMB - U.dim, _AMB - U.dim)
    assert U.coset(op.apply_col(v)) == down.apply_col(U.coset(v))


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_descend_into_target_commutes_with_coset(case):
    ctx, op, gens, v, w, _ = case
    U = span(ctx, _AMB, gens)
    target = span(ctx, _AMB, [op.apply_col(row) for row in U.rows()] + [w])
    down = U.descend(_images(op), target, check=True)
    assert (down.nrows, down.ncols) == (_AMB - target.dim, _AMB - U.dim)
    assert target.coset(op.apply_col(v)) == down.apply_col(U.coset(v))


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_apply_col_matches_apply_row_of_the_transpose(case):
    _, op, gens, v, _, _ = case
    for u in gens + [v]:
        assert op.apply_col(u) == op.transpose().apply_row(u)


def _leaves_target(U, op, target):
    """The row-by-row reference rule: some op u of a basis row u is not in target."""
    return any(target.reduce(op.apply_col(u)) for u in U.rows())


@settings(max_examples=80, deadline=None)
@given(_quotient_case(), st.booleans())
def test_descend_check_raises_exactly_when_a_row_leaves(case, stable):
    ctx, op, gens, v, w, _ = case
    U = _column_spin(ctx, op, gens) if stable else span(ctx, _AMB, gens)
    images = [op.apply_col(row) for row in U.rows()]
    for target in (None, span(ctx, _AMB, images[1:] + [w]), span(ctx, _AMB, images)):
        if _leaves_target(U, op, U if target is None else target):
            with pytest.raises(ValueError, match="does not carry the subspace"):
                U.descend(_images(op), target, check=True)
        else:
            assert (U.descend(_images(op), target, check=True)
                    == U.descend(_images(op), target))


def test_descend_check_rejects_a_map_off_the_subspace(ctx):
    U = span(ctx, 3, [{0: ctx.one, 1: ctx.one}])
    swap = _m(ctx, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])  # e0 + e1 -> e0 + e2
    U.descend(_images(swap))  # unchecked: the caller's promise
    with pytest.raises(ValueError):
        U.descend(_images(swap), check=True)


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_unchecked_descend_reads_each_free_column_once(case):
    ctx, op, gens, _, _, _ = case
    U = _column_spin(ctx, op, gens)
    images = _Recorder(op)
    assert U.descend(images) == U.descend(_images(op), check=True)
    assert sorted(images.asked) == U.free_columns()


@settings(max_examples=60, deadline=None)
@given(_quotient_case())
def test_checked_descend_reads_every_column_once(case):
    ctx, op, gens, _, _, _ = case
    U = _column_spin(ctx, op, gens)
    images = _Recorder(op)
    U.descend(images, check=True)
    assert sorted(images.asked) == list(range(_AMB))


def test_checked_descend_reads_every_column_of_a_map_off_the_subspace(ctx):
    U = span(ctx, 3, [{0: ctx.one, 1: ctx.one}])
    images = _Recorder(_m(ctx, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    U.descend(images)
    assert sorted(images.asked) == [1, 2]  # pivot 0 is never built
    images.asked.clear()
    with pytest.raises(ValueError, match="does not carry the subspace"):
        U.descend(images, check=True)
    assert sorted(images.asked) == [0, 1, 2]


@pytest.mark.parametrize("unit", [1, -1])
@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_scale_by_unit_matches_entrywise(unit, t0):
    c = ScalarContext(2, t0=t0)
    t = c.t_power(1)
    m = Matrix(c, 2, 3)
    m.set_entry(0, 0, t)
    m.set_entry(0, 2, c.scalar(Fraction(-2, 7)))
    m.set_entry(1, 1, (t + 1).inverse())
    u = c.scalar(unit)
    got = m.scale(u)
    want = Matrix(c, 2, 3, [{j: u * v for j, v in r.items()} for r in m.rows])
    assert got == want
    # the result is a fresh matrix: changing it leaves m alone
    got.set_entry(1, 0, c.one)
    assert m.entry(1, 0).is_zero() and m.nnz() == 3


def _rows_by_add_scaled(m, v):
    """v . m accumulated one row of m at a time: the reference for apply_row."""
    out = {}
    for i, c in v.items():
        add_scaled(out, m.rows[i], c)
    return out


def _sample_matrix(c):
    # rows with several entries, one entry (on and off the diagonal) and none
    t = c.t_power(1)
    m = Matrix(c, 4, 3)
    for (i, j), x in {(0, 0): t, (0, 2): c.scalar(Fraction(1, 2)), (0, 1): -c.one,
                      (1, 1): (t + 1).inverse(), (2, 0): c.scalar(-4)}.items():
        m.set_entry(i, j, x)
    return m


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_apply_row_matches_row_by_row_reference(t0):
    c = ScalarContext(2, t0=t0)
    m = _sample_matrix(c)
    coeffs = [c.one, -c.one, c.scalar(3), c.scalar(Fraction(-2, 7)), c.t_power(2)]
    vectors = [{}] + [{k: x} for k in range(4) for x in coeffs]
    vectors += [{0: x, 1: y, 3: x} for x in coeffs for y in coeffs]
    vectors += [{0: c.scalar(4), 2: c.t_power(1)}]  # 4t - 4t cancels at column 0
    for v in vectors:
        assert m.apply_row(v) == _rows_by_add_scaled(m, v)
    assert 0 not in m.apply_row(vectors[-1])
    left = Matrix(c, len(vectors), 4, [dict(v) for v in vectors])
    assert (left * m).rows == [_rows_by_add_scaled(m, v) for v in vectors]
    assert not any(x.is_zero() for r in (left * m).rows for x in r.values())
    # a unit coefficient returns a copy of the row, not the row itself
    got = m.apply_row({0: c.one})
    got[1] = c.scalar(9)
    assert m.entry(0, 1) == -c.one


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_kron_with_identity_factors_is_entrywise(t0):
    c = ScalarContext(2, t0=t0)
    m = _sample_matrix(c)
    eye = Matrix.identity(c, 2)
    for a, b in ((m, eye), (eye, m), (eye, eye), (m, m.transpose())):
        want = Matrix(c, a.nrows * b.nrows, a.ncols * b.ncols)
        for i, j, i2, j2 in itertools.product(range(a.nrows), range(a.ncols),
                                              range(b.nrows), range(b.ncols)):
            want.set_entry(i * b.nrows + i2, j * b.ncols + j2, a.entry(i, j) * b.entry(i2, j2))
        got = a.kron(b)
        assert got == want
        got.set_entry(0, 0, c.scalar(7))  # the factors are left alone
        assert a.entry(0, 0) != c.scalar(7) and b.entry(0, 0) != c.scalar(7)


def test_diagonal_entries(ctx):
    two = ctx.scalar(2)
    assert Matrix.diagonal(ctx, [two, ctx.zero, -two]).diagonal_entries() == [two, ctx.zero, -two]
    assert Matrix.zero(ctx, 2, 2).diagonal_entries() == [ctx.zero, ctx.zero]
    assert _m(ctx, [[1, 0], [1, 0]]).diagonal_entries() is None  # one entry, off the diagonal
    assert _m(ctx, [[1, 0], [0, 0], [0, 1]]).diagonal_entries() is None
    assert _m(ctx, [[1, 0], [0, 1]]).diagonal_entries() == [ctx.one, ctx.one]
    assert _m(ctx, [[0, 0], [3, 4]]).diagonal_entries() is None  # two entries in a row
