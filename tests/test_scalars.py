from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur.scalars import ScalarContext, parse_scalar, q_binom, q_int


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(2)


def test_polynomial_identity(ctx):
    t = ctx.t_power(1)
    assert (t + 1) * (t - 1) == t * t - 1


def test_laurent_inverse(ctx):
    t = ctx.t_power(1)
    assert t.inverse() == ctx.t_power(-1)
    assert t * t.inverse() == ctx.one


def test_q_times_q_inverse_any_context():
    for n in (1, 2, 3):
        for t0 in (None, Fraction(5, 3)):
            c = ScalarContext(n, t0=t0)
            assert c.q * c.q_power(-1) == c.one


def test_q_power_embedding():
    c = ScalarContext(2)
    assert c.q_power(1) == c.t_power(6)
    assert c.q_power(Fraction(1, 2)) == c.t_power(3)
    assert c.q_power(Fraction(-2, 3)) == c.t_power(-4)


def test_q_power_unrepresentable():
    c = ScalarContext(2)
    with pytest.raises(ValueError):
        c.q_power(Fraction(1, 7))


def test_specialize(ctx):
    t = ctx.t_power(1)
    s = (t * t - 1) / (t - 1)
    assert s == t + 1
    assert s.specialize(2) == 3
    assert ctx.t_power(-1).specialize(2) == Fraction(1, 2)


def test_specialize_pole(ctx):
    t = ctx.t_power(1)
    with pytest.raises(ZeroDivisionError):
        (ctx.one / (t - 2)).specialize(2)


def test_division_by_zero(ctx):
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero


def test_specialized_backend_rejects_bad_points():
    with pytest.raises(ValueError):
        ScalarContext(2, t0=0)
    with pytest.raises(ValueError):
        ScalarContext(2, t0=1)
    with pytest.raises(ValueError):
        ScalarContext(2, t0=-1)


def test_render_parse_round_trip(ctx):
    t = ctx.t_power(1)
    vals = [
        ctx.zero,
        ctx.one,
        -ctx.q,
        ctx.scalar(Fraction(3, 2)),
        (t ** 3 - 2) / (2 * t ** 2 + t),
        ctx.t_power(-3) * 7,
        (t + 1) / (t - 1),
    ]
    for v in vals:
        assert parse_scalar(ctx, str(v)) == v


def test_render_q(ctx):
    assert ctx.q.render_q() == "q"
    assert ctx.q_power(-2).render_q() == "q^-2"
    assert (ctx.q * 3).render_q() == "3*q"
    assert ctx.q_half.render_q() == "t^3"  # not an integer q power


def test_canonical_form_denominator(ctx):
    t = ctx.t_power(1)
    s = (t ** 3 - 2) / (2 * t ** 2 + t)
    # the denominator is shifted to a genuine polynomial and the Laurent
    # part rides on the numerator
    assert min(s.den) == 0
    assert max(s.den) >= 1


small_frac = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


def scalars_strategy(ctx):
    def build(coeffs):
        s = ctx.zero
        for e, c in coeffs:
            s = s + ctx.scalar(c) * ctx.t_power(e)
        return s

    return st.lists(
        st.tuples(st.integers(-3, 3), small_frac), min_size=0, max_size=3
    ).map(build)


_CTX = ScalarContext(2)


@settings(max_examples=60, deadline=None)
@given(scalars_strategy(_CTX), scalars_strategy(_CTX), scalars_strategy(_CTX))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == _CTX.one


@settings(max_examples=40, deadline=None)
@given(scalars_strategy(_CTX), scalars_strategy(_CTX))
def test_specialize_is_homomorphism(a, b):
    t0 = Fraction(7, 5)
    assert (a * b).specialize(t0) == a.specialize(t0) * b.specialize(t0)
    assert (a + b).specialize(t0) == a.specialize(t0) + b.specialize(t0)


def test_q_integers(ctx):
    assert q_int(ctx, 1) == ctx.one
    assert q_int(ctx, 2) == ctx.q + ctx.q_power(-1)
    assert q_binom(ctx, 2, 1) == q_int(ctx, 2)
    assert q_binom(ctx, 3, 0) == ctx.one
    assert q_binom(ctx, 3, 3) == ctx.one
    # Pascal-type identity [m r] = q^r [m-1 r] + q^{r-m} [m-1 r-1]
    m, r = 4, 2
    lhs = q_binom(ctx, m, r)
    rhs = ctx.q_power(r) * q_binom(ctx, m - 1, r) + ctx.q_power(r - m) * q_binom(ctx, m - 1, r - 1)
    assert lhs == rhs


def _direct_q_binom(ctx, m, r):
    """[m r]_q from q-powers alone, with no memo."""
    def qi(k):
        return (ctx.q_power(k) - ctx.q_power(-k)) / (ctx.q - ctx.q_power(-1))

    out = ctx.one
    for i in range(r):
        out = out * qi(m - i) / qi(i + 1)
    return out


@pytest.mark.parametrize("symbolic_first", [True, False])
def test_cached_q_numbers_stay_in_their_context(symbolic_first):
    # each context memoizes its own q-numbers; a value cached in one context
    # must never be served by another, whichever is asked first
    t0 = Fraction(5, 3)
    sym, spec = ScalarContext(2), ScalarContext(2, t0=t0)
    pairs = [(m, r) for m in range(5) for r in range(m + 1)]
    got = {}
    for c in ((sym, spec) if symbolic_first else (spec, sym)):
        got[c] = ([q_int(c, m) for m in range(1, 5)], [q_binom(c, m, r) for m, r in pairs])
    assert got[sym][0] == [_direct_q_binom(sym, m, 1) for m in range(1, 5)]
    assert got[sym][1] == [_direct_q_binom(sym, m, r) for m, r in pairs]
    for s, v in zip(got[sym][0] + got[sym][1], got[spec][0] + got[spec][1]):
        assert v.ctx is spec and s.ctx is sym
        assert v == spec.scalar(s.specialize(t0))
    # a second query returns the memoized value
    assert q_binom(spec, 4, 2) is q_binom(spec, 4, 2)
    assert q_int(sym, 3) is q_int(sym, 3)
