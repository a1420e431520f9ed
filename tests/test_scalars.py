from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur.scalars import _DEN_ONE, Scalar, ScalarContext, parse_scalar, q_binom, q_int


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


@pytest.mark.parametrize("t0", [None, Fraction(5, 3), Fraction(-5, 3), Fraction(2, 5), Fraction(4)],
                         ids=["symbolic", "5/3", "-5/3", "2/5", "4"])
def test_q_exponent_reads_exactly_the_powers_of_q(t0):
    c = ScalarContext(2, t0=t0)
    assert [c.q_power(m).q_exponent() for m in range(-40, 41)] == list(range(-40, 41))
    for x in (c.q_half, c.scalar(2) * c.q, c.scalar(2), c.scalar(Fraction(1, 3)), -c.one):
        assert x.q_exponent() is None


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


# -- the reduction kernel against a plain reference ---------------------------
#
# The reference cross-multiplies and reduces with an uncompressed dense gcd in
# t.  The canonical form is unique, so every field operation must return
# exactly the reference's numerator and denominator dicts, and a constant
# denominator must be the shared _DEN_ONE.


def _ref_rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= f * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _ref_div(a: list, b: list) -> list:
    a, out = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = out[len(a) - len(b)] = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[len(a) - len(b) + i] -= f * c
        a.pop()
    assert not any(a)
    return out


def _ref_canon(num: dict, den: dict):
    # Fractions throughout, so that c / lead below stays exact on int input
    num = {e: Fraction(c) for e, c in num.items() if c}
    den = {e: Fraction(c) for e, c in den.items() if c}
    if not num:
        return {}, {0: Fraction(1)}
    nmin, dmin = min(num), min(den)
    N = [num.get(e + nmin, Fraction(0)) for e in range(max(num) - nmin + 1)]
    D = [den.get(e + dmin, Fraction(0)) for e in range(max(den) - dmin + 1)]
    g, r = N, D
    while r:
        # monic remainders keep the Fraction sizes down
        g, r = r, _ref_rem(g, r)
        r = [c / r[-1] for c in r] if r else r
    if len(g) > 1:
        N, D = _ref_div(N, g), _ref_div(D, g)
    lead = D[-1]
    return ({e + nmin - dmin: c / lead for e, c in enumerate(N) if c},
            {e: c / lead for e, c in enumerate(D) if c})


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def _ref_add_dicts(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _ref_add(x, y):
    num = _ref_add_dicts(_ref_mul(x.num, y.den), _ref_mul(y.num, x.den))
    return _ref_canon(num, _ref_mul(x.den, y.den))


def _ref_pow(x, k: int):
    num, den = (x.num, x.den) if k > 0 else (x.den, x.num)
    pn, pd = {0: Fraction(1)}, {0: Fraction(1)}
    for _ in range(abs(k)):
        pn, pd = _ref_mul(pn, num), _ref_mul(pd, den)
    return _ref_canon(pn, pd)


def _canonical_type(c):
    return c.numerator if c.denominator == 1 else c


def _make(ctx, num: dict, den: dict) -> Scalar:
    num, den = _ref_canon(num, den)
    num = {e: _canonical_type(c) for e, c in num.items()}
    den = {e: _canonical_type(c) for e, c in den.items()}
    return Scalar(ctx, num, _DEN_ONE if den == {0: 1} else den)


def _assert_coefficient_types(s: Scalar) -> None:
    # an int when integral, else a Fraction with denominator > 1; never a float
    for c in [*s.num.values(), *s.den.values()]:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


def _assert_is(got: Scalar, ref) -> None:
    num, den = ref
    assert got.num == num and got.den == den
    assert (got.den is _DEN_ONE) == (den == {0: 1})
    _assert_coefficient_types(got)


_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
_MIXED = (-12, -1, 0, 2, 3, 12, 24)


def _exponents(grading):
    if grading == "mixed":
        return st.sampled_from(_MIXED)
    return st.integers(-3, 3).map(lambda k: k * grading)


def _laurent(grading):
    def build(terms):
        out: dict = {}
        for e, c in terms:
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    return st.lists(st.tuples(_exponents(grading), _nonzero), min_size=1, max_size=3) \
        .map(build).filter(bool)


@st.composite
def _operands(draw):
    """Two Q(t) values of one grading that exercise each reduction rule."""
    grading = draw(st.sampled_from([1, 2, 3, 12, "mixed"]))
    poly = _laurent(grading)
    one = {0: Fraction(1)}
    kind = draw(st.sampled_from(["free", "equal-den", "shared-factor", "cancelling-sum",
                                 "poly", "monomial"]))
    if kind == "free":
        return _make(_CTX, draw(poly), draw(poly)), _make(_CTX, draw(poly), draw(poly))
    if kind == "equal-den":
        d = draw(poly)
        return _make(_CTX, draw(poly), d), _make(_CTX, draw(poly), d)
    if kind == "shared-factor":
        # p * (n/d) with gcd(p, d) != 1, and (n1/d1)(n2/d2) with crossed factors
        h, f, g = draw(poly), draw(poly), draw(poly)
        return (_make(_CTX, _ref_mul(f, h), draw(st.sampled_from([one, draw(poly)]))),
                _make(_CTX, draw(poly), _ref_mul(g, h)))
    if kind == "cancelling-sum":
        # (al/h + be/e1) + (ga/e2 - al/h): the denominators share h, and so
        # does the cross sum, so h cancels only in Henrici's second gcd
        h, e1, e2, al = draw(poly), draw(poly), draw(poly), draw(poly)
        return (_make(_CTX, _ref_add_dicts(_ref_mul(al, e1), _ref_mul(draw(poly), h)),
                      _ref_mul(h, e1)),
                _make(_CTX, _ref_add_dicts(_ref_mul(draw(poly), h),
                                           _ref_mul({e: -c for e, c in al.items()}, e2)),
                      _ref_mul(h, e2)))
    if kind == "poly":
        return _make(_CTX, draw(poly), one), _make(_CTX, draw(poly), draw(poly))
    e, c = draw(st.tuples(_exponents(grading), _nonzero))
    return _make(_CTX, {e: c}, one), _make(_CTX, draw(poly), draw(poly))


def _check_field_operations(a: Scalar, b: Scalar) -> None:
    neg_b = _make(b.ctx, {e: -c for e, c in b.num.items()}, b.den)
    for x, y in ((a, b), (b, a)):
        _assert_is(x + y, _ref_add(x, y))
        _assert_is(x * y, _ref_canon(_ref_mul(x.num, y.num), _ref_mul(x.den, y.den)))
        if y:
            _assert_is(x / y, _ref_canon(_ref_mul(x.num, y.den), _ref_mul(x.den, y.num)))
            _assert_is(y.inverse(), _ref_canon(y.den, y.num))
        for k in (-2, -1, 2):
            if k > 0 or y:
                _assert_is(y ** k, _ref_pow(y, k))
    _assert_is(a - b, _ref_add(a, neg_b))
    _assert_is(a + neg_b, _ref_add(a, neg_b))


@settings(max_examples=100, deadline=None)
@given(_operands())
def test_reduction_matches_dense_reference(pair):
    _check_field_operations(*pair)


_RATIONAL = ScalarContext(2, t0=Fraction(5, 3))


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=7),
       st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_rational_backend_matches_reference(x, y):
    a, b = _RATIONAL.scalar(x), _RATIONAL.scalar(y)
    _check_field_operations(a, b)
    assert (a * b).num == ({0: x * y} if x * y else {})


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_integral_coefficients_are_ints(t0):
    c = ScalarContext(2, t0=t0)
    t = c.t_power(1)
    half = c.scalar(3) / c.scalar(2)
    values = [half, c.scalar(2).inverse(), c.scalar(Fraction(4, 2)), c.one,
              parse_scalar(c, "(2*t^2 + 4)/(6*t^3 + 3*t)"), q_int(c, 3), q_binom(c, 4, 2),
              t * t - 1, (2 * t + 2) / (2 * t)]
    for v in values:
        _assert_coefficient_types(v)
    assert half.num == {0: Fraction(3, 2)}
    assert c.scalar(Fraction(4, 2)).num == {0: 2}
    if t0 is None:
        # a monic denominator leaves the numerator 2/3 t^-1 + 1/3 t
        assert values[4].num == {-1: Fraction(2, 3), 1: Fraction(1, 3)}
        assert values[-1].num == {0: 1, -1: 1}
