from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qschur.scalars import (
    _DEN_ONE, MAX_T_EXPONENT, Scalar, ScalarContext, parse_scalar, q_binom, q_int,
)


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


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_parse_refuses_oversized_exponents(t0):
    # (t^k - 1)/(t^2 - 1) has k/2 terms: a term beyond the limit is refused
    # before any of them is built, on either side of the fraction bar
    c = ScalarContext(2, t0=t0)
    k = MAX_T_EXPONENT
    at_limit = parse_scalar(c, f"(t^{k} - 1)/(t^2 - 1)")
    assert at_limit == (c.t_power(k) - 1) / (c.t_power(2) - 1)
    assert parse_scalar(c, f"3*t^-{k}") == 3 * c.t_power(-k)
    for s in ("(t^200000 - 1)/(t^2 - 1)", f"t^{k + 1}", f"-2*t^-{k + 1} + 1",
              f"(1)/(t^{k + 1} - 1)"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_scalar(c, s)


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
# t, over Q with a monic denominator.  The canonical form is unique, so every
# field operation must return exactly the reference's numerator and
# denominator once read in that form (``_monic``), a constant denominator must
# be the shared _DEN_ONE, and the stored form must be canonical.


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


def _monic(x: Scalar):
    """x as (num, den) over Q with den monic, the form the reference returns."""
    lead = x.den[max(x.den)]
    return ({e: Fraction(v, x.c * lead) for e, v in x.num.items()},
            {e: Fraction(v, lead) for e, v in x.den.items()})


def _ref_add(x, y):
    (xn, xd), (yn, yd) = _monic(x), _monic(y)
    num = _ref_add_dicts(_ref_mul(xn, yd), _ref_mul(yn, xd))
    return _ref_canon(num, _ref_mul(xd, yd))


def _ref_pow(x, k: int):
    num, den = _monic(x) if k > 0 else _monic(x)[::-1]
    pn, pd = {0: Fraction(1)}, {0: Fraction(1)}
    for _ in range(abs(k)):
        pn, pd = _ref_mul(pn, num), _ref_mul(pd, den)
    return _ref_canon(pn, pd)


def _make(ctx, num: dict, den: dict) -> Scalar:
    """The canonical Scalar of num/den, built field by field from the reference."""
    num, den = _ref_canon(num, den)
    m = lcm(*(c.denominator for c in den.values()))
    di = {e: int(c * m) for e, c in den.items()}
    k = gcd(*di.values())
    nq = {e: c * m / k for e, c in num.items()}
    c = lcm(*(v.denominator for v in nq.values()))
    s = Scalar(ctx, {e: int(v * c) for e, v in nq.items()},
               _DEN_ONE if len(di) == 1 else {e: v // k for e, v in di.items()}, c)
    assert _monic(s) == (num, den)
    return s


def _assert_canonical(s: Scalar) -> None:
    # every stored coefficient is an int; den is _DEN_ONE or primitive with a
    # positive lead and a nonzero constant term; gcd(c, content(num)) = 1
    for v in [*s.num.values(), *s.den.values(), s.c]:
        assert type(v) is int and v, v
    assert s.c > 0 and gcd(s.c, *s.num.values()) == 1
    if s.den is not _DEN_ONE:
        assert len(s.den) > 1 and min(s.den) == 0 and s.den[max(s.den)] > 0
        assert gcd(*s.den.values()) == 1
    assert s.den == {0: 1} or s.den is not _DEN_ONE


def _assert_is(got: Scalar, ref) -> None:
    num, den = ref
    assert _monic(got) == (num, den)
    assert (got.den is _DEN_ONE) == (den == {0: 1})
    _assert_canonical(got)


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
                                 "poly", "monomial", "two-monomials"]))
    if kind == "two-monomials":
        return draw(_monomial_pair(_CTX, _exponents(grading)))
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


_UNITS_AND_OTHERS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)]) | _nonzero


@st.composite
def _monomial_pair(draw, ctx, exponents):
    """c1 t^e1 and c2 t^e2, the operands of the monomial fast paths: exponents
    free or equal, and a sum that may cancel, with coefficients +-1, other
    ints and Fractions."""
    e1, c1 = draw(exponents), draw(_UNITS_AND_OTHERS)
    e2, c2 = draw(exponents), draw(_UNITS_AND_OTHERS)
    how = draw(st.sampled_from(["free", "equal-exponent", "cancelling"]))
    if how != "free":
        e2 = e1
    if how == "cancelling":
        c2 = -c1
    one = {0: Fraction(1)}
    return _make(ctx, {e1: c1}, one), _make(ctx, {e2: c2}, one)


def _check_field_operations(a: Scalar, b: Scalar) -> None:
    bn, bd = _monic(b)
    neg_b = _make(b.ctx, {e: -c for e, c in bn.items()}, bd)
    for x, y in ((a, b), (b, a)):
        (xn, xd), (yn, yd) = _monic(x), _monic(y)
        _assert_is(x + y, _ref_add(x, y))
        _assert_is(x * y, _ref_canon(_ref_mul(xn, yn), _ref_mul(xd, yd)))
        if y:
            _assert_is(x / y, _ref_canon(_ref_mul(xn, yd), _ref_mul(xd, yn)))
            _assert_is(y.inverse(), _ref_canon(yd, yn))
        for k in (-2, -1, 2):
            if k > 0 or y:
                _assert_is(y ** k, _ref_pow(y, k))
    _assert_is(a - b, _ref_add(a, neg_b))
    _assert_is(a + neg_b, _ref_add(a, neg_b))
    if (not a + b and len(a.num) == len(b.num) == 1
            and a.den is _DEN_ONE and b.den is _DEN_ONE):
        # two monomials that cancel give the context's own zero
        assert a + b is a.ctx.zero


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
    assert _monic(a * b)[0] == ({0: x * y} if x * y else {})


@settings(max_examples=60, deadline=None)
@given(_monomial_pair(_RATIONAL, st.just(0)))
def test_rational_monomial_fast_paths_match_reference(pair):
    # a t0 backend holds constants only: every operand is c t^0; the
    # symbolic monomials are the two-monomials kind of _operands
    _check_field_operations(*pair)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_monomial_operands_of_other_kinds(t0):
    c, other = ScalarContext(2, t0=t0), ScalarContext(2, t0=t0)
    x = c.scalar(-3) * c.t_power(1)
    for y in (2, -1, Fraction(2, 3), Fraction(-4, 2)):
        assert x + y == y + x == x + c.scalar(y)
        assert x * y == y * x == x * c.scalar(y)
        assert x - y == x + c.scalar(-y) and x / y == x * c.scalar(y).inverse()
    for y in (other.scalar(2), other.t_power(1)):
        for op in (lambda u, v: u + v, lambda u, v: u * v):
            with pytest.raises(ValueError, match="different contexts"):
                op(x, y)
            with pytest.raises(ValueError, match="different contexts"):
                op(y, x)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_q_power_of_an_int_matches_the_rational_route(t0):
    c = ScalarContext(2, t0=t0)
    for k in range(-6, 7):
        got, want = c.q_power(k), c.q_power(Fraction(k))
        _assert_is(got, _monic(want))
    assert c.q_power(2) == c.q * c.q
    for r in (Fraction(1, 7), Fraction(5, 4)):
        with pytest.raises(ValueError, match="not representable"):
            c.q_power(r)


@pytest.mark.parametrize("c", [_CTX, _RATIONAL], ids=["symbolic", "t=5/3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equal_scalars_hash_equal(c, data):
    a, b = data.draw(scalars_strategy(c)), data.draw(scalars_strategy(c))
    for x, y in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a)):
        assert x == y and hash(x) == hash(y)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_constants_hash_as_the_numbers_they_equal(t0):
    c = ScalarContext(2, t0=t0)
    for x, y in ((c.scalar(3), 3), (c.scalar(Fraction(1, 2)), Fraction(1, 2)), (c.zero, 0),
                 (Scalar(c, {0: 3}, {0: 1}), c.scalar(3))):
        assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_stored_coefficients_are_ints(t0):
    c = ScalarContext(2, t0=t0)
    t = c.t_power(1)
    half = c.scalar(3) / c.scalar(2)
    values = [half, c.scalar(2).inverse(), c.scalar(Fraction(4, 2)), c.one,
              parse_scalar(c, "(2*t^2 + 4)/(6*t^3 + 3*t)"), q_int(c, 3), q_binom(c, 4, 2),
              t * t - 1, (2 * t + 2) / (2 * t)]
    for v in values:
        _assert_canonical(v)
    assert _monic(half)[0] == {0: Fraction(3, 2)}
    assert (half.num, half.den, half.c) == ({0: 3}, _DEN_ONE, 2)
    assert _monic(c.scalar(Fraction(4, 2)))[0] == {0: 2}
    if t0 is None:
        # a monic denominator leaves the numerator 2/3 t^-1 + 1/3 t; stored,
        # it is (4 t^-1 + 2 t) / (3 (2 t^2 + 1)), with the 3 in c
        assert _monic(values[4])[0] == {-1: Fraction(2, 3), 1: Fraction(1, 3)}
        assert (values[4].num, values[4].den, values[4].c) == ({-1: 4, 1: 2}, {0: 1, 2: 2}, 3)
        assert _monic(values[-1])[0] == {0: 1, -1: 1}


def _some_results(c, a, b, d):
    """Values of every reduction rule's kind built from a, b and d."""
    out = [a + b, a - b, a * b, -a, a + c.scalar(Fraction(7, 3)), a * d]
    if b:
        out += [a / b, b.inverse(), (a + d) / b + d / (b + c.q), (a / b) * (b / (a + c.q))]
    return out


@pytest.mark.parametrize("c", [_CTX, _RATIONAL], ids=["symbolic", "t=5/3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_representation_is_canonical_and_round_trips(c, data):
    a, b, d = (data.draw(scalars_strategy(c)) for _ in range(3))
    for x in _some_results(c, a, b, d):
        _assert_canonical(x)
        y = parse_scalar(c, str(x))
        assert y == x and hash(y) == hash(x)
        if x.den is _DEN_ONE and set(x.num) <= {0}:
            # a constant hashes as the number it equals
            assert hash(x) == hash(_monic(x)[0].get(0, 0))


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_denominator_one_is_shared_and_results_are_scalars(t0):
    # an operation counts as one on rational functions exactly when an
    # operand's den is not the shared _DEN_ONE, and every result is of the
    # one Scalar class, whose methods an op counter patches
    c = ScalarContext(2, t0=t0)
    t = c.t_power(1)
    poly = c.scalar(Fraction(7, 3)) * t * t - c.scalar(Fraction(1, 2)) * t
    for x in (c.scalar(Fraction(7, 3)), poly, c.q_power(3), c.q_power(-2), -c.q):
        assert x.den is _DEN_ONE
    inv = (c.q - c.q_power(-1)).inverse()
    # at a rational t the inverse is a constant, so it keeps the shared den
    assert (inv.den is _DEN_ONE) == (t0 is not None)
    for x, y in ((poly, inv), (inv, poly), (c.q, c.scalar(Fraction(7, 3)))):
        for r in (x + y, x - y, x * y, x / y, y.inverse(), x + 2, 2 - x, Fraction(1, 3) * x,
                  x / 3, 1 / x, -x, x ** 2, x ** -1):
            assert type(r) is Scalar
