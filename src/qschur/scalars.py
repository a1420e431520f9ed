"""Exact coefficient field Q(t), with q embedded as a fixed power of t.

Every structure constant in this package lives in the rational function
field Q(t).  A :class:`ScalarContext` fixes the rank ``n`` and the embedding
``q = t^(2(n+1))``, so that the fractional powers ``q^(1/2) = t^(n+1)`` and
``q^(1/(n+1)) = t^2`` needed by the quantum-group side are honest integer
powers of the single variable t.  Nothing is ever approximated: numerators
and denominators are sparse Laurent polynomials with rational coefficients,
kept in a canonical reduced form so that equality is literal equality.

A coefficient is an ``int`` when it is integral and a ``Fraction`` with
denominator > 1 otherwise, never a float.  The q-numbers, q^k and Ř's
entries all have integer coefficients, so most arithmetic stays on Python
ints; an int and an equal Fraction compare and hash equal, so the type
choice does not touch equality.  Every division between two coefficients
goes through ``_div`` (int / int would give a float), and sums and products
demote an integral Fraction.

The canonical form of a nonzero value is unique: numerator and denominator
are coprime, the denominator is a monic polynomial with nonzero constant
term (the shared ``_DEN_ONE`` when it is 1), and any power of t rides on the
numerator.  Any correct reduction therefore returns the same dicts, and each
operation does only the gcd work it needs (Henrici, J. ACM 3, 1956; Knuth,
TAOCP vol. 2, 4.5.1), with n/d, n1/d1, n2/d2 canonical and p a polynomial:

* inverse: d/n is already coprime; only the shift and the scale change;
* p + n/d = (p d + n)/d is already reduced;
* n1/d1 + n2/d2: g = gcd(d1, d2); with e_i = d_i/g the sum is
  (n1 e2 + n2 e1)/(g e1 e2), and only a gcd with g can cancel.  Equal
  denominators take one gcd of n1 + n2 with d, coprime ones none;
* (n1/d1)(n2/d2): only the cross gcds gcd(n1, d2) and gcd(n2, d1) can
  cancel, and a monomial numerator shares nothing with d;
* anything else (parsing) goes through ``_canon``: one gcd, then
  ``_normalize`` (shift and monic).

Every gcd and exact division runs in the q-grading: after the Laurent shift,
with s the gcd of all exponents of both polynomials, it runs on coefficient
lists in u = t^s (s = 2(n+1) for the q-polynomials of this package), which
is exact because u -> t^s is an injective ring map that keeps Bezout
identities.

A context may instead pin ``t`` to a fixed rational value (the "specialized"
backend).  Scalars then degenerate to plain rationals but flow through the
same code paths, which keeps symbolic and specialized runs bit-identical in
structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# Shared canonical denominator for polynomial scalars.  Never mutated.
_DEN_ONE: dict[int, int] = {0: 1}


def _demote(x):
    """x as an int when it is integral, else x itself (a Fraction)."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _div(a, b):
    """The exact quotient a / b of two coefficients, demoted."""
    return _demote(Fraction(a, b))


class ScalarContext:
    """Arithmetic context shared by every scalar of one session.

    ``n`` is the rank (so the quantum group is built on sl_{n+1}) and the
    embedding exponent is ``e = 2(n+1)``: q = t^e.  With ``t0`` set, the
    backend is specialized and t is the fixed rational ``t0`` (never 0 or
    +-1, which keeps q off the roots of unity reachable at desk scale).
    """

    __slots__ = ("n", "e", "t0", "cache", "_zero", "_one")

    def __init__(self, n: int, t0=None):
        if n < 1:
            raise ValueError("rank n must be >= 1")
        self.n = n
        self.e = 2 * (n + 1)
        if t0 is not None:
            t0 = Fraction(t0)
            if t0 == 0 or t0 == 1 or t0 == -1:
                raise ValueError("specialized t must avoid 0, 1, -1")
        self.t0 = t0
        self.cache: dict = {}
        self._zero = Scalar(self, {}, _DEN_ONE)
        self._one = Scalar(self, {0: 1}, _DEN_ONE)

    @property
    def zero(self) -> "Scalar":
        return self._zero

    @property
    def one(self) -> "Scalar":
        return self._one

    def scalar(self, x) -> "Scalar":
        """Embed a rational number."""
        if type(x) is not int:
            x = _demote(Fraction(x))
        if x == 0:
            return self._zero
        return Scalar(self, {0: x}, _DEN_ONE)

    def t_power(self, k: int) -> "Scalar":
        """The monomial t^k (a rational value on the specialized backend)."""
        if self.t0 is not None:
            return self.scalar(self.t0 ** k)
        return Scalar(self, {k: 1}, _DEN_ONE)

    def q_power(self, r) -> "Scalar":
        """q^r for rational r with r * 2(n+1) integral."""
        m = Fraction(r) * self.e
        if m.denominator != 1:
            raise ValueError(
                f"q^{r} is not representable: needs denominator dividing {self.e}"
            )
        return self.t_power(int(m))

    @property
    def q(self) -> "Scalar":
        return self.q_power(1)

    @property
    def q_half(self) -> "Scalar":
        return self.q_power(Fraction(1, 2))

    def backend_name(self) -> str:
        return "symbolic" if self.t0 is None else f"rational:{self.t0}"

    def __repr__(self):
        return f"ScalarContext(n={self.n}, backend={self.backend_name()})"


def _strip(d: dict) -> dict:
    return {e: _demote(c) for e, c in d.items() if c}


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[e]
    return out


def _dict_mul(a: dict, b: dict) -> dict:
    if len(a) == 1:
        (ea, ca), = a.items()
        out = {ea + eb: ca * cb for eb, cb in b.items()}
    elif len(b) == 1:
        (eb, cb), = b.items()
        out = {ea + eb: ca * cb for ea, ca in a.items()}
    else:
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e)
                if s is None:
                    out[e] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
    for e, c in out.items():
        if type(c) is not int and c.denominator == 1:
            out[e] = c.numerator
    return out


def _shifted(p: dict, k: int) -> dict:
    return {e + k: c for e, c in p.items()} if k else p


def _dense_rem(a: list, b: list) -> list:
    """Remainder of a by monic b, trimmed."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            da = len(a) - 1
            for i in range(db + 1):
                a[da - db + i] -= lead * b[i]
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _dense_monic(a: list) -> list:
    lead = a[-1]
    if lead == 1:
        return a
    return [_div(c, lead) for c in a]


def _dense_div_exact(a: list, b: list, s: int, shift: int) -> dict:
    """Exact quotient a / b for monic b, as a sparse dict in t.

    a and b are coefficient lists in u = t^s; quotient exponent k becomes
    k * s + shift.
    """
    a = list(a)
    db = len(b) - 1
    q: dict = {}
    while len(a) - 1 >= db and a:
        lead = a[-1]
        da = len(a) - 1
        if lead:
            q[(da - db) * s + shift] = _demote(lead)
            for i in range(db + 1):
                a[da - db + i] -= lead * b[i]
        a.pop()
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return q


def _cancel(a: dict, b: dict):
    """(a/g, b/g, g) for the monic gcd g of two nonzero Laurent polynomials.

    Returns None when g = 1.  Both are shifted to polynomials with nonzero
    constant term, and the gcd and the exact divisions run in u = t^s, where
    s is the gcd of all their exponents: u -> t^s is an injective ring map
    that keeps Bezout identities, so the gcd in u expands to the gcd in t,
    from coefficient lists s times shorter.  The quotients keep the shifts of
    a and b, and g has nonzero constant term.
    """
    if len(a) == 1 or len(b) == 1:
        return None
    amin, bmin = min(a), min(b)
    s = 0
    for e in a:
        s = gcd(s, e - amin)
    for e in b:
        s = gcd(s, e - bmin)
    da = [0] * ((max(a) - amin) // s + 1)
    for e, c in a.items():
        da[(e - amin) // s] = c
    db = [0] * ((max(b) - bmin) // s + 1)
    for e, c in b.items():
        db[(e - bmin) // s] = c
    x, y = _dense_monic(da), _dense_monic(db)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _dense_rem(x, y)
        if y:
            y = _dense_monic(y)
    if len(x) == 1:
        return None
    g = {k * s: c for k, c in enumerate(x) if c}
    return _dense_div_exact(da, x, s, amin), _dense_div_exact(db, x, s, bmin), g


def _normalize(num: dict, den: dict):
    """Canonical form of num/den for coprime num and den, num nonzero.

    Shifts the denominator to a polynomial with nonzero constant term (the
    numerator takes the Laurent shift) and makes it monic; a constant
    denominator becomes the shared ``_DEN_ONE``.
    """
    dmin = min(den)
    if len(den) == 1:
        c = den[dmin]
        if c != 1:
            return {e - dmin: _div(v, c) for e, v in num.items()}, _DEN_ONE
        return _shifted(num, -dmin), _DEN_ONE
    num, den = _shifted(num, -dmin), _shifted(den, -dmin)
    lead = den[max(den)]
    if lead != 1:
        den = {e: _div(c, lead) for e, c in den.items()}
        num = {e: _div(c, lead) for e, c in num.items()}
    return num, den


def _canon(num: dict, den: dict):
    """Reduce an arbitrary num/den to canonical form: one gcd, then normalize.

    The denominator ends up a genuine polynomial with nonzero constant term
    and leading coefficient 1; the numerator absorbs any Laurent shift; the
    two are coprime.  Zero is ({}, 1).
    """
    num = _strip(num)
    den = _strip(den)
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return {}, _DEN_ONE
    reduced = _cancel(num, den)
    if reduced is not None:
        num, den, _ = reduced
    return _normalize(num, den)


class Scalar:
    """An element of Q(t) in canonical reduced form.

    Immutable; all operations return fresh values, so scalars are safe to
    share across threads and to reuse inside cached matrices.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: ScalarContext, num: dict, den: dict):
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                raise ValueError("scalars from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.den is _DEN_ONE and self.num == {0: 1}

    def __bool__(self):
        return bool(self.num)

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 is _DEN_ONE and d2 is _DEN_ONE:
            return Scalar(self.ctx, _dict_add(self.num, o.num), _DEN_ONE)
        n1, n2 = self.num, o.num
        # p + n/d = (p d + n)/d is already reduced
        if d1 is _DEN_ONE:
            return Scalar(self.ctx, _dict_add(_dict_mul(n1, d2), n2), d2)
        if d2 is _DEN_ONE:
            return Scalar(self.ctx, _dict_add(n1, _dict_mul(n2, d1)), d1)
        if d1 == d2:
            num = _dict_add(n1, n2)
            if not num:
                return self.ctx._zero
            reduced = _cancel(num, d1)
            if reduced is None:
                return Scalar(self.ctx, num, d1)
            num, den, _ = reduced
            return Scalar(self.ctx, *_normalize(num, den))
        # Henrici: with g = gcd(d1, d2), n1/d1 + n2/d2 = s / (g e1 e2) for
        # e_i = d_i/g and s = n1 e2 + n2 e1, and only gcd(s, g) can cancel
        reduced = _cancel(d1, d2)
        if reduced is None:
            num = _dict_add(_dict_mul(n1, d2), _dict_mul(n2, d1))
            return Scalar(self.ctx, num, _dict_mul(d1, d2))
        e1, e2, g = reduced
        num = _dict_add(_dict_mul(n1, e2), _dict_mul(n2, e1))
        if not num:
            return self.ctx._zero
        reduced = _cancel(num, g)
        if reduced is not None:
            num, g, _ = reduced
        return Scalar(self.ctx, *_normalize(num, _dict_mul(_dict_mul(e1, e2), g)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n1, n2 = self.num, o.num
        if not n1 or not n2:
            return self.ctx._zero
        d1, d2 = self.den, o.den
        if d1 is _DEN_ONE and d2 is _DEN_ONE:
            return Scalar(self.ctx, _dict_mul(n1, n2), _DEN_ONE)
        # Henrici: only the cross pairs n1/d2 and n2/d1 can share factors
        if d2 is not _DEN_ONE:
            reduced = _cancel(n1, d2)
            if reduced is not None:
                n1, d2, _ = reduced
        if d1 is not _DEN_ONE:
            reduced = _cancel(n2, d1)
            if reduced is not None:
                n2, d1, _ = reduced
        return Scalar(self.ctx, *_normalize(_dict_mul(n1, n2), _dict_mul(d1, d2)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        # den/num is already coprime, so only the shift and the scale remain
        num = self.den if self.den is not _DEN_ONE else {0: 1}
        return Scalar(self.ctx, *_normalize(num, self.num))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k == 0:
            return self.ctx._one
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None  # type: ignore[assignment]

    # -- specialization and inspection --------------------------------------

    def specialize(self, t0) -> Fraction:
        """Exact evaluation at t = t0; raises on a pole."""
        t0 = Fraction(t0)
        if t0 == 0 or t0 == 1 or t0 == -1:
            raise ValueError("specialization point must avoid 0, 1, -1")
        dval = sum((c * t0 ** e for e, c in self.den.items()), Fraction(0))
        if dval == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        nval = sum((c * t0 ** e for e, c in self.num.items()), Fraction(0))
        return nval / dval

    def q_exponent(self) -> Optional[int]:
        """The integer m with this scalar equal to q^m, or None.

        Over Q(t), q^m is the monic monomial t^(m e), so m is its t-exponent
        divided by e.  At t = t0 the scalar is a rational x, and q0 = t0^e is
        positive and not 1.  With b >= 2 the larger of q0's numerator and
        denominator, the larger of x's numerator and denominator is b^|m|
        when x = q0^m, so |m| is the number of times b divides it: at most
        log_2 of it integer divisions.  The sign says whether x and q0 lie on
        the same side of 1.  No float is involved on either backend, and
        q^m == self confirms the answer.
        """
        if len(self.num) != 1 or self.den != _DEN_ONE:
            return None
        (k, x), = self.num.items()
        ctx = self.ctx
        if ctx.t0 is None:
            m = k // ctx.e
        elif x > 0:
            q0, x = ctx.t0 ** ctx.e, Fraction(x)
            b = max(q0.numerator, q0.denominator)
            side = max(x.numerator, x.denominator)
            m = 0
            while side % b == 0:
                side //= b
                m += 1
            if (x > 1) != (q0 > 1):
                m = -m
        else:
            return None
        return m if ctx.q_power(m) == self else None

    def as_t_monomial(self) -> Optional[tuple]:
        """(exponent, coefficient) if this is c * t^k, else None."""
        if self.den is not _DEN_ONE and self.den != _DEN_ONE:
            return None
        if len(self.num) != 1:
            return None
        (e, c), = self.num.items()
        return e, c

    def as_q_monomial(self) -> Optional[tuple]:
        """(coefficient, integer q-exponent) when the t-exponent divides out."""
        m = self.as_t_monomial()
        if m is None:
            return None
        e, c = m
        if e % self.ctx.e:
            return None
        return c, e // self.ctx.e

    # -- rendering -----------------------------------------------------------

    def _int_cleared(self):
        """(num, den) with integer coefficients, jointly primitive, den lead > 0."""
        denoms = [c.denominator for c in self.num.values()]
        denoms += [c.denominator for c in self.den.values()]
        m = lcm(*denoms) if denoms else 1
        ni = {e: int(c * m) for e, c in self.num.items()}
        di = {e: int(c * m) for e, c in self.den.items()}
        content = 0
        for c in ni.values():
            content = gcd(content, abs(c))
        for c in di.values():
            content = gcd(content, abs(c))
        if content > 1:
            ni = {e: c // content for e, c in ni.items()}
            di = {e: c // content for e, c in di.items()}
        if di and di[max(di)] < 0:
            ni = {e: -c for e, c in ni.items()}
            di = {e: -c for e, c in di.items()}
        return ni, di

    def __str__(self):
        if not self.num:
            return "0"
        ni, di = self._int_cleared()
        ns = _poly_str(ni)
        if di == {0: 1}:
            return ns
        return f"({ns})/({_poly_str(di)})"

    def __repr__(self):
        return f"Scalar({self})"

    def render_q(self) -> str:
        """Render as c*q^m when possible, else fall back to the t form."""
        m = self.as_q_monomial()
        if m is None:
            return str(self)
        c, k = m
        if k == 0:
            return str(c)
        qs = "q" if k == 1 else f"q^{k}"
        if c == 1:
            return qs
        if c == -1:
            return "-" + qs
        return f"{c}*{qs}"


def _poly_str(p: dict) -> str:
    """Human- and parser-friendly rendering of an integer Laurent polynomial."""
    terms = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            body = str(abs(c))
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _parse_poly(ctx: ScalarContext, s: str) -> dict:
    s = s.strip().replace(" - ", " + -").replace(" + ", "|")
    out: dict[int, Fraction] = {}
    for piece in s.split("|"):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty term in scalar string")
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        if "*" in piece:
            cs, ts = piece.split("*", 1)
            coeff = Fraction(cs)
        elif piece.startswith("t"):
            coeff = Fraction(1)
            ts = piece
        else:
            coeff = Fraction(piece)
            ts = ""
        if ts:
            if ts == "t":
                exp = 1
            elif ts.startswith("t^"):
                exp = int(ts[2:])
            else:
                raise ValueError(f"bad term {piece!r} in scalar string")
        else:
            exp = 0
        out[exp] = out.get(exp, Fraction(0)) + sign * coeff
    return _strip(out)


def parse_scalar(ctx: ScalarContext, s: str) -> Scalar:
    """Parse the rendering produced by :meth:`Scalar.__str__`."""
    s = s.strip()
    if s == "0":
        return ctx.zero
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        ns, ds = s[1:-1].split(")/(", 1)
        num = _parse_poly(ctx, ns)
        den = _parse_poly(ctx, ds)
    else:
        num = _parse_poly(ctx, s)
        den = {0: 1}
    num, den = _canon(num, den)
    sc = Scalar(ctx, num, den)
    if ctx.t0 is not None:
        # Specialized backend stores plain rationals.
        return ctx.scalar(sc.specialize(ctx.t0))
    return sc


def q_int(ctx: ScalarContext, m: int) -> Scalar:
    """The quantum integer [m]_q = (q^m - q^-m)/(q - q^-1), memoized per context."""
    key = ("q_int", m)
    hit = ctx.cache.get(key)
    if hit is None:
        num = ctx.q_power(m) - ctx.q_power(-m)
        den = ctx.q - ctx.q_power(-1)
        hit = ctx.cache[key] = num / den
    return hit


def q_binom(ctx: ScalarContext, m: int, r: int) -> Scalar:
    """Quantum binomial coefficient [m r]_q, memoized per context."""
    if r < 0 or r > m:
        return ctx.zero
    key = ("q_binom", m, r)
    hit = ctx.cache.get(key)
    if hit is None:
        hit = ctx.one
        for i in range(r):
            hit = hit * q_int(ctx, m - i)
        for i in range(1, r + 1):
            hit = hit / q_int(ctx, i)
        ctx.cache[key] = hit
    return hit
