"""Exact coefficient field Q(t), with q embedded as a fixed power of t.

Every structure constant in this package lives in the rational function
field Q(t).  A :class:`ScalarContext` fixes the rank ``n`` and the embedding
``q = t^(2(n+1))``, so that the fractional powers ``q^(1/2) = t^(n+1)`` and
``q^(1/(n+1)) = t^2`` needed by the quantum-group side are honest integer
powers of the single variable t.  Nothing is ever approximated: numerators
and denominators are sparse Laurent polynomials with integer coefficients,
kept in a canonical reduced form so that equality is literal equality.

Every stored coefficient is a Python ``int``, never a ``Fraction`` or a
float: the rational content is kept apart from the primitive part (Knuth,
TAOCP vol. 2, 4.6.1).  Besides its context, a :class:`Scalar` holds an
integer Laurent polynomial ``num``, a polynomial ``den`` and a positive int
``c``, and its value is num / (c den).  The constant 7/3 is ({0: 7}, _DEN_ONE, 3); q^k, the
q-numbers and Ř's entries have c = 1.  So + and * of two coefficients are
int operations with at most a ``math.gcd``, and ``is_one`` compares ints.

The canonical form of a nonzero value is unique, so equality is literal
dict and int equality:

* ``den`` is the shared ``_DEN_ONE`` exactly when the value is a Laurent
  polynomial; otherwise it is a primitive polynomial with nonzero constant
  term and positive leading coefficient, and any power of t rides on ``num``;
* ``num`` is coprime to ``den`` over Q;
* gcd(c, content(num)) = 1, so c is the least common denominator of
  value * den.  Zero is ({}, _DEN_ONE, 1).

Any correct reduction therefore returns the same dicts, and each operation
does only the gcd work it needs (Henrici, J. ACM 3, 1956; Knuth, TAOCP
vol. 2, 4.5.1), with n/d, n1/d1, n2/d2 canonical and p a polynomial:

* inverse: d/n is already coprime; only the shift, the content and the sign
  change;
* p + n/d = (p d + n)/d is already reduced;
* n1/d1 + n2/d2: g = gcd(d1, d2); with e_i = d_i/g the sum is
  (n1 e2 + n2 e1)/(g e1 e2), and only a gcd with g can cancel.  Equal
  denominators take one gcd of n1 + n2 with d, coprime ones none;
* (n1/d1)(n2/d2): only the cross gcds gcd(n1, d2) and gcd(n2, d1) can
  cancel, and a monomial numerator shares nothing with d;
* parsing reduces with one gcd and then normalizes (shift, content, sign).

The contents combine as fractions do: a sum goes over lcm(c1, c2), a product
over c1 c2, and ``_make`` divides out gcd(c, content(num)) at the end.

Before any of these, + and * take a fast path for the operands they mostly
see, two monomials a1/c1 t^e1 and a2/c2 t^e2 over ``_DEN_ONE`` (every
constant included): the product is a1 a2/(c1 c2) t^(e1+e2) after one int
gcd, and the sum is one term, zero or the two terms, with no coercion, dict
merge or polynomial gcd.  Two terms at different exponents over
c = lcm(c1, c2) need no gcd at all: their content is already coprime to c.

Every gcd and exact division runs in the q-grading: after the Laurent shift,
with s the gcd of all exponents of both polynomials, it runs on integer
coefficient lists in u = t^s (s = 2(n+1) for the q-polynomials of this
package), which is exact because u -> t^s is an injective ring map that
keeps Bezout identities.  Euclid takes primitive pseudo-remainders, so the
gcd comes out primitive and, by Gauss's lemma, the quotients by it have
integer coefficients.

A context may instead pin ``t`` to a fixed rational value (the "specialized"
backend).  Scalars then degenerate to rational constants a/c, stored as the
int pair ({0: a}, c), but flow through the same code paths, which keeps
symbolic and specialized runs bit-identical in structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# Shared canonical denominator for polynomial scalars.  Never mutated.
_DEN_ONE: dict[int, int] = {0: 1}

# Largest |k| of a term t^k that ``parse_scalar`` reads.  The work of a parse
# grows with k ((t^k - 1)/(t^2 - 1) has k/2 terms), so larger exponents are
# refused up front.  The largest |k| that the check sweep, `build` at n = 4
# and F(M_a) at n = ell = 4 write is 60.
MAX_T_EXPONENT = 10_000


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
            x = Fraction(x)
            if x.denominator != 1:
                return Scalar(self, {0: x.numerator}, _DEN_ONE, x.denominator)
            x = x.numerator
        if x == 0:
            return self._zero
        return Scalar(self, {0: x}, _DEN_ONE)

    def t_power(self, k: int) -> "Scalar":
        """The monomial t^k; on the specialized backend a rational, kept in ``cache``."""
        if self.t0 is not None:
            key = ("t_power", k)
            hit = self.cache.get(key)
            if hit is None:
                hit = self.cache[key] = self.scalar(self.t0 ** k)
            return hit
        return Scalar(self, {k: 1}, _DEN_ONE)

    def q_power(self, r) -> "Scalar":
        """q^r for rational r with r * 2(n+1) integral."""
        if type(r) is int:
            return self.t_power(r * self.e)
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


def _scaled(p: dict, m: int) -> dict:
    return {e: m * c for e, c in p.items()} if m != 1 else p


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _dict_mul(a: dict, b: dict) -> dict:
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    if len(b) == 1:
        (eb, cb), = b.items()
        return {ea + eb: ca * cb for ea, ca in a.items()}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _dense_rem(a: list, b: list) -> list:
    """The primitive part of a pseudo-remainder of a by b, trimmed.

    Each step scales a by lead(b)/g and subtracts lead(a)/g times the shifted
    b, for g = gcd(lead(a), lead(b)), so everything stays an int.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        lead = a.pop()
        if lead:
            g = gcd(lead, lb)
            f, h = lb // g, lead // g
            if f != 1:
                a = [f * c for c in a]
            off = len(a) - db
            for i in range(db):
                a[off + i] -= h * b[i]
    while a and not a[-1]:
        a.pop()
    if a and (k := gcd(*a)) != 1:
        a = [c // k for c in a]
    return a


def _dense_div_exact(a: list, b: list, s: int, shift: int) -> dict:
    """Exact quotient a / b of integer lists, as a sparse dict in t.

    a and b are coefficient lists in u = t^s; quotient exponent k becomes
    k * s + shift.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q: dict = {}
    while len(a) > db:
        lead = a.pop()
        if lead:
            c, r = divmod(lead, lb)
            if r:
                raise ArithmeticError("non-exact polynomial division")
            off = len(a) - db
            q[off * s + shift] = c
            for i in range(db):
                a[off + i] -= c * b[i]
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return q


def _cancel(a: dict, b: dict):
    """(a/g, b/g, g) for the gcd g of two nonzero integer Laurent polynomials.

    g is primitive with a positive leading coefficient, so by Gauss's lemma
    the quotients have integer coefficients.  Returns None when g = 1.  Both
    are shifted to polynomials with nonzero constant term, and the gcd and
    the exact divisions run in u = t^s, where s is the gcd of all their
    exponents: u -> t^s is an injective ring map that keeps Bezout
    identities, so the gcd in u expands to the gcd in t, from coefficient
    lists s times shorter.  The quotients keep the shifts of a and b, and g
    has nonzero constant term.
    """
    if len(a) == 1 or len(b) == 1:
        return None
    amin, bmin = min(a), min(b)
    s = gcd(*(e - amin for e in a), *(e - bmin for e in b))
    da = [0] * ((max(a) - amin) // s + 1)
    for e, c in a.items():
        da[(e - amin) // s] = c
    db = [0] * ((max(b) - bmin) // s + 1)
    for e, c in b.items():
        db[(e - bmin) // s] = c
    x, y = (da, db) if len(da) >= len(db) else (db, da)
    while y:
        x, y = y, _dense_rem(x, y)
    if len(x) == 1:
        return None
    m = gcd(*x)
    if x[-1] < 0:
        m = -m
    if m != 1:
        x = [c // m for c in x]
    g = {k * s: c for k, c in enumerate(x) if c}
    return _dense_div_exact(da, x, s, amin), _dense_div_exact(db, x, s, bmin), g


def _make(ctx: ScalarContext, num: dict, den: dict, c: int) -> "Scalar":
    """The scalar num / (c den), for num coprime to den and den either
    ``_DEN_ONE`` or primitive with positive lead and nonzero constant term:
    a constant den (then 1) becomes ``_DEN_ONE``, and gcd(c, content(num))
    is divided out."""
    if not num:
        return ctx._zero
    if len(den) == 1:
        den = _DEN_ONE
    if c != 1 and (g := gcd(c, *num.values())) != 1:
        num, c = {e: v // g for e, v in num.items()}, c // g
    return Scalar(ctx, num, den, c)


def _normalize(ctx: ScalarContext, num: dict, den: dict, c: int = 1) -> "Scalar":
    """The scalar num / (c den) for coprime integer num and nonzero den.

    Shifts den to a polynomial with nonzero constant term (num takes the
    Laurent shift) and moves its content and sign into c and num.
    """
    dmin = min(den)
    k = gcd(*den.values())
    if den[max(den)] < 0:
        k = -k
    sign = 1 if k > 0 else -1
    return _make(ctx, {e - dmin: sign * v for e, v in num.items()},
                 {e - dmin: v // k for e, v in den.items()}, c * abs(k))


class Scalar:
    """An element of Q(t) in canonical reduced form: num / (c den).

    Immutable; all operations return fresh values, so scalars are safe to
    share across threads and to reuse inside cached matrices.  The hash is
    that of the canonical numerator, so equal scalars hash equal, and a
    constant hashes as the int or Fraction it is == to.
    """

    __slots__ = ("ctx", "num", "den", "c")

    def __init__(self, ctx: ScalarContext, num: dict, den: dict, c: int = 1):
        self.ctx = ctx
        self.num = num
        self.den = den
        self.c = c

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
        return self.c == 1 and self.den is _DEN_ONE and self.num == _DEN_ONE  # num {0: 1}

    def __bool__(self):
        return bool(self.num)

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        n1 = self.num
        if (type(other) is Scalar and other.ctx is self.ctx and len(n1) == 1
                and len(n2 := other.num) == 1 and self.den is _DEN_ONE
                and other.den is _DEN_ONE):
            # monomials a1/c1 t^e1 + a2/c2 t^e2: int arithmetic, no dict merge
            e1, = n1
            e2, = n2
            a1, a2, c = n1[e1], n2[e2], self.c
            if c != other.c:
                c = lcm(c, other.c)
                a1, a2 = a1 * (c // self.c), a2 * (c // other.c)
            if e1 != e2:
                # a prime of c divides one of a1, a2 only: no gcd to take
                return Scalar(self.ctx, {e1: a1, e2: a2}, _DEN_ONE, c)
            a = a1 + a2
            if not a:
                return self.ctx._zero
            if c != 1 and (g := gcd(a, c)) != 1:
                a, c = a // g, c // g
            return Scalar(self.ctx, {e1: a}, _DEN_ONE, c)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ctx, n1, n2, c = self.ctx, self.num, o.num, self.c
        if c != o.c:
            c = lcm(c, o.c)
            n1, n2 = _scaled(n1, c // self.c), _scaled(n2, c // o.c)
        d1, d2 = self.den, o.den
        if d1 is _DEN_ONE and d2 is _DEN_ONE:
            return _make(ctx, _dict_add(n1, n2), _DEN_ONE, c)
        # p + n/d = (p d + n)/d is already reduced
        if d1 is _DEN_ONE:
            return _make(ctx, _dict_add(_dict_mul(n1, d2), n2), d2, c)
        if d2 is _DEN_ONE:
            return _make(ctx, _dict_add(n1, _dict_mul(n2, d1)), d1, c)
        if d1 == d2:
            num = _dict_add(n1, n2)
            if num and (reduced := _cancel(num, d1)) is not None:
                num, d1, _ = reduced
            return _make(ctx, num, d1, c)
        # Henrici: with g = gcd(d1, d2), n1/d1 + n2/d2 = s / (g e1 e2) for
        # e_i = d_i/g and s = n1 e2 + n2 e1, and only gcd(s, g) can cancel
        reduced = _cancel(d1, d2)
        if reduced is None:
            num = _dict_add(_dict_mul(n1, d2), _dict_mul(n2, d1))
            return _make(ctx, num, _dict_mul(d1, d2), c)
        e1, e2, g = reduced
        num = _dict_add(_dict_mul(n1, e2), _dict_mul(n2, e1))
        if num and (reduced := _cancel(num, g)) is not None:
            num, g, _ = reduced
        return _make(ctx, num, _dict_mul(_dict_mul(e1, e2), g), c)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, {e: -c for e, c in self.num.items()}, self.den, self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        n1 = self.num
        if (type(other) is Scalar and other.ctx is self.ctx and len(n1) == 1
                and len(n2 := other.num) == 1 and self.den is _DEN_ONE
                and other.den is _DEN_ONE):
            # monomials: (a1/c1 t^e1)(a2/c2 t^e2), never zero; one int gcd
            e1, = n1
            e2, = n2
            a, c = n1[e1] * n2[e2], self.c * other.c
            if c != 1 and (g := gcd(a, c)) != 1:
                a, c = a // g, c // g
            return Scalar(self.ctx, {e1 + e2: a}, _DEN_ONE, c)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n1, n2 = self.num, o.num
        if not n1 or not n2:
            return self.ctx._zero
        d1, d2 = self.den, o.den
        if d1 is _DEN_ONE and d2 is _DEN_ONE:
            return _make(self.ctx, _dict_mul(n1, n2), _DEN_ONE, self.c * o.c)
        # Henrici: only the cross pairs n1/d2 and n2/d1 can share factors
        if d2 is not _DEN_ONE and (reduced := _cancel(n1, d2)) is not None:
            n1, d2, _ = reduced
        if d1 is not _DEN_ONE and (reduced := _cancel(n2, d1)) is not None:
            n2, d1, _ = reduced
        return _make(self.ctx, _dict_mul(n1, n2), _dict_mul(d1, d2), self.c * o.c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of zero scalar")
        if len(num) == 1 and self.den is _DEN_ONE:
            # a/c t^e -> c/a t^-e: a and c are already coprime
            (e, a), = num.items()
            if a < 0:
                return Scalar(self.ctx, {-e: -self.c}, _DEN_ONE, -a)
            return Scalar(self.ctx, {-e: self.c}, _DEN_ONE, a)
        # c den/num is already coprime, so only the shift, content and sign remain
        return _normalize(self.ctx, _scaled(self.den, self.c), num)

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
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ctx.scalar(other)
        return (
            self.ctx is other.ctx
            and self.c == other.c
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # equal scalars have equal numerators, and the constant a/c has {0: a}
        num = self.num
        if len(num) == 1 and 0 in num:
            return hash(num[0] if self.c == 1 else Fraction(num[0], self.c))
        return hash(frozenset(num.items())) if num else 0

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
        return nval / (self.c * dval)

    def q_exponent(self) -> Optional[int]:
        """The integer m with this scalar equal to q^m, or None.

        Over Q(t), q^m is the monic monomial t^(m e), so m is its t-exponent
        divided by e.  At t = t0 the scalar is a rational a/c, and
        q0 = t0^e is positive and not 1.  With b >= 2 the larger of q0's
        numerator and denominator, the larger of a and c is b^|m| when
        a/c = q0^m, so |m| is the number of times b divides it: at most
        log_2 of it integer divisions.  The sign says whether a/c and q0 lie
        on the same side of 1.  No float or Fraction is involved on either
        backend, and q^m == self confirms the answer.
        """
        if len(self.num) != 1 or self.den is not _DEN_ONE:
            return None
        (k, a), = self.num.items()
        ctx = self.ctx
        if ctx.t0 is None:
            m = k // ctx.e
        elif a > 0:
            qn, qd = ctx.t0.numerator ** ctx.e, ctx.t0.denominator ** ctx.e
            b, side = max(qn, qd), max(a, self.c)
            m = 0
            while side % b == 0:
                side //= b
                m += 1
            if (a > self.c) != (qn > qd):
                m = -m
        else:
            return None
        return m if ctx.q_power(m) == self else None

    def as_q_monomial(self) -> Optional[tuple]:
        """(coefficient, integer q-exponent) if this is c * q^m, else None."""
        if self.den is not _DEN_ONE or len(self.num) != 1:
            return None
        (e, a), = self.num.items()
        if e % self.ctx.e:
            return None
        return (a if self.c == 1 else Fraction(a, self.c)), e // self.ctx.e

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        ns = _poly_str(self.num)
        if self.den is _DEN_ONE and self.c == 1:
            return ns
        return f"({ns})/({_poly_str(_scaled(self.den, self.c))})"

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


def _parse_poly(s: str):
    """(p, c): the polynomial s is p / c, with p's coefficients ints."""
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
                if abs(exp) > MAX_T_EXPONENT:
                    raise ValueError(f"term {piece!r}: |exponent| exceeds {MAX_T_EXPONENT}")
            else:
                raise ValueError(f"bad term {piece!r} in scalar string")
        else:
            exp = 0
        out[exp] = out.get(exp, Fraction(0)) + sign * coeff
    c = lcm(*(v.denominator for v in out.values()))
    return {e: v.numerator * (c // v.denominator) for e, v in out.items() if v}, c


def parse_scalar(ctx: ScalarContext, s: str) -> Scalar:
    """Parse the rendering produced by :meth:`Scalar.__str__`.

    ValueError for a malformed string or a term t^k with |k| above
    ``MAX_T_EXPONENT``.
    """
    s = s.strip()
    if s == "0":
        return ctx.zero
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        ns, ds = s[1:-1].split(")/(", 1)
        (num, cn), (den, cd) = _parse_poly(ns), _parse_poly(ds)
    else:
        (num, cn), den, cd = _parse_poly(s), {0: 1}, 1
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    # (num/cn) / (den/cd) = cd num / (cn den)
    num = _scaled(num, cd)
    if num and (reduced := _cancel(num, den)) is not None:
        num, den, _ = reduced
    sc = _normalize(ctx, num, den, cn)
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
