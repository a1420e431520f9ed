"""The finite Hecke algebra H_ell(q^2) in the sigma_w basis.

Elements are sparse maps Perm -> Scalar.  Multiplication uses the standard
recursion on reduced words: sigma_w * sigma_i equals sigma_{w tau_i} when the
length goes up, and (q^2 - 1) sigma_w + q^2 sigma_{w tau_i} when it goes
down.  That rule and the linear structure live in ``_SigmaBasisElt``, which
the affine Hecke elements of ``affine_hecke`` share: H_ell(q^2) is their
y^0 slice.  The only Kazhdan-Lusztig elements needed downstream are the
C_{w_pi} attached to longest elements of parabolic subgroups, where every
KL polynomial is 1, so no KL recursion lives here.
"""

from __future__ import annotations

from .linalg import add_scaled
from .scalars import Scalar, ScalarContext
from .symgroup import (
    Perm,
    check_partition,
    elements_of_parabolic,
    parabolic_longest,
)


class _SigmaBasisElt:
    """Linear structure and right sigma_i action shared by both Hecke algebras.

    An element is a sparse map from term keys to scalars.  A subclass fixes
    where the permutation w of the sigma_w factor sits in a key (``_perm``,
    ``_with_perm``) and how to multiply on the right by one basis element
    (``_times_basis``); everything else is written once here.
    """

    __slots__ = ("ctx", "ell", "terms")

    def __init__(self, ctx: ScalarContext, ell: int, terms=None):
        self.ctx = ctx
        self.ell = ell
        self.terms: dict = terms if terms is not None else {}

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ell != other.ell:
            raise ValueError("Hecke elements of different sizes")
        if self.ctx is not other.ctx:
            raise ValueError("Hecke elements from different contexts")

    # -- linear structure -------------------------------------------------------

    def _add_term(self, key, c: Scalar):
        add_scaled(self.terms, {key: c})

    def __add__(self, other):
        self._check(other)
        return type(self)(self.ctx, self.ell, add_scaled(dict(self.terms), other.terms))

    def __neg__(self):
        return type(self)(self.ctx, self.ell, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = self.ctx.scalar(c)
        if c.is_zero():
            return type(self)(self.ctx, self.ell)
        return type(self)(self.ctx, self.ell, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ell == other.ell and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- multiplication -----------------------------------------------------------

    def times_sigma(self, i: int):
        """Right multiplication by sigma_i.

        sigma_w sigma_i is sigma_{w tau_i} when the length goes up, and
        (q^2 - 1) sigma_w + q^2 sigma_{w tau_i} when it goes down.
        """
        ctx = self.ctx
        q2 = ctx.q_power(2)
        q2m1 = q2 - ctx.one
        out = type(self)(ctx, self.ell)
        for key, c in self.terms.items():
            w = self._perm(key)
            moved = self._with_perm(key, w.times_tau(i))
            if w.has_right_descent(i):
                out._add_term(key, c * q2m1)
                out._add_term(moved, c * q2)
            else:
                out._add_term(moved, c)
        return out

    def _times_sigma_word(self, w: Perm):
        """Right multiplication by sigma_w, one letter of a reduced word at a time."""
        out = self
        for i in w.reduced_word():
            out = out.times_sigma(i)
        return out

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = type(self)(self.ctx, self.ell)
        for key, d in other.terms.items():
            add_scaled(out.terms, self._times_basis(key).terms, d)
        return out

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented


class HeckeElt(_SigmaBasisElt):
    """An element of H_ell(q^2), sparse over the sigma_w basis: keys are Perms."""

    __slots__ = ()

    @staticmethod
    def _perm(key: Perm) -> Perm:
        return key

    @staticmethod
    def _with_perm(key: Perm, w: Perm) -> Perm:
        return w

    _times_basis = _SigmaBasisElt._times_sigma_word

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ctx, ell) -> "HeckeElt":
        return HeckeElt(ctx, ell)

    @staticmethod
    def one(ctx, ell) -> "HeckeElt":
        return HeckeElt(ctx, ell, {Perm.identity(ell): ctx.one})

    @staticmethod
    def basis(ctx, w: Perm) -> "HeckeElt":
        return HeckeElt(ctx, w.ell, {w: ctx.one})

    @staticmethod
    def sigma(ctx, ell, i) -> "HeckeElt":
        return HeckeElt.basis(ctx, Perm.transposition(ell, i))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            word = ",".join(str(i) for i in w.reduced_word()) or "e"
            bits.append(f"({self.terms[w]}) * s[{word}]")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [
            {"perm": w.one_line(), "scalar": str(c)}
            for w, c in sorted(self.terms.items(), key=lambda t: t[0])
        ]


def kl_parabolic_element(ctx: ScalarContext, parts) -> HeckeElt:
    """The Kazhdan-Lusztig element C_{w_pi} for a parabolic longest element.

    C_{w_pi} = q^{len(w_pi)} * sum over w' in the parabolic subgroup of
    (-1)^{len(w_pi) - len(w')} q^{-2 len(w')} sigma_{w'}; the sum ranges over
    the whole parabolic because exactly its elements are Bruhat-below w_pi,
    and all their KL polynomials are 1.  For a single transposition this is
    C_i = q^{-1} sigma_i - q.
    """
    parts = check_partition(parts)
    total = sum(parts)
    wpi = parabolic_longest(parts)
    L = wpi.length()
    out = HeckeElt.zero(ctx, total)
    for w in elements_of_parabolic(parts):
        lw = w.length()
        c = ctx.q_power(L - 2 * lw)
        if (L - lw) % 2:
            c = -c
        out._add_term(w, c)
    return out
