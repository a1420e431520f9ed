"""Segments, the modules they classify, and Drinfeld polynomials.

A segment of length k and center a is the geometric progression
(a q^{-k+1}, a q^{-k+3}, ..., a q^{k-1}).  An unordered multiset of segments
is juxtaposed in a canonical order into a parameter vector: longer segments
first, the lower of two linked segments first, and otherwise the order in
which the centers render.  Linkage is read exactly: r starts q^(2m) above s
when the ratio of their starts has ``Scalar.q_exponent`` 2m.  The attached
partition pi feeds the parabolic Kazhdan-Lusztig element C_{w_pi}, whose
image generates the distinguished submodule I_pi of the universal module.
The irreducible subquotient with nonzero marked vector is carved out
constructively by repeated Meataxe splitting, and the n-tuple of Drinfeld
polynomials of its affinization is the product formula P_i(u) = prod over
segments of length i of (u - a_j^{-1}).  At finite level, Rogawski's
constituent J_pi of I_pi inside H_ell is the spin of the one line
I_pi * x_{pi'}, with x_{pi'} the sum of sigma_w over the parabolic subgroup
of the conjugate partition.

Centers are restricted to Laurent monomials c * q^{e/2} so that all segment
arithmetic stays inside the exact field.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log10
from typing import Optional

from .affine_hecke import RightModule, hecke_regular_module, universal_module
from .hecke import HeckeElt, kl_parabolic_element
from .linalg import Matrix, SubspaceBasis, intersect, row_space, span
from .module_tools import proper_submodule, quotient, spin_module, submodule
from .scalars import Scalar, ScalarContext
from .symgroup import all_perms, block_boundaries, check_partition, elements_of_parabolic
from .uq_rep import UqModule, fundamental_weight, highest_weight_vectors


class SegmentSpecError(ValueError):
    """Malformed segment specification; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class Segment:
    center: Scalar
    length: int

    def __post_init__(self):
        if self.center.is_zero():
            raise ValueError("segment center must be nonzero")
        if self.length < 1:
            raise ValueError("segment length must be >= 1")

    def expansion(self) -> list:
        """The k entries, successive ratio q^2, centered at the center."""
        ctx = self.center.ctx
        k = self.length
        return [self.center * ctx.q_power(2 * i - k + 1) for i in range(k)]


def _precedes(s: Segment, r: Segment) -> bool:
    """Whether s and r are linked with s lower: their union is a segment that
    neither contains, and s starts first.  Then r starts q^(2m) above s with
    max(0, len(s) - len(r)) < m <= len(s)."""
    d = (r.expansion()[0] / s.expansion()[0]).q_exponent()
    return d is not None and d % 2 == 0 and max(0, s.length - r.length) < d // 2 <= s.length


@dataclass
class SegmentList:
    """A multiset of segments in canonical juxtaposition order.

    The segments are sorted once, by the key (-length, rendering of the
    center), and then each waits for every segment linked to it from below,
    whatever the lengths: of the segments not yet placed, the first in key
    order with none linked below it goes next.  So longer segments go first,
    the lower of two linked segments goes first, and everything else
    follows the rendering, which depends on the backend (a center renders
    differently over Q(t) and at a rational t).
    """

    segments: list

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        rest = sorted(self.segments, key=lambda s: (-s.length, str(s.center)))
        self.segments = []
        while rest:
            s = next(s for s in rest if not any(_precedes(r, s) for r in rest))
            rest.remove(s)
            self.segments.append(s)

    @property
    def ell(self) -> int:
        return sum(s.length for s in self.segments)

    def partition(self) -> tuple:
        return tuple(s.length for s in self.segments)

    def a_vector(self) -> list:
        out = []
        for s in self.segments:
            out.extend(s.expansion())
        return out

    def __repr__(self):
        return "SegmentList(" + ", ".join(
            f"({s.center}:{s.length})" for s in self.segments
        ) + ")"


def make_segments(ctx: ScalarContext, specs) -> SegmentList:
    """Build a SegmentList from (center, length) pairs."""
    segs = []
    for center, length in specs:
        if not isinstance(center, Scalar):
            center = ctx.scalar(center)
        segs.append(Segment(center, int(length)))
    return SegmentList(segs)


def _digits(x: Fraction) -> float:
    """About the number of decimal digits in x's numerator or denominator."""
    return log10(max(abs(x.numerator), x.denominator))


def parse_segments(ctx: ScalarContext, text: str) -> SegmentList:
    """Parse the grammar `<coeff>@<half_q_exponent>:<length>`, comma separated.

    The value of a term is coeff * q^(exponent/2); e.g. "1@0:2,1@4:1" is the
    multiset {center 1 length 2, center q^2 length 1}.
    """
    segs = []
    pos = 0
    digits = 0.0
    for chunk in text.split(","):
        chunk_start = pos
        body = chunk.strip()
        if not body:
            raise SegmentSpecError("empty segment entry", chunk_start)
        if "@" not in body:
            raise SegmentSpecError("missing '@' separator", chunk_start)
        coeff_s, rest = body.split("@", 1)
        if ":" not in rest:
            raise SegmentSpecError("missing ':<length>'", chunk_start + len(coeff_s) + 1)
        exp_s, len_s = rest.split(":", 1)
        try:
            coeff = Fraction(coeff_s)
        except (ValueError, ZeroDivisionError):
            raise SegmentSpecError(f"bad coefficient {coeff_s!r}", chunk_start) from None
        try:
            half_exp = int(exp_s)
        except ValueError:
            raise SegmentSpecError(
                f"bad exponent {exp_s!r}", chunk_start + len(coeff_s) + 1
            ) from None
        try:
            length = int(len_s)
        except ValueError:
            raise SegmentSpecError(
                f"bad length {len_s!r}", chunk_start + len(coeff_s) + len(exp_s) + 2
            ) from None
        if coeff == 0:
            raise SegmentSpecError("zero center", chunk_start)
        if length < 1:
            raise SegmentSpecError(
                f"length must be >= 1, got {length}",
                chunk_start + len(coeff_s) + len(exp_s) + 2,
            )
        # Each parameter is coeff * t^k times a small power of q, with
        # k = (n+1) * half_exp a rational t0^k on the specialized backend, and
        # products of the parameters reach about their summed size.  Past
        # Python's limit on int-string digits such a number can be neither
        # printed nor written to JSON, and a huge t0^k does not finish.
        digits += length * _digits(coeff)
        if ctx.t0 is not None:
            digits += length * abs(ctx.e * half_exp // 2) * _digits(ctx.t0)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if digits > limit:
            raise SegmentSpecError(
                f"segment parameters too large: their product would have about "
                f"{digits:.0f} digits, above the limit of {limit}", chunk_start)
        center = ctx.scalar(coeff) * ctx.q_power(Fraction(half_exp, 2))
        segs.append(Segment(center, length))
        pos += len(chunk) + 1
    return SegmentList(segs)


# ---------------------------------------------------------------------------
# I_pi and its friends
# ---------------------------------------------------------------------------


def hecke_image_vector(elt: HeckeElt, perms_index) -> dict:
    """Coordinates of a Hecke element's image in the sigma_w module basis."""
    return {perms_index[w]: c for w, c in elt.terms.items()}


def _kl_ideal(parent: RightModule, parts) -> tuple:
    """The submodule of parent spun from the image of C_{w_pi}.

    parent has the sigma_w basis in all_perms order (a universal or the
    regular module).  Returns (submodule, marked vector in its coordinates,
    basis rows inside parent).
    """
    index = {w: k for k, w in enumerate(all_perms(parent.ell))}
    v0 = hecke_image_vector(kl_parabolic_element(parent.ctx, parts), index)
    basis = spin_module(parent, v0)
    return submodule(parent, basis), basis.coords(v0), basis


@dataclass
class IdealImage:
    """A submodule of a universal module with a marked generating vector."""

    module: RightModule
    marked: dict            # coordinates of the image of C_{w_pi} in the sub-basis
    basis: SubspaceBasis    # rows inside the parent universal module
    parent: RightModule


def ideal_I_pi(s: SegmentList, ctx: ScalarContext) -> IdealImage:
    """The submodule of M_a spun from the image of C_{w_pi}."""
    parent = universal_module(ctx, s.a_vector())
    module, marked, basis = _kl_ideal(parent, s.partition())
    return IdealImage(module, marked, basis, parent)


def intertwiner_A(s: SegmentList, ctx: ScalarContext, i: int):
    """Left multiplication by C_i as a map of universal modules.

    Returns (T, source, target) where source = M_{a_{tau_i}}, target = M_a,
    and T carries source rows to target rows.  Only defined when tau_i does
    not straddle a segment boundary.
    """
    if i in block_boundaries(s.partition()):
        raise ValueError(f"tau_{i} crosses a segment boundary")
    if not 1 <= i <= s.ell - 1:
        raise ValueError(f"index {i} out of range")
    avec = s.a_vector()
    swapped = list(avec)
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    target = universal_module(ctx, avec)
    source = universal_module(ctx, swapped)
    return _left_mult_C_i(ctx, s.ell, i), source, target


def _left_mult(h: HeckeElt) -> Matrix:
    """Left multiplication by h on the sigma_w basis: row r is h sigma_w, for
    w the r-th permutation of all_perms."""
    perms = all_perms(h.ell)
    index = {w: k for k, w in enumerate(perms)}
    return Matrix(h.ctx, len(perms), len(perms),
                  [hecke_image_vector(h * HeckeElt.basis(h.ctx, w), index) for w in perms])


def _left_mult_C_i(ctx: ScalarContext, ell: int, i: int) -> Matrix:
    """Left multiplication by C_i = q^-1 sigma_i - q, the KL element of the
    composition with a 2 at position i, on the sigma_w basis.  It depends
    only on ell, i and q, not on the parameters a."""
    return _left_mult(kl_parabolic_element(ctx, [1] * (i - 1) + [2] + [1] * (ell - i - 1)))


def image_intersection_I_pi(s: SegmentList, ctx: ScalarContext) -> SubspaceBasis:
    """I_pi as the intersection of the images of the intertwiners."""
    boundaries = block_boundaries(s.partition())
    inner = [i for i in range(1, s.ell) if i not in boundaries]
    if not inner:
        dim = factorial(s.ell)
        return span(ctx, dim, ({r: ctx.one} for r in range(dim)))
    out = None
    for i in inner:
        img = row_space(_left_mult_C_i(ctx, s.ell, i))
        out = img if out is None else intersect(out, img)
    return out


# ---------------------------------------------------------------------------
# Irreducible subquotients
# ---------------------------------------------------------------------------


def head_with_marked_vector(mod: RightModule, marked: dict):
    """The irreducible quotient of a cyclic module along its marked generator.

    Repeatedly splits off proper submodules (which can never contain the
    image of the generating vector) until the quotient is irreducible;
    returns (quotient module, image of the marked vector), which are the
    inputs themselves when mod is already irreducible.  A vector that dies
    stays dead, so one assert on the last image covers every step.
    """
    while (found := proper_submodule(mod)) is not None:
        mod, marked = quotient(mod, found), found.coset(marked)
    assert marked, "marked vector died in the quotient"
    return mod, marked


def irreducible_V_a(s: SegmentList, ctx: ScalarContext):
    """The irreducible subquotient of M_a with nonzero image of C_{w_pi}.

    Returns (module, marked vector image, IdealImage).
    """
    ideal = ideal_I_pi(s, ctx)
    mod, marked = head_with_marked_vector(ideal.module, ideal.marked)
    return mod, marked, ideal


def finite_ideal_module(ctx: ScalarContext, parts) -> tuple:
    """I_pi inside the right regular representation of H_ell."""
    parts = check_partition(parts)
    return _kl_ideal(hecke_regular_module(ctx, sum(parts)), parts)


def rogawski_quotient(ctx: ScalarContext, parts) -> RightModule:
    """Rogawski's constituent J_pi of I_pi: the spin of I_pi * x_{pi'}.

    x_mu is the sum of sigma_w over the parabolic S_mu, so x_mu sigma_i =
    q^2 x_mu there; R_i acts by q^2 on v_r (x) v_r, so the mu-weight space
    of Jimbo's J(M) has dimension rank rho_M(x_mu).  J_pi is the constituent
    that J sends to V(lambda_pi), whose weight has content mu = pi', the
    conjugate partition.  By Kostka triangularity every other constituent
    of I_pi has a strictly lower Jimbo highest weight, so x_{pi'} kills it:
    I_pi * x_{pi'} is one line inside J_pi, and J_pi is its spin.
    """
    parts = check_partition(parts)
    conj = tuple(sum(1 for p in parts if p >= r) for r in range(1, max(parts) + 1))
    sub, _, _ = finite_ideal_module(ctx, parts)
    x = HeckeElt(ctx, sum(parts), {w: ctx.one for w in elements_of_parabolic(conj)})
    image = row_space(sub.act_elt(x))
    if image.dim != 1:
        raise RuntimeError(f"expected I_pi * x_{conj} to be a line, got dimension {image.dim}")
    return submodule(sub, spin_module(sub, image.rows()[0]))


# ---------------------------------------------------------------------------
# Drinfeld polynomials
# ---------------------------------------------------------------------------


@dataclass
class PolyTuple:
    """n monic polynomials in u over the scalar field, low degree first."""

    n: int
    coeffs: list  # list of lists of Scalar

    def degree(self, i: int) -> int:
        return len(self.coeffs[i - 1]) - 1

    def degrees(self) -> tuple:
        return tuple(self.degree(i) for i in range(1, self.n + 1))

    def poly(self, i: int) -> list:
        return self.coeffs[i - 1]

    def to_json(self) -> list:
        return [[str(c) for c in p] for p in self.coeffs]

    def render(self) -> list:
        out = []
        for i, p in enumerate(self.coeffs, start=1):
            if len(p) == 1:
                out.append(f"P_{i}(u) = 1")
                continue
            bits = []
            for d in range(len(p) - 1, -1, -1):
                c = p[d]
                if c.is_zero():
                    continue
                if d == len(p) - 1:
                    bits.append("u" if d == 1 else f"u^{d}")
                else:
                    cs = c.render_q()
                    if d == 0:
                        bits.append(f"({cs})")
                    elif d == 1:
                        bits.append(f"({cs})*u")
                    else:
                        bits.append(f"({cs})*u^{d}")
            out.append(f"P_{i}(u) = " + " + ".join(bits))
        return out


def _poly_from_roots(ctx, roots) -> list:
    out = [ctx.one]
    for r in roots:
        nxt = [ctx.zero] * (len(out) + 1)
        for d, c in enumerate(out):
            nxt[d + 1] = nxt[d + 1] + c
            nxt[d] = nxt[d] - c * r
        out = nxt
    return out


def drinfeld_polys(s: SegmentList, n: int) -> PolyTuple:
    """P_i(u) = product over segments of length i of (u - center^{-1})."""
    ctx = s.segments[0].center.ctx
    if s.ell > n:
        raise ValueError("the dictionary needs total length <= n")
    roots: dict[int, list] = {}
    for seg in s.segments:
        if seg.length > n:
            raise ValueError(
                f"segment length {seg.length} exceeds n={n}: no such fundamental weight"
            )
        roots.setdefault(seg.length, []).append(seg.center.inverse())
    coeffs = [_poly_from_roots(ctx, roots.get(i, [])) for i in range(1, n + 1)]
    return PolyTuple(n, coeffs)


# ---------------------------------------------------------------------------
# Parameter extraction (loop eigenvalue through the highest weight vector)
# ---------------------------------------------------------------------------


def lemma64_check(W: UqModule, m: int, claimed_root: Optional[Scalar] = None):
    """Extract the loop parameter of a fundamental-type affine module.

    W must have a one-dimensional highest weight space of weight lambda_m.
    Applies x_0^+ and the lowering chain x_n^- ... x_{m+1}^- x_1^- ... x_m^-
    to the highest weight vector; both land in the same line, and the ratio
    is (-1)^(m-1) times the inverse of the Drinfeld root of P_m.  Returns
    (ok, extracted_root).
    """
    ctx = W.ctx
    n = W.n
    target = fundamental_weight(n, m)
    hw = highest_weight_vectors(W)
    if target not in hw or len(hw[target]) != 1:
        raise ValueError(f"highest weight space of weight {target} is not one-dimensional")
    v = hw[target][0]
    lhs = W.x0p.apply_col(v)
    chain = [W.xm[i - 1] for i in range(n, m, -1)] + [W.xm[i - 1] for i in range(1, m + 1)]
    rhs = dict(v)
    for op in reversed(chain):
        rhs = op.apply_col(rhs)
    if not lhs or not rhs:
        return False, None
    idx = min(rhs)
    if idx not in lhs:
        return False, None
    ratio = lhs[idx] / rhs[idx]
    for k, c in rhs.items():
        if not (lhs.get(k, ctx.zero) == ratio * c):
            return False, None
    if len(lhs) != len(rhs):
        return False, None
    sign = ctx.one if (m - 1) % 2 == 0 else -ctx.one
    extracted = sign * ratio.inverse()
    ok = claimed_root is None or extracted == claimed_root
    return ok, extracted
