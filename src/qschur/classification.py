"""Segments, the modules they classify, and Drinfeld polynomials.

A segment of length k and center a is the geometric progression
(a q^{-k+1}, a q^{-k+3}, ..., a q^{k-1}).  An unordered multiset of segments
is juxtaposed in a canonical order (length descending, then center rendering)
into a parameter vector; the attached partition pi feeds the parabolic
Kazhdan-Lusztig element C_{w_pi}, whose image generates the distinguished
submodule I_pi of the universal module.  The irreducible subquotient with
nonzero marked vector is carved out constructively by repeated Meataxe
splitting, and the n-tuple of Drinfeld polynomials of its affinization is
the product formula P_i(u) = prod over segments of length i of (u - a_j^{-1}).

Centers are restricted to Laurent monomials c * q^{e/2} so that all segment
arithmetic stays inside the exact field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .affine_hecke import RightModule, hecke_regular_module, universal_module
from .hecke import HeckeElt, kl_parabolic_element
from .linalg import Matrix, SubspaceBasis, intersect, row_space, span
from .module_tools import proper_submodule, quotient, spin_module, submodule
from .scalars import Scalar, ScalarContext
from .symgroup import all_perms, block_boundaries, check_partition
from .uq_rep import (
    UqModule,
    dominant_highest_weights,
    fundamental_weight,
    highest_weight_vectors,
    jimbo_J,
    partition_weight,
)


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


def _compare_centers(a: Scalar, b: Scalar, max_shift: int) -> int:
    """Order centers along q^2-chains, independently of the backend.

    When two centers differ by q^(2m) the lower one comes first; this is
    the order that makes the head of the universal module match the
    polynomial dictionary when equal-length segments are linked.  Unlinked
    centers fall back to the rendering order (their relative order does not
    change any isomorphism class).
    """
    if a == b:
        return 0
    ctx = a.ctx
    ratio = a / b
    for m in range(1, max_shift + 1):
        if ratio == ctx.q_power(2 * m):
            return 1
        if ratio == ctx.q_power(-2 * m):
            return -1
    sa, sb = str(a), str(b)
    return -1 if sa < sb else 1


@dataclass
class SegmentList:
    """A multiset of segments in canonical juxtaposition order.

    Longer segments come first; equal-length segments are arranged along
    their q^2-linkage chains (lower center first).
    """

    segments: list

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        from functools import cmp_to_key

        max_shift = max(s.length for s in self.segments)

        def cmp(s1: Segment, s2: Segment) -> int:
            if s1.length != s2.length:
                return -1 if s1.length > s2.length else 1
            return _compare_centers(s1.center, s2.center, max_shift)

        self.segments = sorted(self.segments, key=cmp_to_key(cmp))

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

    def centers(self) -> list:
        return [s.center for s in self.segments]

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


def parse_segments(ctx: ScalarContext, text: str) -> SegmentList:
    """Parse the grammar `<coeff>@<half_q_exponent>:<length>`, comma separated.

    The value of a term is coeff * q^(exponent/2); e.g. "1@0:2,1@4:1" is the
    multiset {center 1 length 2, center q^2 length 1}.
    """
    segs = []
    pos = 0
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
    segments: SegmentList


def ideal_I_pi(s: SegmentList, ctx: ScalarContext) -> IdealImage:
    """The submodule of M_a spun from the image of C_{w_pi}."""
    parent = universal_module(ctx, s.a_vector())
    module, marked, basis = _kl_ideal(parent, s.partition())
    return IdealImage(module, marked, basis, parent, s)


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


def _left_mult_C_i(ctx: ScalarContext, ell: int, i: int) -> Matrix:
    """Left multiplication by C_i = q^-1 sigma_i - q on the sigma_w basis.

    Row r is the image of sigma_w for the r-th permutation w of all_perms.
    It depends only on ell, i and q, not on the parameters a.
    """
    perms = all_perms(ell)
    index = {w: k for k, w in enumerate(perms)}
    sigma_i = HeckeElt.sigma(ctx, ell, i)
    qinv = ctx.q_power(-1)
    q = ctx.q
    T = Matrix.zero(ctx, len(perms), len(perms))
    for r, w in enumerate(perms):
        for u, c in (sigma_i * HeckeElt.basis(ctx, w)).terms.items():
            T.add_to_entry(r, index[u], qinv * c)
        T.add_to_entry(r, index[w], -q)
    return T


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
    returns (quotient module, image of the marked vector).
    """
    U = SubspaceBasis(mod.ctx, mod.dim)
    while True:
        qmod = quotient(mod, U)
        qmarked = U.coset(marked)
        assert qmarked, "marked vector died in the quotient"
        found = proper_submodule(qmod)
        if found is None:
            return qmod, qmarked
        # the preimage of a submodule of the quotient is again stable
        free = U.free_columns()
        for row in found.rows():
            U.add({free[c]: v for c, v in row.items()})


def irreducible_V_a(s: SegmentList, ctx: ScalarContext):
    """The irreducible subquotient of M_a with nonzero image of C_{w_pi}.

    Returns (module, marked vector image, IdealImage).
    """
    ideal = ideal_I_pi(s, ctx)
    mod, marked = head_with_marked_vector(ideal.module, ideal.marked)
    return mod, marked, ideal


def composition_factors(mod: RightModule) -> list:
    """All composition factors, as modules (recursive Meataxe splitting)."""
    sub = proper_submodule(mod)
    if sub is None:
        return [mod]
    return composition_factors(submodule(mod, sub)) + composition_factors(quotient(mod, sub))


def finite_ideal_module(ctx: ScalarContext, parts) -> tuple:
    """I_pi inside the right regular representation of H_ell."""
    parts = check_partition(parts)
    return _kl_ideal(hecke_regular_module(ctx, sum(parts)), parts)


def rogawski_quotient(ctx: ScalarContext, parts, n: int) -> RightModule:
    """The irreducible H_ell-constituent J_pi of I_pi.

    The finite Hecke algebra is semisimple, so I_pi splits and the marked
    vector alone cannot single out a factor; the factor is pinned down as
    the one whose Jimbo image has highest weight lambda_{l_1} + ... +
    lambda_{l_p} with multiplicity one (needs n >= ell).
    """
    parts = check_partition(parts)
    ell = sum(parts)
    if n < ell:
        raise ValueError("pinning the factor needs n >= ell")
    target = partition_weight(n, parts)
    sub, _, _ = finite_ideal_module(ctx, parts)
    matches = []
    for factor in composition_factors(sub):
        img = jimbo_J(factor, n)
        if img.module.dim == 0:
            continue
        hw = dominant_highest_weights(img.module)
        if hw == {target: 1}:
            matches.append(factor)
    if len(matches) != 1:
        raise RuntimeError(
            f"expected a unique factor with highest weight {target}, got {len(matches)}"
        )
    return matches[0]


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
