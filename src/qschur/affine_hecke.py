"""The affine Hecke algebra in Bernstein normal form, and its modules.

An element is a sparse map (alpha, w) -> Scalar representing
sum c_{alpha,w} y^alpha sigma_w, with the Laurent part on the left.  Normal
form is unique, so equality of elements is equality of maps.  Multiplication
straightens with the two-sided moves

    sigma_i y_i     = y_{i+1} sigma_i - (q^2 - 1) y_{i+1}
    sigma_i y_{i+1} = y_i sigma_i     + (q^2 - 1) y_{i+1}
    sigma_i y_i^{-1}     = y_{i+1}^{-1} sigma_i + (q^2 - 1) y_i^{-1}
    sigma_i y_{i+1}^{-1} = y_i^{-1} sigma_i     - (q^2 - 1) y_i^{-1}

(the inverse-variable moves follow from the primary ones by clearing
denominators; the tests confirm each by substituting back into
sigma_i y_i sigma_i = q^2 y_{i+1}).

Modules are finite-dimensional right modules stored as generator action
matrices on row vectors, so action matrices compose in reading order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Matrix, add_scaled, json_int, named_matrices
from .scalars import Scalar, ScalarContext
from .symgroup import (
    Perm,
    all_perms,
    coset_factorize,
    min_coset_reps,
    split_parabolic,
)
from .hecke import HeckeElt, _SigmaBasisElt


def _zero_alpha(ell: int) -> tuple:
    return (0,) * ell


class AffHeckeElt(_SigmaBasisElt):
    """Element of the affine Hecke algebra in Bernstein normal form.

    Keys are (alpha, w) for y^alpha sigma_w; the linear structure and the
    sigma_i action are the finite algebra's, so only y-straightening is here.
    """

    __slots__ = ()

    @staticmethod
    def _perm(key) -> Perm:
        return key[1]

    @staticmethod
    def _with_perm(key, w: Perm) -> tuple:
        return (key[0], w)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ctx, ell) -> "AffHeckeElt":
        return AffHeckeElt(ctx, ell)

    @staticmethod
    def one(ctx, ell) -> "AffHeckeElt":
        key = (_zero_alpha(ell), Perm.identity(ell))
        return AffHeckeElt(ctx, ell, {key: ctx.one})

    @staticmethod
    def sigma(ctx, ell, i) -> "AffHeckeElt":
        key = (_zero_alpha(ell), Perm.transposition(ell, i))
        return AffHeckeElt(ctx, ell, {key: ctx.one})

    @staticmethod
    def sigma_perm(ctx, w: Perm) -> "AffHeckeElt":
        key = (_zero_alpha(w.ell), w)
        return AffHeckeElt(ctx, w.ell, {key: ctx.one})

    @staticmethod
    def y(ctx, ell, j, power=1) -> "AffHeckeElt":
        if not 1 <= j <= ell:
            raise ValueError(f"y_{j} out of range for ell={ell}")
        alpha = [0] * ell
        alpha[j - 1] = power
        key = (tuple(alpha), Perm.identity(ell))
        return AffHeckeElt(ctx, ell, {key: ctx.one})

    # -- straightening ---------------------------------------------------------------

    def times_y(self, j: int, power: int = 1) -> "AffHeckeElt":
        """Right multiplication by y_j^{power} (power = +-1 per step)."""
        if power not in (1, -1):
            out = self
            step = 1 if power > 0 else -1
            for _ in range(abs(power)):
                out = out.times_y(j, step)
            return out
        ctx = self.ctx
        out = AffHeckeElt(ctx, self.ell)
        for (alpha, w), c in self.terms.items():
            moved = _sigma_word_times_y(ctx, w, j, power)
            for (beta, u), d in moved.terms.items():
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                out._add_term((gamma, u), c * d)
        return out

    def _times_basis(self, key) -> "AffHeckeElt":
        beta, v = key
        cur = self
        for j, bj in enumerate(beta, start=1):
            if bj:
                cur = cur.times_y(j, bj)
        return cur._times_sigma_word(v)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (alpha, w) in sorted(self.terms, key=lambda k: (k[1], k[0])):
            c = self.terms[(alpha, w)]
            ys = ".".join(
                f"y{j+1}^{a}" for j, a in enumerate(alpha) if a
            )
            word = ",".join(str(i) for i in w.reduced_word()) or "e"
            body = (ys + "." if ys else "") + f"s[{word}]"
            bits.append(f"({c}) * {body}")
        return " + ".join(bits)


def _sigma_word_times_y(ctx: ScalarContext, w: Perm, j: int, s: int) -> AffHeckeElt:
    """Normal form of sigma_w * y_j^s, memoized per context.

    Recursion strips the last letter tau_i of a reduced word of w and pushes
    y_j^s through sigma_i with the straightening moves; every intermediate
    term again has a single-variable Laurent part, so the recursion closes.
    """
    key = ("wy", w.ell, w.images, j, s)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    ell = w.ell
    if w.is_identity():
        out = AffHeckeElt.y(ctx, ell, j, s)
        ctx.cache[key] = out
        return out
    i = w.right_descents()[0]
    wp = w.times_tau(i)
    q2m1 = ctx.q_power(2) - ctx.one
    if j != i and j != i + 1:
        out = _sigma_word_times_y(ctx, wp, j, s).times_sigma(i)
    elif j == i and s == 1:
        a = _sigma_word_times_y(ctx, wp, i + 1, 1)
        out = a.times_sigma(i) - a.scale(q2m1)
    elif j == i + 1 and s == 1:
        a = _sigma_word_times_y(ctx, wp, i, 1)
        b = _sigma_word_times_y(ctx, wp, i + 1, 1)
        out = a.times_sigma(i) + b.scale(q2m1)
    elif j == i and s == -1:
        a = _sigma_word_times_y(ctx, wp, i + 1, -1)
        b = _sigma_word_times_y(ctx, wp, i, -1)
        out = a.times_sigma(i) + b.scale(q2m1)
    else:  # j == i + 1, s == -1
        a = _sigma_word_times_y(ctx, wp, i, -1)
        out = a.times_sigma(i) - a.scale(q2m1)
    ctx.cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Right modules
# ---------------------------------------------------------------------------


@dataclass
class RightModule:
    """A finite-dimensional right module over H_ell(q^2) or its affine cover.

    Generator matrices act on row vectors, so the matrix of a product of
    algebra elements is the product of their matrices in reading order.
    ``kind`` is "H" (finite) or "Hhat" (affine, with y actions present).
    """

    ctx: ScalarContext
    kind: str
    ell: int
    dim: int
    sigma: list  # Matrix for sigma_i, index i-1
    y: Optional[list] = None
    y_inv: Optional[list] = None
    labels: Optional[list] = None

    def __post_init__(self):
        if self.kind not in ("H", "Hhat"):
            raise ValueError(f"unknown algebra kind {self.kind}")
        if self.kind == "Hhat" and (self.y is None or self.y_inv is None):
            raise ValueError("affine module needs y actions")

    def generators(self) -> dict:
        out = {}
        for i, m in enumerate(self.sigma, start=1):
            out[f"s{i}"] = m
        if self.kind == "Hhat":
            for j, m in enumerate(self.y, start=1):
                out[f"y{j}"] = m
            for j, m in enumerate(self.y_inv, start=1):
                out[f"y{j}inv"] = m
        return out

    def action_matrices(self) -> list:
        return list(self.generators().values())

    def sigma_inv(self, i: int) -> Matrix:
        # sigma^{-1} = q^{-2} sigma - (1 - q^{-2})
        ctx = self.ctx
        q2inv = ctx.q_power(-2)
        eye = Matrix.identity(ctx, self.dim)
        return self.sigma[i - 1].scale(q2inv) - eye.scale(ctx.one - q2inv)

    def act_elt(self, elt) -> Matrix:
        """Matrix of a Hecke or affine Hecke element acting on the right."""
        ctx = self.ctx
        out = Matrix.zero(ctx, self.dim, self.dim)
        if isinstance(elt, HeckeElt):
            items = [((_zero_alpha(self.ell), w), c) for w, c in elt.terms.items()]
        else:
            if elt.ell != self.ell:
                raise ValueError("element size does not match module")
            items = list(elt.terms.items())
        for (alpha, w), c in items:
            m = Matrix.identity(ctx, self.dim)
            for j, a in enumerate(alpha, start=1):
                if a > 0:
                    for _ in range(a):
                        m = m * self.y[j - 1]
                elif a < 0:
                    for _ in range(-a):
                        m = m * self.y_inv[j - 1]
            for i in w.reduced_word():
                m = m * self.sigma[i - 1]
            out = out + m.scale(c)
        return out

    def restrict_to_finite(self) -> "RightModule":
        return RightModule(
            self.ctx, "H", self.ell, self.dim, self.sigma, labels=self.labels
        )

    def to_json(self) -> dict:
        gens = {name: m.to_triplets() for name, m in self.generators().items()}
        out = {
            "algebra": self.kind,
            "ell": self.ell,
            "dim": self.dim,
            "generators": gens,
        }
        if self.labels:
            out["labels"] = list(self.labels)
        return out

    @staticmethod
    def from_generators(ctx, kind: str, ell: int, dim: int, gens: dict,
                        labels=None) -> "RightModule":
        """The module acting by ``gens``, a {name: Matrix} dict as generators() returns.

        Raises KeyError naming a missing generator, and ValueError for a
        name that ``kind`` and ``ell`` do not define or labels that do not
        name every basis vector.
        """
        sigma = [gens[f"s{i}"] for i in range(1, ell)]
        y = y_inv = None
        if kind == "Hhat":
            y = [gens[f"y{j}"] for j in range(1, ell + 1)]
            y_inv = [gens[f"y{j}inv"] for j in range(1, ell + 1)]
        if labels is not None and (not isinstance(labels, list) or len(labels) != dim):
            raise ValueError(f"labels must be a list of {dim}, one per basis vector")
        mod = RightModule(ctx, kind, ell, dim, sigma, y, y_inv, labels=labels)
        extra = sorted(set(gens) - set(mod.generators()))
        if extra:
            raise ValueError(f"generators {extra} are not defined for {kind} with ell={ell}")
        return mod

    @staticmethod
    def from_json(ctx, data) -> "RightModule":
        dim, ell = json_int(data["dim"], "dim"), json_int(data["ell"], "ell")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        return RightModule.from_generators(
            ctx, data["algebra"], ell, dim,
            named_matrices(ctx, dim, data["generators"]), labels=data.get("labels"),
        )


@dataclass
class RelationReport:
    """Outcome of checking defining relations as exact matrix identities.

    Each relation is checked as the literal equality of its two sides; a
    failure is witnessed by the first row where they differ and the least
    column in that row, the first nonzero entry of lhs - rhs
    (``_first_difference``).  The quantum affine suite decides its Cartan
    relations on integer q-exponents when every k_i^(+-1) is a diagonal of
    powers of q, with the same witness (``affinization._relation_suite``).  A relation that restates another
    takes its witness: s_i s_i^-1 = 1 the quadratic relation's, and a
    bracket-Serre relation the Serre relation's of the same pair and sign.
    """

    results: list  # (name, passed: bool, witness position or None)

    @classmethod
    def of(cls, relations) -> "RelationReport":
        """The report on (name, witness) pairs, in their order; None witnesses a pass."""
        return cls([(name, pos is None, pos) for name, pos in relations])

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list:
        return [name for name, ok, _ in self.results if not ok]

    def to_json(self) -> list:
        return [{"relation": name, "pass": ok} for name, ok, _ in self.results]

    def __repr__(self):
        n = len(self.results)
        bad = self.failures()
        return f"RelationReport({n - len(bad)}/{n} ok" + (
            f", failing: {bad})" if bad else ")"
        )


def _first_difference(lhs: Matrix, rhs: Matrix):
    """The first row where lhs and rhs differ and the least column in it, or None."""
    return next((
        (i, min(j for j in a.keys() | b.keys() if a.get(j) != b.get(j)))
        for i, (a, b) in enumerate(zip(lhs.rows, rhs.rows)) if a != b
    ), None)


def _module_relations(mod: RightModule):
    """Every defining relation of the (affine) Hecke algebra on mod, as
    (name, witness) pairs.  s_i s_i^-1 = 1 takes the quadratic relation's
    witness: s_i s_i^-1 - 1 = q^-2 (s_i^2 - (q^2 - 1) s_i - q^2)."""
    ell = mod.ell
    eye = Matrix.identity(mod.ctx, mod.dim)
    q2 = mod.ctx.q_power(2)
    sig = mod.sigma
    for i in range(1, ell):
        s = sig[i - 1]
        witness = _first_difference(s * s, s.scale(q2 - mod.ctx.one) + eye.scale(q2))
        yield f"(s{i}+1)(s{i}-q^2)=0", witness
        yield f"s{i}*s{i}^-1=1", witness
    for i in range(1, ell - 1):
        a, b = sig[i - 1], sig[i]
        yield f"braid(s{i},s{i+1})", _first_difference(a * b * a, b * a * b)
    for i in range(1, ell):
        for j in range(i + 2, ell):
            yield (f"s{i}*s{j}=s{j}*s{i}",
                   _first_difference(sig[i - 1] * sig[j - 1], sig[j - 1] * sig[i - 1]))
    if mod.kind == "Hhat":
        ys, yinvs = mod.y, mod.y_inv
        for j in range(1, ell + 1):
            yield f"y{j}*y{j}^-1=1", _first_difference(ys[j - 1] * yinvs[j - 1], eye)
        for j in range(1, ell + 1):
            for k in range(j + 1, ell + 1):
                yield (f"y{j}*y{k}=y{k}*y{j}",
                       _first_difference(ys[j - 1] * ys[k - 1], ys[k - 1] * ys[j - 1]))
        for i in range(1, ell):
            for j in range(1, ell + 1):
                if j in (i, i + 1):
                    continue
                yield (f"y{j}*s{i}=s{i}*y{j}",
                       _first_difference(ys[j - 1] * sig[i - 1], sig[i - 1] * ys[j - 1]))
        for i in range(1, ell):
            yield (f"s{i}*y{i}*s{i}=q^2*y{i+1}",
                   _first_difference(sig[i - 1] * ys[i - 1] * sig[i - 1], ys[i].scale(q2)))


def verify_module_relations(mod: RightModule) -> RelationReport:
    """Check every defining relation of the (affine) Hecke algebra on mod."""
    return RelationReport.of(_module_relations(mod))


# ---------------------------------------------------------------------------
# Module constructions
# ---------------------------------------------------------------------------


def hecke_regular_module(ctx: ScalarContext, ell: int) -> RightModule:
    """The right regular representation of H_ell(q^2) on the sigma_w basis."""
    perms = all_perms(ell)
    index = {w: k for k, w in enumerate(perms)}
    sigma = [
        Matrix(ctx, len(perms), len(perms), [
            {index[u]: c for u, c in HeckeElt.basis(ctx, w).times_sigma(i).terms.items()}
            for w in perms
        ])
        for i in range(1, ell)
    ]
    labels = [w.one_line() for w in perms]
    return RightModule(ctx, "H", ell, len(perms), sigma, labels=labels)


def universal_module(ctx: ScalarContext, avec) -> RightModule:
    """The universal module M_a: quotient by the right ideal (y_j - a_j).

    Dimension ell! with basis the images of the sigma_w; the sigma action is
    right regular, and y_j acts by straightening sigma_w y_j and substituting
    y^alpha -> a^alpha.
    """
    avec = [a if isinstance(a, Scalar) else ctx.scalar(a) for a in avec]
    if any(a.is_zero() for a in avec):
        raise ValueError("universal module needs nonzero parameters")
    ell = len(avec)
    reg = hecke_regular_module(ctx, ell)
    perms = all_perms(ell)
    index = {w: k for k, w in enumerate(perms)}

    def y_matrix(j, s):
        m = Matrix.zero(ctx, len(perms), len(perms))
        for k, w in enumerate(perms):
            nf = _sigma_word_times_y(ctx, w, j, s)
            for (alpha, u), c in nf.terms.items():
                val = c
                for a, av in zip(alpha, avec):
                    if a:
                        val = val * av ** a
                m.add_to_entry(k, index[u], val)
        return m

    y = [y_matrix(j, 1) for j in range(1, ell + 1)]
    y_inv = [y_matrix(j, -1) for j in range(1, ell + 1)]
    return RightModule(
        ctx, "Hhat", ell, len(perms), reg.sigma, y, y_inv, labels=reg.labels
    )


def _induced_generator(M1: RightModule, M2: RightModule, reps, rep_index, gen):
    """Action matrix of one generator on the induced module basis.

    gen is ("s", i) for sigma_i, or ("y", (j, +-1)) for y_j^{+-1} when both
    factors are affine modules.

    Basis (m1 (x) m2 (x) d_k) with flat index (r*dim2 + s)*len(reps) + k.
    sigma_{d_k} * gen is straightened; each normal-form term y^beta sigma_u
    factors as (y^beta sigma_p) * sigma_{d'} with p parabolic, and the
    parabolic/Laurent part folds into M1 (x) M2 through the block embedding.
    """
    ctx = M1.ctx
    l1, l2 = M1.ell, M2.ell
    d1, d2 = M1.dim, M2.dim
    K = len(reps)
    out = Matrix.zero(ctx, d1 * d2 * K, d1 * d2 * K)
    for k, d in enumerate(reps):
        elt = AffHeckeElt.sigma_perm(ctx, d)
        kindname, idx = gen
        if kindname == "s":
            elt = elt.times_sigma(idx)
        else:
            elt = elt.times_y(idx[0], idx[1])
        for (beta, u), c in elt.terms.items():
            p, dprime = coset_factorize(u, l1, l2)
            p1, p2 = split_parabolic(p, l1, l2)
            # y^beta sigma_p is itself a normal-form key
            a1 = M1.act_elt(AffHeckeElt(ctx, l1, {(beta[:l1], p1): ctx.one}))
            a2 = M2.act_elt(AffHeckeElt(ctx, l2, {(beta[l1:], p2): ctx.one}))
            kp = rep_index[dprime]
            for rs, row in enumerate(a1.kron(a2).rows):
                add_scaled(out.rows[rs * K + k], {rs2 * K + kp: v for rs2, v in row.items()}, c)
    return out


def zelevinsky_induce(M1: RightModule, M2: RightModule) -> RightModule:
    """The affine Zelevinsky tensor product M1 (.) M2 induced up to ell1+ell2."""
    if M1.kind != "Hhat" or M2.kind != "Hhat":
        raise ValueError("affine induction needs affine modules")
    ctx = M1.ctx
    l1, l2 = M1.ell, M2.ell
    ell = l1 + l2
    reps = min_coset_reps(l1, l2)
    rep_index = {d: k for k, d in enumerate(reps)}
    sigma = [
        _induced_generator(M1, M2, reps, rep_index, ("s", i)) for i in range(1, ell)
    ]
    y = [
        _induced_generator(M1, M2, reps, rep_index, ("y", (j, 1)))
        for j in range(1, ell + 1)
    ]
    y_inv = [
        _induced_generator(M1, M2, reps, rep_index, ("y", (j, -1)))
        for j in range(1, ell + 1)
    ]
    return RightModule(ctx, "Hhat", ell, M1.dim * M2.dim * len(reps), sigma, y, y_inv)


def cherednik_pullback(M: RightModule, a) -> RightModule:
    """Pull a finite Hecke module back to the affine algebra at parameter a.

    y_j acts by a L_j and y_j^-1 by a^-1 L_j^-1, with L_j the Jucys-Murphy
    elements (``jucys_murphy``); the sigma action is untouched.
    """
    ctx = M.ctx
    if not isinstance(a, Scalar):
        a = ctx.scalar(a)
    if a.is_zero():
        raise ValueError("evaluation parameter must be nonzero")
    if M.kind != "H":
        raise ValueError("pullback starts from a finite Hecke module")
    y = [L.scale(a) for L in jucys_murphy(M.dim, M.sigma, ctx.q_power(-2))]
    sigma_inv = [M.sigma_inv(i) for i in range(1, M.ell)]
    y_inv = [L.scale(a.inverse()) for L in jucys_murphy(M.dim, sigma_inv, ctx.q_power(2))]
    return RightModule(ctx, "Hhat", M.ell, M.dim, M.sigma, y, y_inv, labels=M.labels)


def jucys_murphy(dim: int, sigmas, c: Scalar):
    """L_1 = 1, L_2, ... with L_{j+1} = c sigma_j L_j sigma_j, one at a time.

    For the right-action matrices of the sigma_j and c = q^-2 these are the
    Jucys-Murphy elements L_j = q^(-2(j-1)) sigma_{j-1} ... sigma_1 sigma_1
    ... sigma_{j-1}; for the sigma_j^-1 and c = q^2 they are their inverses.
    """
    L = Matrix.identity(c.ctx, dim)
    yield L
    for s in sigmas:
        L = (s * L * s).scale(c)
        yield L


def one_dimensional_module(ctx: ScalarContext, ell: int, sigma_value) -> RightModule:
    """The 1-dim H_ell module sigma_i -> sigma_value (q^2 or -1)."""
    if not isinstance(sigma_value, Scalar):
        sigma_value = ctx.scalar(sigma_value)
    m = Matrix(ctx, 1, 1)
    m.set_entry(0, 0, sigma_value)
    return RightModule(ctx, "H", ell, 1, [m.copy() for _ in range(ell - 1)])


def one_dimensional_affine_module(ctx: ScalarContext, yvals) -> RightModule:
    """The 1-dim affine module of H_1 extensions: ell = len(yvals) must be 1."""
    if len(yvals) != 1:
        raise ValueError("only ell = 1 has unconstrained 1-dim affine modules")
    a = yvals[0] if isinstance(yvals[0], Scalar) else ctx.scalar(yvals[0])
    if a.is_zero():
        raise ValueError("y must act invertibly")
    y = Matrix(ctx, 1, 1)
    y.set_entry(0, 0, a)
    yi = Matrix(ctx, 1, 1)
    yi.set_entry(0, 0, a.inverse())
    return RightModule(ctx, "Hhat", 1, 1, [], [y], [yi])
