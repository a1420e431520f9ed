"""Extending Jimbo's functor to the quantum affine algebra.

Given a finite-dimensional right module M over the affine Hecke algebra, the
underlying space of the extension is J(M|_H); the loop generators act on
M (x) V^(x ell) by

    x_0^+ . (m (x) v) = sum_j  m.y_j     (x) Y_j^+ . v
    x_0^- . (m (x) v) = sum_j  m.y_j^{-1} (x) Y_j^- . v
    k_0   . (m (x) v) = m (x) (k_theta^{-1})^(x ell) . v

with Y_j^+ = 1^(j-1) (x) x_theta^- (x) (k_theta^{-1})^(ell-j) and
Y_j^- = k_theta^(j-1) (x) x_theta^+ (x) 1^(ell-j).  Only their values on
m (x) e_mu, e_mu a sorted tensor, are formed; ``JimboImage.lift`` sorts each
resulting m' (x) u back onto a block of the quotient (+)_mu M / M(sigma_i -
q^2).  x_0^+-, k_0 and k_0^-1 all go through
``JimboImage.push_ambient_operator``, the push J itself uses.  k_0 scales
block e_mu by the diagonal entry of (k_theta^{-1})^(x ell) at e_mu, so the
push reads its matrix off the block scalars, which preserve the relations
because every relation row lies in one block (``JimboImage`` asserts that
once, on construction); x_0^+- also act on M, so the push descends them
through their images on the block ambient, and rather than trusting that
they descend it asserts outright that they carry the relations into the
relations.  The full list of quantum affine defining relations is re-checked
as exact identities on every module built here.  Its k_i are diagonals of
powers of q (type 1), so the Cartan relations are decided on integer
exponents: k_i x_j k_i^-1 = q^a x_j exactly when e_k[r] + e_kinv[s] = a at
every nonzero (r, s) of x_j, with the witness the matrix products would
give, and the right side of [x_i^+, x_i^-] = (k_i - k_i^-1)/(q - q^-1) is
x_i^- x_i^+ plus (q^a - q^b)/(q - q^-1) at each (r, r), a = e_k[r] and
b = e_kinv[r].  A module with any other k_i^(+-1), from a module file say,
keeps the products.
A relation that restates another takes its witness: for a_ij = 0 the Serre
relation of (j, i) is that of (i, j) with its sides swapped, and a
bracket-Serre relation (a_ij = -1) is the Serre relation at p = 2, so it
takes the witness of the Serre entry of the same (i, j, sign).

The affine Cartan matrix is the cycle on {0, ..., n} for n >= 2; for n = 1
the two nodes are joined by a double bond (a_01 = a_10 = -2), which makes
the Serre relations quartic with [3 r]_q coefficients.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import add

from .affine_hecke import (
    RelationReport,
    RightModule,
    _first_difference,
    cherednik_pullback,
    verify_module_relations,
)
from .linalg import Matrix, add_scaled, diag_inverse
from .scalars import Scalar, ScalarContext, q_binom
from .uq_rep import JimboImage, UqModule, _q_exponents, jimbo_J, kron_chain, natural_rep, tensor


def affine_cartan(n: int) -> list:
    """The affine Cartan matrix on indices 0..n (double bond when n = 1)."""
    if n == 1:
        return [[2, -2], [-2, 2]]
    size = n + 1
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        out[i][i] = 2
        out[i][(i + 1) % size] = -1
        out[i][(i - 1) % size] = -1
    return out


def finite_cartan(n: int) -> list:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 2
        if i + 1 < n:
            out[i][i + 1] = -1
            out[i + 1][i] = -1
    return out


def _qhalf_bracket(ctx, a: Matrix, b: Matrix) -> Matrix:
    """[a, b]_{q^{1/2}} = q^{1/2} a b - q^{-1/2} b a."""
    return (a * b).scale(ctx.q_half) - (b * a).scale(ctx.q_power(Fraction(-1, 2)))


def _serre_words(pows: list, xj: Matrix, p: int) -> list:
    """The words x_i^r x_j x_i^(p-r) for r = 0..p, where pows[s] = x_i^s.

    Two products per inner word and one per end word; no identity factors.
    """
    words = [xj * pows[p]]
    for r in range(1, p):
        words.append(pows[r] * xj * pows[p - r])
    words.append(pows[p] * xj)
    return words


def _relation_suite(ctx, labels, cartan, xp, xm, k, kinv, dim):
    """Every defining relation for the given Cartan datum, as (name, witness).

    A relation stated by two matrix sides is witnessed by
    ``_first_difference``.  When every k_i^(+-1) is a diagonal of powers of
    q, with exponents e_k, e_kinv (``uq_rep._q_exponents``), the Cartan
    relations take the same witness from them: k x k^-1 = q^a x fails
    exactly at the nonzeros (r, s) of x with e_k[r] + e_kinv[s] != a, k k^-1
    = 1 is the case x = 1, a = 0, and diagonal matrices commute.  So does
    the right side of [x_i^+, x_i^-] = (k_i - k_i^-1)/(q - q^-1): it is
    x_i^- x_i^+ plus, at each (r, r), d(a, b) = (q^a - q^b)/(q - q^-1) with
    a = e_k[r], b = e_kinv[r], one product per distinct (a, b) in the suite.
    The Serre check of a pair (i, j) is made on the words
    x_i^r x_j x_i^(p-r), built from powers of x_i kept per sign only while i
    is the outer index; a word whose q-binomial is 1 is used as it is.  A
    relation that restates another takes its witness.  For a_ij = 0 (p = 1)
    the Serre relation of (j, i) is that of (i, j) with its sides swapped,
    and ``_first_difference`` is symmetric.  A bracket-Serre entry is made
    exactly for a_ij = -1, which the affine n = 1 datum (a double bond) never
    has, and takes the witness of the Serre entry of the same (i, j, sign):
    its expansion [2]_q x_i x_j x_i = x_i^2 x_j + x_j x_i^2 is the Serre
    relation at p = 2, since [2 1]_q = [2]_q and [2 2]_q = 1.
    """
    eye = Matrix.identity(ctx, dim)
    qdenom_inv = (ctx.q - ctx.q_power(-1)).inverse()
    idx = range(len(labels))
    exps = [_q_exponents(m) for m in k + kinv]
    on_exponents = None not in exps
    cartan_terms = {}  # (a, b) -> (q^a - q^b)/(q - q^-1)

    def conj(i, x, a):  # k_i x k_i^-1 = q^a x
        if not on_exponents:
            return _first_difference(k[i] * x * kinv[i], x.scale(ctx.q_power(a)))
        ek, ekinv = exps[i], exps[len(k) + i]
        for r, row in enumerate(x.rows):
            bad = [s for s in row if ek[r] + ekinv[s] != a]
            if bad:
                return r, min(bad)
        return None

    def cartan_rhs(i):  # x_i^- x_i^+ + (k_i - k_i^-1)/(q - q^-1)
        if not on_exponents:
            return xm[i] * xp[i] + (k[i] - kinv[i]).scale(qdenom_inv)
        rhs = xm[i] * xp[i]
        for r, (a, b) in enumerate(zip(exps[i], exps[len(k) + i])):
            d = cartan_terms.get((a, b))
            if d is None:
                d = cartan_terms[a, b] = (ctx.q_power(a) - ctx.q_power(b)) * qdenom_inv
            add_scaled(rhs.rows[r], {r: d})
        return rhs

    for i in idx:
        yield f"k{labels[i]}*k{labels[i]}inv=1", conj(i, eye, 0)
    for i in idx:
        for j in idx:
            if i < j:
                yield (f"k{labels[i]}*k{labels[j]} commute",
                       None if on_exponents else _first_difference(k[i] * k[j], k[j] * k[i]))
    for i in idx:
        for j in idx:
            a = cartan[i][j]
            yield (f"k{labels[i]} x+{labels[j]} k{labels[i]}inv = q^{a} x+{labels[j]}",
                   conj(i, xp[j], a))
            yield (f"k{labels[i]} x-{labels[j]} k{labels[i]}inv = q^{-a} x-{labels[j]}",
                   conj(i, xm[j], -a))
    for i in idx:
        for j in idx:
            if i == j:
                yield (f"[x+{labels[i]},x-{labels[i]}]=(k-kinv)/(q-qinv)",
                       _first_difference(xp[i] * xm[i], cartan_rhs(i)))
            else:
                yield (f"[x+{labels[i]},x-{labels[j]}]=0",
                       _first_difference(xp[i] * xm[j], xm[j] * xp[i]))
    serre = {}  # (i, j, sign) -> witness of serre(x_i, x_j)
    for i in idx:
        pows = {"+": [eye, xp[i]], "-": [eye, xm[i]]}  # pows[sign][s] = x_i^s
        for j in idx:
            if i == j:
                continue
            p = 1 - cartan[i][j]
            brackets = []
            for sign, xs in (("+", xp), ("-", xm)):
                if p == 1 and j < i:  # a_ij = 0: serre(x_j, x_i) with its sides swapped
                    witness = serre[j, i, sign]
                else:
                    xi_pows = pows[sign]
                    while len(xi_pows) <= p:
                        xi_pows.append(xi_pows[-1] * xs[i])
                    # sum_r (-1)^r [p r]_q words[r] = 0: the even words against the odd
                    terms = [w if (qb := q_binom(ctx, p, r)).is_one() else w.scale(qb)
                             for r, w in enumerate(_serre_words(xi_pows, xs[j], p))]
                    witness = serre[i, j, sign] = _first_difference(
                        reduce(add, terms[0::2]), reduce(add, terms[1::2]))
                yield f"serre(x{sign}{labels[i]},x{sign}{labels[j]})", witness
                if cartan[i][j] == -1:
                    # [x_i,[x_j,x_i]_{q^1/2}]_{q^1/2} = [2]_q x_i x_j x_i - x_i^2 x_j - x_j x_i^2,
                    # the Serre relation at p = 2: the same two sides, the same witness
                    brackets.append((f"bracket-serre [x{sign}{labels[i]},[x{sign}{labels[j]},"
                                     f"x{sign}{labels[i]}]]", witness))
            yield from brackets


def verify_finite_relations(W: UqModule) -> RelationReport:
    """Defining relations of U_q(sl_{n+1}) as exact matrix identities."""
    labels = [str(i) for i in range(1, W.n + 1)]
    return RelationReport.of(_relation_suite(
        W.ctx, labels, finite_cartan(W.n), W.xp, W.xm, W.k, W.kinv, W.dim))


def verify_affine_relations(W: UqModule) -> RelationReport:
    """The full quantum affine relation list, index set {0, ..., n}."""
    if not W.is_affine():
        raise ValueError("module has no loop generators; nothing to verify")
    labels = [str(i) for i in range(W.n + 1)]
    xp = [W.x0p] + list(W.xp)
    xm = [W.x0m] + list(W.xm)
    k = [W.k0] + list(W.k)
    kinv = [W.k0inv] + list(W.kinv)
    return RelationReport.of(
        _relation_suite(W.ctx, labels, affine_cartan(W.n), xp, xm, k, kinv, W.dim))


def verify_central_element(W: UqModule) -> bool:
    """k_0 k_1 ... k_n = identity on type-1 affine modules."""
    prod = W.k0
    for m in W.k:
        prod = prod * m
    return prod == Matrix.identity(W.ctx, W.dim)


# ---------------------------------------------------------------------------
# The functor F
# ---------------------------------------------------------------------------


def _loop_operators(img: JimboImage) -> tuple:
    """(Y_j^+ list, Y_j^- list, k0 tensor, k0inv tensor) on V^(x ell)."""
    V = img.base
    ell = img.source.ell
    eye = Matrix.identity(V.ctx, V.dim)
    kth = V.ktheta
    kthinv = diag_inverse(kth)
    yplus = []
    yminus = []
    for j in range(1, ell + 1):
        yplus.append(
            kron_chain([eye] * (j - 1) + [V.xtheta_m] + [kthinv] * (ell - j))
        )
        yminus.append(
            kron_chain([kth] * (j - 1) + [V.xtheta_p] + [eye] * (ell - j))
        )
    return yplus, yminus, kron_chain([kthinv] * ell), kron_chain([kth] * ell)


def functor_F(M: RightModule, n: int, check_source: bool = True) -> UqModule:
    """The affine extension F(M) of J(M|_H) for an affine Hecke module M.

    Raises if M fails its own defining relations, or if the loop operators
    fail to preserve the subspace defining the Jimbo quotient (they cannot,
    but the invariance is asserted rather than assumed).  The four loop
    operators are handed to ``JimboImage.push_ambient_operator``, which
    descends x_0^+- through their images on the block ambient with that check,
    and reads the diagonal k_0^+-1 off the block scalars, which need none.
    """
    if M.kind != "Hhat":
        raise ValueError("functor_F consumes affine Hecke modules")
    if check_source:
        rep = verify_module_relations(M)
        if not rep.passed:
            raise ValueError(f"source module fails relations: {rep.failures()}")
    img = jimbo_J(M.restrict_to_finite(), n)
    yplus, yminus, k0t, k0invt = _loop_operators(img)
    push = img.push_ambient_operator
    return replace(
        img.module,
        x0p=push(list(zip(M.y, yplus))),
        x0m=push(list(zip(M.y_inv, yminus))),
        k0=push([(None, k0t)]),
        k0inv=push([(None, k0invt)]),
        jimbo=img,
    )


def functor_F_map(f: Matrix, src: UqModule, dst: UqModule) -> Matrix:
    """F on morphisms: the induced map F(src source) -> F(dst source).

    ``f`` is a row-convention module map between the underlying Hecke
    modules; the result maps quotient coordinates to quotient coordinates
    (column convention).  Raises if f does not descend.
    """
    a, b = src.jimbo, dst.jimbo
    if a is None or b is None:
        raise ValueError("both modules must come from functor_F")
    def image(c):  # block k's copy of row m of f
        k, m = divmod(c, a.source.dim)
        return {k * b.source.dim + j: x for j, x in f.rows[m].items()}
    try:
        return a.relations.descend(image, b.relations, check=True)
    except ValueError:
        raise ValueError("map does not respect the defining subspaces") from None


# ---------------------------------------------------------------------------
# Evaluation modules
# ---------------------------------------------------------------------------


def evaluation_natural(ctx: ScalarContext, n: int, a) -> UqModule:
    """The natural evaluation module V(a): k_0 = k_theta^{-1}, x_0^+- = a^{+-1} x_theta^-+."""
    if not isinstance(a, Scalar):
        a = ctx.scalar(a)
    if a.is_zero():
        raise ValueError("evaluation parameter must be nonzero")
    V = natural_rep(ctx, n)
    return replace(
        V,
        x0p=V.xtheta_m.scale(a),
        x0m=V.xtheta_p.scale(a.inverse()),
        k0=diag_inverse(V.ktheta),
        k0inv=V.ktheta,
    )


def _nested_bracket(ctx, ops) -> Matrix:
    """[ops[-1], [ops[-2], ..., [ops[1], ops[0]]_{q^{1/2}} ...]_{q^{1/2}}."""
    out = ops[0]
    for op in ops[1:]:
        out = _qhalf_bracket(ctx, op, out)
    return out


def jimbo_eval_pullback(W: UqModule, a) -> UqModule:
    """Pull a type-1 gl-module back along the evaluation map at parameter a.

    x_0^+- get (+-1)^(n-1) q^(-+(n+1)/2) a^(+-1) (t_1 t_{n+1})^(+-1) times the
    nested q^(1/2)-bracket of x_n^-+, ..., x_1^-+; the finite generators are
    untouched and k_0 = (k_1 ... k_n)^{-1}.
    """
    ctx = W.ctx
    n = W.n
    if W.t is None:
        raise ValueError("evaluation pullback needs the torus operators t_r")
    if not isinstance(a, Scalar):
        a = ctx.scalar(a)
    if a.is_zero():
        raise ValueError("evaluation parameter must be nonzero")
    t1tn1 = W.t[0] * W.t[n]
    t1tn1_inv = diag_inverse(t1tn1)
    # the prefactor (+-1)^(n-1) is 1 for x_0^+ and (-1)^(n-1) for x_0^-
    sign_minus = ctx.one if (n - 1) % 2 == 0 else -ctx.one
    chain_minus = _nested_bracket(ctx, W.xm)  # innermost [x_2^-, x_1^-], outermost x_n^-
    chain_plus = _nested_bracket(ctx, W.xp)
    x0p = (t1tn1 * chain_minus).scale(
        ctx.q_power(Fraction(-(n + 1), 2)) * a
    )
    x0m = (t1tn1_inv * chain_plus).scale(
        sign_minus * ctx.q_power(Fraction(n + 1, 2)) * a.inverse()
    )
    k0 = W.kinv[0]
    for m in W.kinv[1:]:
        k0 = k0 * m
    k0inv = W.k[0]
    for m in W.k[1:]:
        k0inv = k0inv * m
    # the result is no longer the module functor_F built, if W was one
    return replace(W, x0p=x0p, x0m=x0m, k0=k0, k0inv=k0inv, jimbo=None)


def theorem55_check(M: RightModule, a, n: int):
    """Compare the two evaluation routes through the functor.

    Builds F(M(q^{-2 ell/(n+1)} a)) via the Cherednik pullback and J(M)(a)
    via the Jimbo pullback; returns (T, lhs, rhs), T the identity if the two
    act by the same matrices and None otherwise.  The pullback keeps the
    sigma action, so the Jimbo route starts from F's own J(M|_H) = J(M).
    Both routes are natural in M, so the literal identity on the regular
    module gives it for every M.
    """
    ctx = M.ctx
    if M.kind != "H":
        raise ValueError("start from a finite Hecke module")
    ell = M.ell
    if ell > n:
        raise ValueError("the comparison needs ell <= n")
    if not isinstance(a, Scalar):
        a = ctx.scalar(a)
    shift = ctx.q_power(Fraction(-2 * ell, n + 1))
    lhs = functor_F(cherednik_pullback(M, shift * a), n)
    rhs = jimbo_eval_pullback(lhs.jimbo.module, a)
    same = lhs.generators() == rhs.generators()
    return (Matrix.identity(ctx, lhs.dim) if same else None), lhs, rhs


# ---------------------------------------------------------------------------
# Tensor products of affine modules
# ---------------------------------------------------------------------------


def tensor_affine(A: UqModule, B: UqModule) -> UqModule:
    """Coproduct action on A (x) B, loop generators included."""
    if not (A.is_affine() and B.is_affine()):
        raise ValueError("both factors must be affine modules")
    return tensor(A, B)


def tensor_affine_chain(mods) -> UqModule:
    out = mods[0]
    for m in mods[1:]:
        out = tensor_affine(out, m)
    return out
