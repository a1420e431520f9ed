"""Jimbo's functor by the generic quotient, kept as the tests' reference.

J(M) is M (x) V^(x ell) modulo the span of m.sigma_i (x) v - m (x) Rcheck_i v,
eliminated over the whole ambient space of dimension dim M * (n+1)^ell, and
every generator is lifted into that space as a Kronecker product.  The
library builds the same functor on one copy of M per sorted tensor; the
tests compare the two by isomorphism, and the golden digests recorded on
this construction's basis are asserted against it.

``reference_lift`` and ``reference_ambient_operator`` are the block
construction with a bubble sort on every call, one sigma_p at a time; the
library's memoized sort and the matrix of its images must agree with them
entry for entry.  The reference matrices reach ``SubspaceBasis.descend``
through their columns, as the rows of their transposes.
"""

from dataclasses import dataclass, replace

from qschur.affine_hecke import RightModule
from qschur.linalg import Matrix, SubspaceBasis, add_scaled
from qschur.uq_rep import JimboImage, UqModule, _tensor_index, natural_rep, rcheck_i, tensor_rep
from qschur.affinization import _loop_operators


@dataclass
class ReferenceImage:
    module: UqModule
    source: RightModule
    base: UqModule             # the natural module V
    relations: SubspaceBasis   # span of m.sigma_i (x) v - m (x) Rcheck_i v

    def push_tensor_operator(self, op: Matrix) -> Matrix:
        """Induced action on the quotient of 1_M (x) op."""
        eye = Matrix.identity(self.relations.ctx, self.source.dim)
        return self.relations.descend(eye.kron(op).transpose().rows.__getitem__)


def reference_jimbo_J(M: RightModule, n: int) -> ReferenceImage:
    ctx = M.ctx
    ell = M.ell
    V = natural_rep(ctx, n)
    T = tensor_rep(V, ell)
    D = T.dim
    rel = SubspaceBasis(ctx, M.dim * D)
    eyeM = Matrix.identity(ctx, M.dim)
    eyeT = Matrix.identity(ctx, D)
    for i in range(1, ell):
        # row (m, v) is e_m.sigma_i (x) v - e_m (x) Rcheck_i v
        gens = M.sigma[i - 1].kron(eyeT) - eyeM.kron(rcheck_i(ctx, n, ell, i).transpose())
        rel.add_all(gens.rows)
    img = ReferenceImage(module=None, source=M, base=V, relations=rel)
    push = img.push_tensor_operator
    t = [push(m) for m in T.t] if T.t is not None else None
    img.module = UqModule(ctx, n, M.dim * D - rel.dim, [push(m) for m in T.xp],
                          [push(m) for m in T.xm], [push(m) for m in T.k],
                          [push(m) for m in T.kinv], t=t)
    return img


def reference_functor_F(M: RightModule, n: int) -> UqModule:
    """F(M) with the loop operators summed as Kronecker products on the ambient."""
    ctx = M.ctx
    img = reference_jimbo_J(M.restrict_to_finite(), n)
    yplus, yminus, k0t, k0invt = _loop_operators(img)
    x0p = x0m = None
    for j in range(M.ell):
        tp = M.y[j].transpose().kron(yplus[j])
        tm = M.y_inv[j].transpose().kron(yminus[j])
        x0p = tp if x0p is None else x0p + tp
        x0m = tm if x0m is None else x0m + tm
    eyeM = Matrix.identity(ctx, M.dim)

    def push(op):
        return img.relations.descend(op.transpose().rows.__getitem__, check=True)

    return replace(img.module, x0p=push(x0p), x0m=push(x0m),
                   k0=push(eyeM.kron(k0t)), k0inv=push(eyeM.kron(k0invt)))


def reference_lift(img: JimboImage, m: dict, u: int, c=None) -> dict:
    """The ambient vector of c.(m (x) u), bubble-sorting u on this call.

    A decreasing pair of u in slots p, p+1 is q^-1 Rcheck_p of the
    increasing pair, and m (x) Rcheck_p w = m.sigma_p (x) w, so each swap
    moves q^-1 sigma_p onto m.
    """
    d, ell = img.base.dim, img.source.ell
    word = [u // d ** (ell - 1 - s) % d for s in range(ell)]
    swaps = 0
    for top in range(ell - 1, 0, -1):
        for p in range(top):
            if word[p] > word[p + 1]:
                word[p], word[p + 1] = word[p + 1], word[p]
                m = img.source.sigma[p].apply_row(m)
                swaps += 1
    if swaps:
        qk = img.source.ctx.q_power(-swaps)
        c = qk if c is None else c * qk
    if c is not None and not c.is_one():
        m = {j: c * x for j, x in m.items()}
    offset = img.blocks[_tensor_index(word, d)] * img.source.dim
    return {offset + j: x for j, x in m.items()}


def reference_ambient_operator(img: JimboImage, terms) -> Matrix:
    """sum (A (x) X) over terms on the block ambient, lifting row by row."""
    ctx, dim = img.source.ctx, img.source.dim
    cols = []
    for e in img.blocks:
        reads = [(A, [(u, r[e]) for u, r in enumerate(X.rows) if e in r]) for A, X in terms]
        for m in range(dim):
            acc: dict = {}
            for A, col in reads:
                row = {m: ctx.one} if A is None else A.rows[m]
                for u, x in col:
                    add_scaled(acc, reference_lift(img, row, u, x))
            cols.append(acc)
    return Matrix(ctx, len(cols), len(cols), cols).transpose()
