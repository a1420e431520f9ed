"""Jimbo's functor by the generic quotient, kept as the tests' reference.

J(M) is M (x) V^(x ell) modulo the span of m.sigma_i (x) v - m (x) Rcheck_i v,
eliminated over the whole ambient space of dimension dim M * (n+1)^ell, and
every generator is lifted into that space as a Kronecker product.  The
library builds the same functor on one copy of M per sorted tensor; the
tests compare the two by isomorphism, and the golden digests recorded on
this construction's basis are asserted against it.
"""

from dataclasses import dataclass, replace

from qschur.affine_hecke import RightModule
from qschur.linalg import Matrix, SubspaceBasis
from qschur.uq_rep import UqModule, natural_rep, rcheck_i, tensor_rep
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
        return self.relations.descend(eye.kron(op))


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
        return img.relations.descend(op, check=True)

    return replace(img.module, x0p=push(x0p), x0m=push(x0m),
                   k0=push(eyeM.kron(k0t)), k0inv=push(eyeM.kron(k0invt)))
