"""U_q(sl_{n+1}) and U_q(gl_{n+1}) acting on V and its tensor powers.

The natural (n+1)-dimensional module V carries the standard action

    x_i^+ . v_r = delta_{r,i+1} v_{r-1},   x_i^- . v_r = delta_{r,i} v_{r+1},
    k_i . v_r = q^{eps_r(i)} v_r,

together with the loop operators x_theta^+- (matrix units between v_1 and
v_{n+1}) and k_theta = k_1 ... k_n.  The gl-extension acts by
t_r . v_s = q^{delta_rs - 1/(n+1)} v_s, the unique diagonal choice with a
constant correction exponent satisfying k_i = t_i t_{i+1}^{-1} and
t_1 ... t_{n+1} = 1.

Tensor products use the coproduct (``tensor``), and tensor powers fold it:
V^(x ell) = (V^(x (ell-1))) (x) V, so x_i^+ goes to
sum_j 1^(j-1) (x) x_i^+ (x) k_i^(ell-j).

Jimbo's functor J sends a right Hecke module M to the quotient of
M (x) V^(x ell) by the span of m.sigma_i (x) v - m (x) Rcheck_i v.  The
construction keeps that span as a reduced basis (``JimboImage.relations``),
which is the quotient: quotient coordinates and induced operators come from
``SubspaceBasis.coset``/``descend``, so the affine extension pushes the
loop operators through the same quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .linalg import Matrix, SubspaceBasis, column_kernel, named_matrices
from .scalars import ScalarContext
from .affine_hecke import RightModule


@dataclass
class UqModule:
    """A finite-dimensional left module, stored as generator matrices.

    Matrices act on column vectors.  ``weights`` labels each basis vector
    with its integer weight (length n), which is available because every
    construction here keeps the k_i diagonal.
    """

    ctx: ScalarContext
    n: int
    dim: int
    xp: list  # x_i^+, index i-1
    xm: list
    k: list
    kinv: list
    weights: Optional[list] = None
    t: Optional[list] = None  # t_r, index r-1, r = 1..n+1
    x0p: Optional[Matrix] = None
    x0m: Optional[Matrix] = None
    k0: Optional[Matrix] = None
    k0inv: Optional[Matrix] = None
    # loop operators of the natural module: natural_rep and evaluation_natural
    xtheta_p: Optional[Matrix] = None
    xtheta_m: Optional[Matrix] = None
    ktheta: Optional[Matrix] = None
    # the Jimbo quotient a module built by affinization.functor_F lives on
    jimbo: Optional["JimboImage"] = field(default=None, compare=False, repr=False)

    def is_affine(self) -> bool:
        return self.x0p is not None

    def generators(self) -> dict:
        out = {}
        for i in range(1, self.n + 1):
            out[f"x+{i}"] = self.xp[i - 1]
            out[f"x-{i}"] = self.xm[i - 1]
            out[f"k{i}"] = self.k[i - 1]
            out[f"k{i}inv"] = self.kinv[i - 1]
        if self.is_affine():
            out["x+0"] = self.x0p
            out["x-0"] = self.x0m
            out["k0"] = self.k0
            out["k0inv"] = self.k0inv
        if self.t is not None:
            for r in range(1, self.n + 2):
                out[f"t{r}"] = self.t[r - 1]
        return out

    def to_json(self) -> dict:
        return {
            "algebra": "Uq-affine" if self.is_affine() else "Uq",
            "n": self.n,
            "dim": self.dim,
            "generators": {name: m.to_triplets() for name, m in self.generators().items()},
            "weights": [list(w) for w in self.weights] if self.weights else None,
        }

    @staticmethod
    def from_generators(ctx, n: int, dim: int, gens: dict, weights=None) -> "UqModule":
        """The module acting by ``gens``, a {name: Matrix} dict as generators() returns.

        Raises KeyError naming a missing generator (the loop generators and
        the t_r may only be absent as a whole), and ValueError when the
        weights do not label every basis vector with a weight of length n.
        """
        def family(names):
            if not any(name in gens for name in names):
                return None
            return [gens[name] for name in names]

        x0p, x0m, k0, k0inv = family(["x+0", "x-0", "k0", "k0inv"]) or [None] * 4
        finite = [[gens[fmt.format(i)] for i in range(1, n + 1)]
                  for fmt in ("x+{}", "x-{}", "k{}", "k{}inv")]
        t = family([f"t{r}" for r in range(1, n + 2)])
        if weights is not None and len(weights) != dim:
            raise ValueError(f"{len(weights)} weights for a module of dimension {dim}")
        if weights is not None and any(len(w) != n for w in weights):
            raise ValueError(f"a weight is not of length n={n}")
        return UqModule(ctx, n, dim, *finite, weights=weights, t=t,
                        x0p=x0p, x0m=x0m, k0=k0, k0inv=k0inv)

    @staticmethod
    def from_json(ctx, data) -> "UqModule":
        dim, n = int(data["dim"]), int(data["n"])
        if n != ctx.n:
            raise ValueError(f"n={n} does not match the rank {ctx.n}")
        weights = data.get("weights")
        return UqModule.from_generators(
            ctx, n, dim, named_matrices(ctx, dim, data["generators"]),
            weights=None if weights is None else [tuple(w) for w in weights],
        )


def epsilon_weight(ctx_n: int, r: int) -> tuple:
    """The weight eps_r of v_r as an integer vector of length n (r 1-based)."""
    out = [0] * ctx_n
    if r <= ctx_n:
        out[r - 1] += 1
    if r >= 2 and r - 1 <= ctx_n:
        out[r - 2] -= 1
    return tuple(out)


def fundamental_weight(n: int, i: int) -> tuple:
    """lambda_i = eps_1 + ... + eps_i."""
    out = [0] * n
    for j in range(1, i + 1):
        w = epsilon_weight(n, j)
        out = [a + b for a, b in zip(out, w)]
    return tuple(out)


def partition_weight(n: int, parts) -> tuple:
    """lambda_pi = lambda_{l_1} + ... + lambda_{l_p} for pi = (l_1, ..., l_p)."""
    out = [0] * n
    for p in parts:
        out = [a + b for a, b in zip(out, fundamental_weight(n, p))]
    return tuple(out)


def weight_level(weight) -> int:
    """sum of i * weight(i); equals ell on level-ell dominant weights."""
    return sum((i + 1) * w for i, w in enumerate(weight))


def natural_rep(ctx: ScalarContext, n: int) -> UqModule:
    """The natural (n+1)-dimensional module with loop-operator metadata."""
    if n != ctx.n:
        raise ValueError("rank must match the scalar context")
    d = n + 1
    one = ctx.one
    xp = []
    xm = []
    k = []
    kinv = []
    for i in range(1, n + 1):
        m = Matrix.zero(ctx, d, d)
        m.set_entry(i - 1, i, one)  # v_{i+1} -> v_i
        xp.append(m)
        m = Matrix.zero(ctx, d, d)
        m.set_entry(i, i - 1, one)  # v_i -> v_{i+1}
        xm.append(m)
        diag = []
        for r in range(1, d + 1):
            e = 1 if r == i else (-1 if r == i + 1 else 0)
            diag.append(ctx.q_power(e))
        k.append(Matrix.diagonal(ctx, diag))
        kinv.append(Matrix.diagonal(ctx, [c.inverse() for c in diag]))
    t = []
    for r in range(1, d + 1):
        diag = [
            ctx.t_power((ctx.e if r == s else 0) - 2) for s in range(1, d + 1)
        ]
        t.append(Matrix.diagonal(ctx, diag))
    xtheta_p = Matrix.zero(ctx, d, d)
    xtheta_p.set_entry(0, d - 1, one)  # v_{n+1} -> v_1
    xtheta_m = Matrix.zero(ctx, d, d)
    xtheta_m.set_entry(d - 1, 0, one)  # v_1 -> v_{n+1}
    ktheta = Matrix.diagonal(
        ctx, [ctx.q_power(1 if r == 1 else (-1 if r == d else 0)) for r in range(1, d + 1)]
    )
    weights = [epsilon_weight(n, r) for r in range(1, d + 1)]
    return UqModule(
        ctx, n, d, xp, xm, k, kinv, weights=weights, t=t,
        xtheta_p=xtheta_p, xtheta_m=xtheta_m, ktheta=ktheta,
    )


def kron_chain(factors) -> Matrix:
    out = factors[0]
    for f in factors[1:]:
        out = out.kron(f)
    return out


def tensor(A: UqModule, B: UqModule) -> UqModule:
    """The coproduct action on A (x) B.

    x_i^+ -> x_i^+ (x) k_i + 1 (x) x_i^+, x_i^- -> x_i^- (x) 1 + k_i^{-1} (x) x_i^-
    and k_i -> k_i (x) k_i, for i = 0 too when both factors carry loop
    generators; t_r -> t_r (x) t_r and weights add when both factors have them.
    """
    if A.n != B.n or A.ctx is not B.ctx:
        raise ValueError("incompatible factors")
    eA = Matrix.identity(A.ctx, A.dim)
    eB = Matrix.identity(B.ctx, B.dim)

    def plus(xa, xb, kb):
        return xa.kron(kb) + eA.kron(xb)

    def minus(xa, xb, kainv):
        return xa.kron(eB) + kainv.kron(xb)

    loop = {}
    if A.is_affine() and B.is_affine():
        loop = dict(x0p=plus(A.x0p, B.x0p, B.k0), x0m=minus(A.x0m, B.x0m, A.k0inv),
                    k0=A.k0.kron(B.k0), k0inv=A.k0inv.kron(B.k0inv))
    weights = None
    if A.weights is not None and B.weights is not None:
        weights = [tuple(x + y for x, y in zip(wa, wb)) for wa in A.weights for wb in B.weights]
    t = None
    if A.t is not None and B.t is not None:
        t = [ta.kron(tb) for ta, tb in zip(A.t, B.t)]
    return UqModule(
        A.ctx, A.n, A.dim * B.dim,
        [plus(xa, xb, kb) for xa, xb, kb in zip(A.xp, B.xp, B.k)],
        [minus(xa, xb, kainv) for xa, xb, kainv in zip(A.xm, B.xm, A.kinv)],
        [ka.kron(kb) for ka, kb in zip(A.k, B.k)],
        [ka.kron(kb) for ka, kb in zip(A.kinv, B.kinv)],
        weights=weights, t=t, **loop,
    )


def tensor_rep(base: UqModule, ell: int) -> UqModule:
    """The iterated-coproduct action on base^(x ell): ((base (x) base) (x) ...)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    out = base
    for _ in range(ell - 1):
        out = tensor(out, base)
    return out


def rcheck(ctx: ScalarContext, n: int) -> Matrix:
    """The braiding matrix on V (x) V.

    Rcheck(v_r (x) v_s) is q^2 v_r (x) v_s for r = s, q v_s (x) v_r for
    s > r, and q v_s (x) v_r + (q^2 - 1) v_r (x) v_s for r > s.
    """
    d = n + 1
    q = ctx.q
    q2 = ctx.q_power(2)
    q2m1 = q2 - ctx.one
    m = Matrix.zero(ctx, d * d, d * d)
    for r in range(1, d + 1):
        for s in range(1, d + 1):
            col = (r - 1) * d + (s - 1)
            swapped = (s - 1) * d + (r - 1)
            if r == s:
                m.set_entry(col, col, q2)
            elif s > r:
                m.set_entry(swapped, col, q)
            else:
                m.set_entry(swapped, col, q)
                m.set_entry(col, col, q2m1)
    return m


def rcheck_i(ctx: ScalarContext, n: int, ell: int, i: int) -> Matrix:
    """Rcheck acting in tensor slots i, i+1 of V^(x ell)."""
    if not 1 <= i <= ell - 1:
        raise ValueError(f"Rcheck_{i} out of range for ell={ell}")
    d = n + 1
    eye = Matrix.identity(ctx, d)
    factors = []
    j = 1
    while j <= ell:
        if j == i:
            factors.append(rcheck(ctx, n))
            j += 2
        else:
            factors.append(eye)
            j += 1
    return kron_chain(factors)


@dataclass
class JimboImage:
    """J(M) together with the quotient data needed to extend the action."""

    module: UqModule
    source: RightModule
    tensor: UqModule           # V^(x ell) with its action
    base: UqModule             # the natural module V
    relations: SubspaceBasis   # span of m.sigma_i (x) v - m (x) Rcheck_i v

    @property
    def m_dim(self) -> int:
        return self.source.dim

    def embed(self, m_index: int, tensor_vec: dict) -> dict:
        """Quotient coordinates of e_{m_index} (x) (tensor vector)."""
        D = self.tensor.dim
        return self.relations.coset({m_index * D + c: v for c, v in tensor_vec.items()})

    def push_tensor_operator(self, op: Matrix) -> Matrix:
        """Induced action on the quotient of 1_M (x) op."""
        return self.push_ambient_operator(
            Matrix.identity(self.relations.ctx, self.m_dim).kron(op)
        )

    def push_ambient_operator(self, op: Matrix, check: bool = False) -> Matrix:
        """Induced action of an ambient operator that preserves the relations."""
        return self.relations.descend(op, check=check)


def jimbo_J(M: RightModule, n: int) -> JimboImage:
    """Jimbo's functor: M (x)_{H_ell} V^(x ell) with the induced U_q action."""
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
    img = JimboImage(module=None, source=M, tensor=T, base=V, relations=rel)
    xp = [img.push_tensor_operator(T.xp[i]) for i in range(n)]
    xm = [img.push_tensor_operator(T.xm[i]) for i in range(n)]
    k = [img.push_tensor_operator(T.k[i]) for i in range(n)]
    kinv = [img.push_tensor_operator(T.kinv[i]) for i in range(n)]
    t = [img.push_tensor_operator(m) for m in T.t] if T.t is not None else None
    free = rel.free_columns()
    weights = [T.weights[c % D] for c in free]
    img.module = UqModule(ctx, n, len(free), xp, xm, k, kinv, weights=weights, t=t)
    return img


# ---------------------------------------------------------------------------
# Weight tools
# ---------------------------------------------------------------------------


def _diag_weight(ctx, W: UqModule, idx: int) -> tuple:
    out = []
    for i in range(W.n):
        c = W.k[i].entry(idx, idx)
        mono = c.as_t_monomial()
        if mono is None or mono[1] != 1 or mono[0] % ctx.e:
            raise ValueError("k action is not a plain q power; not type 1")
        out.append(mono[0] // ctx.e)
    return tuple(out)


def weight_decomposition(W: UqModule) -> dict:
    """Partition of the basis indices by weight."""
    ctx = W.ctx
    if W.weights is not None:
        labels = W.weights
    else:
        if ctx.t0 is not None:
            raise ValueError("weight extraction needs stored labels on the "
                             "specialized backend")
        labels = [_diag_weight(ctx, W, i) for i in range(W.dim)]
    out: dict[tuple, list] = {}
    for i, w in enumerate(labels):
        out.setdefault(w, []).append(i)
    return out


def highest_weight_vectors(W: UqModule) -> dict:
    """Basis of the joint kernel of the x_i^+ inside each weight space.

    Returns weight -> list of sparse column vectors.
    """
    ctx = W.ctx
    decomp = weight_decomposition(W)
    out: dict[tuple, list] = {}
    for weight, cols in decomp.items():
        stacked = Matrix(ctx, W.dim * W.n, len(cols))
        for gi in range(W.n):
            m = W.xp[gi]
            for local, c in enumerate(cols):
                for r in range(W.dim):
                    v = m.rows[r].get(c)
                    if v is not None:
                        stacked.set_entry(gi * W.dim + r, local, v)
        kern = column_kernel(stacked)
        vecs = []
        for kv in kern:
            vecs.append({cols[local]: v for local, v in kv.items()})
        if vecs:
            out[weight] = vecs
    return out


def dominant_highest_weights(W: UqModule) -> dict:
    """weight -> multiplicity of highest weight vectors (socle-of-x+ count)."""
    return {w: len(v) for w, v in highest_weight_vectors(W).items()}


@dataclass
class WeightReport:
    """Weight decomposition, highest weight vectors, and levels in one bundle."""

    decomposition: dict   # weight -> basis indices
    highest: dict         # weight -> list of highest weight vectors
    levels: dict          # highest weight -> sum of i * weight(i)

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.decomposition.values())


def weight_tools(W: UqModule) -> WeightReport:
    """One-stop weight analysis of a module with diagonal torus action."""
    hw = highest_weight_vectors(W)
    return WeightReport(
        decomposition=weight_decomposition(W),
        highest=hw,
        levels={w: weight_level(w) for w in hw},
    )
