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

Jimbo's functor J sends a right Hecke module M to M (x)_H V^(x ell).  The
weight-mu part of V^(x ell) is generated over H by the sorted tensor
e_mu = v_1^(x mu_1) (x) v_2^(x mu_2) (x) ..., and Rcheck_i e_mu = q^2 e_mu for
i inside a block of mu (Dipper-James: V^(x ell) = (+)_mu x_mu H), so
J(M) = (+)_mu M / sum_{i in mu} M(sigma_i - q^2).  ``JimboImage.relations``
keeps those rows, block by block, as a reduced basis: the quotient.
``JimboImage.lift`` sorts any m (x) u onto its block.  One push,
``JimboImage.push_ambient_operator``, takes every operator sum A (x) X
(A on M, X on V^(x ell)), so J and its affine extension push all their
generators through the same quotient.  A single diagonal 1 (x) X (the
k_i^+-1, t_r and k_0^+-1) scales each block e_mu by X[e_mu, e_mu], and the
push reads its quotient matrix off those scalars; any other sum is
descended through its images, each column built through the lift when
``descend`` asks for it (``JimboImage.image``).
Each basis tensor u is sorted once per image (``JimboImage.sort``), and V
and V^(x ell) are built once per context, n and ell and shared through
``ctx.cache``, so they are read-only.

A module's weights are read off its k_i (``UqModule.weights``), never
stored beside them, so no label can contradict the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Optional

from .linalg import Matrix, SubspaceBasis, add_scaled, column_kernel, json_int, named_matrices
from .scalars import ScalarContext
from .affine_hecke import RightModule


def _q_exponents(m: Matrix) -> Optional[list]:
    """The integer e[r] with m[r, r] == q^e[r] for every r, or None unless m
    is diagonal with powers of q on its diagonal.  ``Scalar.q_exponent``
    reads each distinct entry once, exactly on every backend."""
    diagonal = m.diagonal_entries()
    if diagonal is None:
        return None
    exps, out = {}, []
    for c in diagonal:
        e = exps.get(c)
        if e is None:
            e = exps[c] = c.q_exponent()
            if e is None:
                return None
        out.append(e)
    return out


@dataclass
class UqModule:
    """A finite-dimensional left module, stored as generator matrices.

    Matrices act on column vectors.  ``weights`` are read off the k_i: the
    weight of basis vector r is the tuple of exponents m with
    k_i[r, r] == q^m.  Every construction here keeps the k_i diagonal, so
    they are defined, and since they are not stored beside the matrices no
    wrong label can change a verdict.
    """

    ctx: ScalarContext
    n: int
    dim: int
    xp: list  # x_i^+, index i-1
    xm: list
    k: list
    kinv: list
    t: Optional[list] = None  # t_r, index r-1, r = 1..n+1
    x0p: Optional[Matrix] = None
    x0m: Optional[Matrix] = None
    k0: Optional[Matrix] = None
    k0inv: Optional[Matrix] = None
    # loop operators of the natural module, set by natural_rep only: metadata
    # that to_json does not write, so it takes no part in ==
    xtheta_p: Optional[Matrix] = field(default=None, compare=False, repr=False)
    xtheta_m: Optional[Matrix] = field(default=None, compare=False, repr=False)
    ktheta: Optional[Matrix] = field(default=None, compare=False, repr=False)
    # the Jimbo quotient a module built by affinization.functor_F lives on
    jimbo: Optional["JimboImage"] = field(default=None, compare=False, repr=False)

    def is_affine(self) -> bool:
        return self.x0p is not None

    @cached_property
    def weights(self) -> Optional[list]:
        """The weight of each basis vector, or None unless every k_i is
        diagonal with q-power entries (``_q_exponents``).  Read once and
        cached, so the k_i must not be changed in place afterwards."""
        exps = [_q_exponents(k) for k in self.k]
        return None if None in exps else list(zip(*exps))

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
    def from_generators(ctx, n: int, dim: int, gens: dict) -> "UqModule":
        """The module acting by ``gens``, a {name: Matrix} dict as generators() returns.

        Raises KeyError naming a missing generator (the loop generators and
        the t_r may only be absent as a whole), and ValueError for a name
        that rank n does not define.
        """
        def family(names):
            if not any(name in gens for name in names):
                return None
            return [gens[name] for name in names]

        x0p, x0m, k0, k0inv = family(["x+0", "x-0", "k0", "k0inv"]) or [None] * 4
        finite = [[gens[fmt.format(i)] for i in range(1, n + 1)]
                  for fmt in ("x+{}", "x-{}", "k{}", "k{}inv")]
        t = family([f"t{r}" for r in range(1, n + 2)])
        mod = UqModule(ctx, n, dim, *finite, t=t, x0p=x0p, x0m=x0m, k0=k0, k0inv=k0inv)
        extra = sorted(set(gens) - set(mod.generators()))
        if extra:
            raise ValueError(f"generators {extra} are not defined at n={n}")
        return mod

    @staticmethod
    def from_json(ctx, data) -> "UqModule":
        """The module of a descriptor.  An optional ``weights`` list must
        equal the weights read off the k_i; ValueError otherwise."""
        dim, n = json_int(data["dim"], "dim"), json_int(data["n"], "n")
        if n != ctx.n:
            raise ValueError(f"n={n} does not match the rank {ctx.n}")
        weights = data.get("weights")
        if weights is not None:
            weights = [tuple(json_int(c, "a weight entry") for c in w) for w in weights]
        mod = UqModule.from_generators(ctx, n, dim, named_matrices(ctx, dim, data["generators"]))
        if weights is not None and weights != mod.weights:
            raise ValueError("the weights list differs from the weights the k_i act by")
        return mod


def fundamental_weight(n: int, i: int) -> tuple:
    """lambda_i = eps_1 + ... + eps_i: the i-th unit vector, since v_r has
    weight eps_r, +1 at coordinate r and -1 at r-1 (zero for i = n+1)."""
    return tuple(int(j == i) for j in range(1, n + 1))


def partition_weight(n: int, parts) -> tuple:
    """lambda_pi = lambda_{l_1} + ... + lambda_{l_p} for pi = (l_1, ..., l_p)."""
    out = [0] * n
    for p in parts:
        out = [a + b for a, b in zip(out, fundamental_weight(n, p))]
    return tuple(out)


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
    return UqModule(
        ctx, n, d, xp, xm, k, kinv, t=t,
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
    generators, and t_r -> t_r (x) t_r when both factors have them.
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
    t = None
    if A.t is not None and B.t is not None:
        t = [ta.kron(tb) for ta, tb in zip(A.t, B.t)]
    return UqModule(
        A.ctx, A.n, A.dim * B.dim,
        [plus(xa, xb, kb) for xa, xb, kb in zip(A.xp, B.xp, B.k)],
        [minus(xa, xb, kainv) for xa, xb, kainv in zip(A.xm, B.xm, A.kinv)],
        [ka.kron(kb) for ka, kb in zip(A.k, B.k)],
        [ka.kron(kb) for ka, kb in zip(A.kinv, B.kinv)],
        t=t, **loop,
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
    eye = Matrix.identity(ctx, n + 1)
    return kron_chain([eye] * (i - 1) + [rcheck(ctx, n)] + [eye] * (ell - i - 1))


def _tensor_index(word, d: int) -> int:
    """Index in V^(x ell) of v_{word[0]+1} (x) v_{word[1]+1} (x) ..."""
    return sum(r * d ** k for k, r in enumerate(reversed(word)))


@dataclass
class JimboImage:
    """J(M) as a quotient of the block ambient (+)_mu M.

    Block b holds m (x) e_mu for the b-th sorted tensor e_mu, at ambient index
    b * dim M + m.  Rcheck_i e_mu = q^2 e_mu for i inside a block of mu, so the
    relations are the rows of sigma_i - q^2 in block b for every such i.
    Every relation row lies inside one block, which is asserted on
    construction (and so by ``dataclasses.replace``): it makes any block
    scalar preserve the relations, so a diagonal push needs no check.
    ``tensor`` and ``base`` are shared by every image of one context, n and
    ell, so they are read-only.
    """

    module: UqModule
    source: RightModule
    tensor: UqModule           # V^(x ell) with its action; shared, read-only
    base: UqModule             # the natural module V; shared, read-only
    blocks: dict               # index of e_mu in V^(x ell) -> its block, in index order
    relations: SubspaceBasis   # in each block mu, the rows of sigma_i - q^2
    # basis tensor u -> sort(u), filled on first use: each u is sorted once
    sorts: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        dim = self.source.dim
        if any(min(row) // dim != max(row) // dim for row in self.relations.pivots.values()):
            raise ValueError("a relation row leaves its block")

    def sort(self, u: int) -> tuple:
        """(offset, q^-k or None, P_u or None) for a basis tensor u, memoized.

        A decreasing pair of u in slots p, p+1 is q^-1 Rcheck_p of the
        increasing pair, and m (x) Rcheck_p w = m.sigma_p (x) w, so a bubble
        sort of u with k swaps in slots p_1, ..., p_k gives
        m (x) u = q^-k m.P_u (x) e_mu with P_u = sigma_{p_1} ... sigma_{p_k}.
        offset is the ambient index of e_mu's block; None stands for k = 0.
        """
        hit = self.sorts.get(u)
        if hit is None:
            d, ell = self.base.dim, self.source.ell
            word = [u // d ** (ell - 1 - s) % d for s in range(ell)]
            P, swaps = None, 0
            for top in range(ell - 1, 0, -1):
                for p in range(top):
                    if word[p] > word[p + 1]:
                        word[p], word[p + 1] = word[p + 1], word[p]
                        sigma = self.source.sigma[p]
                        P = sigma if P is None else P * sigma
                        swaps += 1
            qk = self.source.ctx.q_power(-swaps) if swaps else None
            offset = self.blocks[_tensor_index(word, d)] * self.source.dim
            hit = self.sorts[u] = (offset, qk, P)
        return hit

    def lift(self, m: dict, u: int, c=None) -> dict:
        """The ambient vector of c.(m (x) u) for a basis tensor u (c = 1 if None),
        in the block of u's sorted tensor."""
        offset, qk, P = self.sort(u)
        if P is not None:
            m = P.apply_row(m)
        if qk is not None:
            c = qk if c is None else c * qk
        if c is not None and not c.is_one():
            m = {j: c * x for j, x in m.items()}
        return {offset + j: x for j, x in m.items()}

    def embed(self, m_index: int, tensor_vec: dict) -> dict:
        """Quotient coordinates of e_{m_index} (x) (tensor vector)."""
        acc: dict = {}
        for u, c in tensor_vec.items():
            add_scaled(acc, self.lift({m_index: self.source.ctx.one}, u, c))
        return self.relations.coset(acc)

    def image(self, terms):
        """The images of sum (A (x) X) over the pairs (A, X) in terms, as
        the function c -> op e_c on the block ambient that ``descend`` reads.

        A is a right-action matrix on M, or None for 1; X is an operator on
        V^(x ell) in column convention, transposed once per call, of which
        only the columns X e_mu are read.  Column m of block e_mu collects,
        for every term and every u with X[u, e_mu] != 0, the lift of
        X[u, e_mu] times (row m of A) (x) u.  Each column is built when it
        is asked for, and no ambient matrix is formed.
        """
        dim, one, tensors = self.source.dim, self.source.ctx.one, list(self.blocks)
        reads = [(A, X.transpose().rows) for A, X in terms]

        def column(c):
            b, m = divmod(c, dim)
            out: dict = {}
            for A, Xt in reads:
                row = {m: one} if A is None else A.rows[m]
                for u, x in Xt[tensors[b]].items():
                    add_scaled(out, self.lift(row, u, x))
            return out
        return column

    def push_ambient_operator(self, terms) -> Matrix:
        """The quotient matrix of sum (A (x) X) over the pairs (A, X) in terms.

        A lone term (None, X) with X diagonal scales block e_mu by
        X[e_mu, e_mu] (m (x) e_mu is sorted), and a free column is its own
        class, so its diagonal matrix is read off those scalars: the
        relations stay inside their blocks, so a block scalar preserves
        them.  Any other sum is descended through its images (``image``).
        A sum of terms 1 (x) X, X a U_q-operator, commutes with every
        Rcheck_i and so preserves the relations, and only its free columns
        are built; a sum with a term acting on M is certified on every call
        and raises ValueError if it does not carry the relations into
        themselves.
        """
        if len(terms) == 1:
            (A, X), = terms
            if A is None and (diagonal := X.diagonal_entries()) is not None:
                dim = self.source.dim
                scalars = [diagonal[e] for e in self.blocks]
                return Matrix.diagonal(
                    self.source.ctx, [scalars[c // dim] for c in self.relations.free_columns()])
        return self.relations.descend(self.image(terms),
                                      check=any(A is not None for A, _ in terms))


def _tensor_power(ctx: ScalarContext, n: int, ell: int) -> tuple:
    """(V, V^(x ell)), built once per context, n and ell and shared: read-only.

    The rank is checked before the cache is read, so a mismatched n never
    reaches it.
    """
    if n != ctx.n:
        raise ValueError("rank must match the scalar context")
    key = ("tensor_power", n, ell)
    hit = ctx.cache.get(key)
    if hit is None:
        V = natural_rep(ctx, n)
        hit = ctx.cache[key] = (V, tensor_rep(V, ell))
    return hit


def jimbo_J(M: RightModule, n: int) -> JimboImage:
    """Jimbo's functor: M (x)_{H_ell} V^(x ell) with the induced U_q action."""
    ctx = M.ctx
    V, T = _tensor_power(ctx, n, M.ell)
    words = list(combinations_with_replacement(range(V.dim), M.ell))
    rel = SubspaceBasis(ctx, len(words) * M.dim)
    q2 = Matrix.identity(ctx, M.dim).scale(ctx.q_power(2))
    kernels = [(s - q2).rows for s in M.sigma]
    for b, word in enumerate(words):
        for p in range(M.ell - 1):
            if word[p] == word[p + 1]:
                rel.add_all({b * M.dim + j: x for j, x in row.items()} for row in kernels[p])
    blocks = {_tensor_index(word, V.dim): b for b, word in enumerate(words)}
    img = JimboImage(module=None, source=M, tensor=T, base=V, blocks=blocks, relations=rel)
    xp, xm, k, kinv, t = ([img.push_ambient_operator([(None, X)]) for X in ops]
                          for ops in (T.xp, T.xm, T.k, T.kinv, T.t))
    img.module = UqModule(ctx, n, rel.ambient - rel.dim, xp, xm, k, kinv, t=t)
    return img


# ---------------------------------------------------------------------------
# Weight tools
# ---------------------------------------------------------------------------


def weight_decomposition(W: UqModule) -> dict:
    """Partition of the basis indices by weight."""
    if W.weights is None:
        raise ValueError("the k_i are not diagonal with q-power entries")
    out: dict[tuple, list] = {}
    for i, w in enumerate(W.weights):
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
