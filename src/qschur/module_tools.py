"""Generic exact-field module algorithms.

Submodule spinning, sub- and quotient modules on a stable subspace, a
Meataxe-style irreducibility decision with checkable certificates,
isomorphism testing by solving the intertwiner equations, and characters.
Every decision depends only on its modules: the few sampled choices come
from a random.Random(0) of the call's own, and every verdict is backed by a
certificate that can be re-checked with plain linear algebra.

Every algorithm reads a module through its ``ModuleView``, the one place
that tells right Hecke modules from left U_q-modules.  The view transposes
the latter's matrices (invariant subspaces are unchanged), so one
right-action code path serves both species.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from typing import Optional

from .affine_hecke import RightModule
from .linalg import Matrix, SubspaceBasis, add_scaled, column_kernel, left_kernel, rank, span
from .scalars import ScalarContext
from .uq_rep import UqModule, weight_decomposition
from fractions import Fraction


class ModuleView:
    """A right Hecke module or a left U_q-module, seen as a right action.

    ``mats`` act on row vectors, one per generator in ``names``;
    ``signature`` is the descriptor's ``algebra`` key with ``ell`` or ``n``;
    ``weights`` are a U_q-module's, else None.  ``algebra_names`` leave out
    the t_r: they act by the gl_{n+1} torus, which is not in U_q(sl_{n+1}),
    so an isomorphism need not respect them.
    """

    def __init__(self, mod):
        if not isinstance(mod, (RightModule, UqModule)):
            raise TypeError(f"not a module: {mod!r}")
        self._left = isinstance(mod, UqModule)
        gens = mod.generators()
        self.ctx, self.dim = mod.ctx, mod.dim
        self.names = list(gens)
        self.mats = [self.native(m) for m in gens.values()]
        if self._left:
            self.signature = ("Uq-affine" if mod.is_affine() else "Uq", mod.n)
            self.weights = mod.weights
        else:
            self.signature = (mod.kind, mod.ell)
            self.weights = None
        self.algebra_names = [k for k in self.names if not k.startswith("t")]

    def native(self, m: Matrix) -> Matrix:
        """A right-action matrix in the species' own convention, and back."""
        return m.transpose() if self._left else m

    def rebuild(self, mats, dim: int, columns: list):
        """The module of this species acting by the right-action mats.

        New basis vector k carries the weight of basis vector columns[k].
        """
        gens = {name: self.native(m) for name, m in zip(self.names, mats)}
        algebra, size = self.signature
        if not self._left:
            return RightModule.from_generators(self.ctx, algebra, size, dim, gens)
        weights = None if self.weights is None else [self.weights[c] for c in columns]
        return UqModule.from_generators(self.ctx, size, dim, gens, weights)


def spin(ctx: ScalarContext, ambient: int, mats, vectors) -> SubspaceBasis:
    """Smallest subspace containing the vectors and stable under all mats.

    Right-action convention: a basis row v grows the space by v * M.  The
    result is a fixed point of a full generator sweep.
    """
    basis = SubspaceBasis(ctx, ambient)
    for v in vectors:
        basis.add(v)
    changed = True
    while changed:
        changed = False
        for row in list(basis.rows()):
            for m in mats:
                if basis.add(m.apply_row(row)):
                    changed = True
    return basis


def spin_module(mod, vector) -> SubspaceBasis:
    view = ModuleView(mod)
    return spin(view.ctx, view.dim, view.mats, [vector])


def submodule(mod, basis: SubspaceBasis):
    """The submodule on a stable subspace, in the coordinates of basis.rows().

    With B the basis rows, rho(g)|_sub satisfies B rho(g) = rho_sub(g) B for
    a right module; a UqModule acts on columns, so there rho(g) B^T =
    B^T rho_sub(g).  Raises ValueError if the subspace is not stable.
    """
    view = ModuleView(mod)
    rows = basis.rows()
    out = []
    for m in view.mats:
        images = [basis.coords(m.apply_row(row)) for row in rows]
        if any(c is None for c in images):
            raise ValueError("subspace is not stable under the action")
        out.append(Matrix(view.ctx, basis.dim, basis.dim, images))
    return view.rebuild(out, basis.dim, basis.pivot_columns())


def quotient(mod, basis: SubspaceBasis):
    """The quotient module ambient/subspace on the classes of the free unit vectors.

    With P the matrix whose row c is basis.coset(e_c) (the transpose of
    basis.projection()), rho(g) P = P rho_quot(g) for a right module
    (transpose both sides for a UqModule).  Each rho_quot(g) is
    basis.descend of the column-convention rho(g).  Raises ValueError if
    the subspace is not stable.
    """
    view = ModuleView(mod)
    free = basis.free_columns()
    try:
        out = [basis.descend(m.transpose(), check=True).transpose() for m in view.mats]
    except ValueError:
        raise ValueError("subspace is not stable under the action") from None
    return view.rebuild(out, len(free), free)


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def _word_sample(ctx, mats, rng, max_len=4):
    """A random short word in the action matrices with small coefficients."""
    dim = mats[0].nrows
    z = Matrix.zero(ctx, dim, dim)
    for _ in range(rng.randint(1, 3)):
        w = Matrix.identity(ctx, dim)
        for _ in range(rng.randint(1, max_len)):
            w = w * rng.choice(mats)
        z = z + w.scale(ctx.scalar(rng.randint(-2, 2)))
    return z


def _shifts(z, eye):
    """z, then z minus each distinct diagonal entry: exact eigenvalues for the
    diagonal k's and good guesses for triangular-ish actions."""
    yield z
    seen = []
    for i in range(z.nrows):
        c = z.rows[i].get(i)
        if c is not None and all(not (c == d) for d in seen):
            seen.append(c)
            yield z - eye.scale(c)


def _theta_candidates(ctx, mats, names, rng, rounds):
    """Singular-candidate stream.

    Hecke generators are shifted by their two known eigenvalues -1 and q^2
    (forced by the quadratic relation); everything else by at most four of
    its diagonal entries (``_shifts``).  Raw generators come first, which
    catches the nilpotent raising/lowering operators immediately.
    """
    eye = Matrix.identity(ctx, mats[0].nrows)

    def shifted(z):
        return islice(_shifts(z, eye), 5)

    q2 = ctx.q_power(2)
    for name, m in zip(names, mats):
        if name.startswith("s"):
            yield m + eye
            yield m - eye.scale(q2)
    for m in mats:
        yield from shifted(m)
    for a in mats:
        for b in mats:
            yield from shifted(a * b)
    for _ in range(rounds):
        yield from shifted(_word_sample(ctx, mats, rng))


IRR_MAX_CANDIDATES = 60  # singular candidates tried before the density fallback


class Undecided(RuntimeError):
    """Irreducibility was neither certified nor refuted."""


def _kernel_split(ctx, dim, mats, theta):
    """(left kernel of theta, ("reducible", v, spin of v) for the first kernel
    vector v whose spin is proper, or None)."""
    ker = left_kernel(theta)
    if 0 < len(ker) < dim:
        for v in ker:
            sub = spin(ctx, dim, mats, [v])
            if sub.dim < dim:
                return ker, ("reducible", v, sub)
    return ker, None


def _decide_irreducibility(view: ModuleView):
    """("reducible", vector, SubspaceBasis) or ("irreducible", cert dict)."""
    ctx, dim, mats = view.ctx, view.dim, view.mats
    if dim == 0:
        raise ValueError("empty module")
    if dim == 1:
        return ("irreducible", {"kind": "dimension-one"})
    if not mats:
        # no generators: every line is a submodule
        v = {0: ctx.one}
        return ("reducible", v, span(ctx, dim, [v]))
    thetas = _theta_candidates(ctx, mats, view.names, random.Random(0), IRR_MAX_CANDIDATES)
    for theta in islice(thetas, IRR_MAX_CANDIDATES):
        ker, split = _kernel_split(ctx, dim, mats, theta)
        if split:
            return split
        if len(ker) == 1:
            dker = left_kernel(theta.transpose())
            if len(dker) == 1:
                dsub = spin(ctx, dim, [m.transpose() for m in mats], [dker[0]])
                if dsub.dim < dim:
                    # the annihilator of a dual submodule is a submodule
                    gen = _annihilator(ctx, dim, dsub).rows()[0]
                    return ("reducible", gen, spin(ctx, dim, mats, [gen]))
                return ("irreducible", {"kind": "norton", "nullity": 1})
    # density fallback: the unital algebra generated by the action matrices
    # flatten(z m) = flatten(z) (I (x) m), so spinning the flattened identity
    # under the I (x) m spans the algebra inside End as row vectors
    eye = Matrix.identity(ctx, dim)
    alg = spin(ctx, dim * dim, [eye.kron(m) for m in mats], [_flatten(eye)])
    if alg.dim == dim * dim:
        return ("irreducible", {"kind": "density", "algebra_dim": alg.dim})
    # algebra is proper: hunt kernels of algebra elements, then of shifted
    # centralizer elements (whose kernels are submodules outright)
    thetas = chain((_unflatten(ctx, dim, row) for row in alg.rows()),
                   (s for z in _centralizer_elements(view) for s in _shifts(z, eye)))
    for theta in thetas:
        _, split = _kernel_split(ctx, dim, mats, theta)
        if split:
            return split
    raise Undecided(
        f"irreducibility undecided after {IRR_MAX_CANDIDATES} singular candidates, "
        "the density test and the centralizer"
    )


def _centralizer_elements(view: ModuleView):
    """A basis of matrices commuting with the whole action, solved when first drawn."""
    ctx, dim = view.ctx, view.dim
    idx = {(r, c): r * dim + c for r in range(dim) for c in range(dim)}
    pairs = [(m, m) for m in view.mats]
    for kv in _intertwiner_kernel(ctx, pairs, dim, dim, idx):
        yield _unflatten(ctx, dim, kv)


def is_irreducible(mod) -> tuple:
    """Decide irreducibility; returns (bool, certificate dict).

    Reducible verdicts carry a generating vector of a proper submodule.
    Irreducible verdicts are certified either by a nullity-one Norton check
    (kernel vector and dual kernel vector both spin to everything) or by the
    action algebra spanning the full matrix algebra (density), both of which
    are re-checkable by direct linear algebra.  Raises Undecided when
    neither is found.
    """
    view = ModuleView(mod)
    verdict = _decide_irreducibility(view)
    if verdict[0] == "irreducible":
        return True, verdict[1]
    _, v, sub = verdict
    return False, {
        "kind": "submodule",
        "vector": _vec_json(view.ctx, v, view.dim),
        "submodule_dim": sub.dim,
    }


def proper_submodule(mod):
    """A proper nonzero submodule as a SubspaceBasis, or None if irreducible."""
    verdict = _decide_irreducibility(ModuleView(mod))
    if verdict[0] == "irreducible":
        return None
    return verdict[2]


def _annihilator(ctx, dim, basis: SubspaceBasis) -> SubspaceBasis:
    """Vectors v with <v, u> = 0 for all u in the subspace."""
    m = basis.to_matrix()
    return span(ctx, dim, column_kernel(m))


def _flatten(m: Matrix) -> dict:
    out = {}
    for i, r in enumerate(m.rows):
        for j, c in r.items():
            out[i * m.ncols + j] = c
    return out


def _unflatten(ctx, dim, row) -> Matrix:
    m = Matrix(ctx, dim, dim)
    for idx, c in row.items():
        m.set_entry(idx // dim, idx % dim, c)
    return m


def _vec_json(ctx, v, dim) -> list:
    """Witness vector as a dense scalar-string array."""
    return [str(v.get(i, ctx.zero)) for i in range(dim)]


def verify_submodule_certificate(mod, cert) -> bool:
    """Re-check a reducibility certificate by spinning its vector."""
    from .scalars import parse_scalar

    view = ModuleView(mod)
    v = {
        i: s
        for i, raw in enumerate(cert["vector"])
        if not (s := parse_scalar(view.ctx, raw)).is_zero()
    }
    sub = spin(view.ctx, view.dim, view.mats, [v])
    return 0 < sub.dim == cert["submodule_dim"] < view.dim


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


ISO_MAX_TRIES = 24  # candidate intertwiners tried for invertibility


def are_isomorphic(A, B) -> Optional[Matrix]:
    """An invertible intertwiner between A and B, or None.

    For right modules the result T satisfies rho_A(g) T = T rho_B(g) (row
    convention); for left modules T rho_A(g) = rho_B(g) T (column
    convention), i.e. T carries A-coordinates to B-coordinates either way.
    Up to ISO_MAX_TRIES candidates are tried: the Hom-space basis, then, if
    it has two or more elements, small combinations drawn from
    random.Random(0).  Invertibility is certified by full rank, checked
    cheaply at a specialization point first and symbolically as a fallback.
    None proves non-isomorphism when the Hom space is at most a line.
    """
    va, vb = ModuleView(A), ModuleView(B)
    if va.signature != vb.signature:
        raise ValueError("modules over different algebras")
    da, db = va.dim, vb.dim
    if da != db:
        return None
    ctx = va.ctx
    wa, wb = va.weights, vb.weights
    # the solve finds X with X ga^T = gb^T X for the right-action ga, gb;
    # X^T is then the right-action intertwiner ga X^T = X^T gb
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    pairs = [(ga[k].transpose(), gb[k].transpose()) for k in va.algebra_names]
    if wa is not None and wb is not None:
        if sorted(wa) != sorted(wb):
            return None
        allowed = [(r, c) for r in range(db) for c in range(da) if wb[r] == wa[c]]
    else:
        allowed = [(r, c) for r in range(db) for c in range(da)]
    idx = {rc: k for k, rc in enumerate(allowed)}
    sols = _intertwiner_kernel(ctx, pairs, db, da, idx)
    if not sols:
        return None

    def assemble(coords) -> Matrix:
        x = Matrix(ctx, db, da)
        for k, c in coords.items():
            r, cc = allowed[k]
            x.add_to_entry(r, cc, c)
        return x

    def candidates():
        yield from sols
        if len(sols) == 1:
            return  # multiples of a singular matrix are singular
        rng = random.Random(0)
        while True:
            coords = {}
            for s in sols:
                w = rng.randint(-3, 3)
                if w:
                    add_scaled(coords, s, ctx.scalar(w))
            yield coords

    for coords in islice(candidates(), ISO_MAX_TRIES):
        if coords and _is_invertible(x := assemble(coords)):
            return va.native(x.transpose())
    return None


def _intertwiner_kernel(ctx, pairs, db, da, idx) -> list:
    """Solutions X of X ga - gb X = 0 for every pair (ga, gb).

    X is db x da; idx maps each allowed position (r, c) of X to its unknown,
    and positions missing from idx are held at zero.  Returns a basis of the
    solution space as {unknown: value} dicts.
    """
    constraints = SubspaceBasis(ctx, len(idx))
    for ga, gb in pairs:
        ga_cols: dict[int, dict] = {}
        for k, row in enumerate(ga.rows):
            for c, v in row.items():
                ga_cols.setdefault(c, {})[k] = v
        for r in range(db):
            grow = gb.rows[r]
            for c in range(da):
                # (X ga)[r, c] = sum_k X[r, k] ga[k, c]; (gb X)[r, c] = sum_k gb[r, k] X[k, c]
                row = {idx[r, k]: v for k, v in ga_cols.get(c, {}).items() if (r, k) in idx}
                add_scaled(row, {idx[k, c]: -v for k, v in grow.items() if (k, c) in idx})
                if row:
                    constraints.add(row)
    return column_kernel(constraints.to_matrix())


def _is_invertible(m: Matrix) -> bool:
    if m.nrows != m.ncols:
        return False
    if m.ctx.t0 is None:
        for point in (Fraction(7, 5), Fraction(-3, 2), Fraction(11, 4)):
            at = ScalarContext(m.ctx.n, t0=point)
            try:
                rows = [{j: v for j, c in row.items() if (v := at.scalar(c.specialize(point)))}
                        for row in m.rows]
            except ZeroDivisionError:
                continue
            if rank(Matrix(at, m.nrows, m.ncols, rows)) == m.nrows:
                return True
        # a vanishing determinant at sample points is only suggestive;
        # settle it symbolically
    return rank(m) == m.nrows


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def character(W) -> dict:
    """Weight multiplicity table of a quantum group module."""
    if not isinstance(W, UqModule):
        raise ValueError("character needs a U_q-module")
    return {w: len(basis) for w, basis in weight_decomposition(W).items()}
