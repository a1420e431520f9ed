"""Generic exact-field module algorithms.

Submodule spinning, sub- and quotient modules on a stable subspace, a
Meataxe-style irreducibility decision with checkable certificates,
isomorphism testing, and characters.  Irreducibility samples nothing:
Norton's test runs on eigenspaces whose eigenvalues are known in advance
(``ModuleView.eigenspaces``), then the density test.  Isomorphism of
U_q-modules whose weights are known is decided by Parker's standard basis:
a weight line that generates A leaves one candidate intertwiner, which is
checked exactly.  Other pairs solve the Hom space, whose few sampled
combinations come from a random.Random(0) of the call's own.  So every
decision depends only on its modules, and every verdict is backed by a
certificate that can be re-checked with plain linear algebra.

Every algorithm reads a module through its ``ModuleView``, the one place
that tells right Hecke modules from left U_q-modules.  The view transposes
the latter's matrices (invariant subspaces are unchanged), so one
right-action code path serves both species.  A U_q-module's weights, which
choose the standard basis's lines and restrict the unknowns of a Hom solve,
are read off its k_i, so no wrong label can change an isomorphism verdict
either.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Optional

from .affine_hecke import RightModule, jucys_murphy
from .linalg import Matrix, SubspaceBasis, add_scaled, column_kernel, left_kernel, rank, span
from .scalars import ScalarContext, parse_scalar
from .uq_rep import UqModule, weight_decomposition
from fractions import Fraction


class ModuleView:
    """A right Hecke module or a left U_q-module, seen as a right action.

    ``mats`` act on row vectors, one per generator in ``names``;
    ``signature`` is the descriptor's ``algebra`` key with ``ell`` or ``n``;
    ``weights`` are a U_q-module's, read off its k_i (None for a right
    module or when the k_i are not diagonal).  ``algebra_names`` leave out
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

    def rebuild(self, mats, dim: int):
        """The module of this species acting by the right-action mats."""
        gens = {name: self.native(m) for name, m in zip(self.names, mats)}
        algebra, size = self.signature
        if not self._left:
            return RightModule.from_generators(self.ctx, algebra, size, dim, gens)
        return UqModule.from_generators(self.ctx, size, dim, gens)

    def eigenspaces(self):
        """Common eigenspaces of commuting action-algebra elements whose
        eigenvalues are known in advance, as (vectors, dual) pairs.

        dual() spans the same eigenspace of the transposes.  A line gets
        Norton's test: a submodule meeting the generalised eigenspace meets
        the line, and one missing it is annihilated by the dual eigenspace.
        In order: the -1 and q^2 eigenspaces of each sigma_i of a Hecke
        module, the weight spaces (_weights), lines first, then the
        Jucys-Murphy spaces.
        """
        ctx, dim = self.ctx, self.dim
        eye = Matrix.identity(ctx, dim)

        def kernels(thetas):
            if all(t.diagonal_entries() is not None for t in thetas):
                # diagonal: the kernels are unit vectors, found without elimination
                units = [{i: ctx.one} for i in range(dim) if not any(t.rows[i] for t in thetas)]
                return units, lambda: units
            return (column_kernel(_stack([t.transpose() for t in thetas])),
                    lambda: column_kernel(_stack(thetas)))

        sigmas = [] if self._left else [m for k, m in zip(self.names, self.mats) if k[0] == "s"]
        for s in sigmas:
            for theta in (s + eye, s - eye.scale(ctx.q_power(2))):
                yield kernels([theta])
        family, weights = self._weights()
        for _, w in sorted(weights, key=lambda g: g[0]):  # lines first
            yield kernels([m - eye.scale(c) for m, c in zip(family, w)])
        for thetas, basis in self._jucys_murphy_spaces(sigmas):
            yield basis.rows, lambda thetas=thetas: column_kernel(_stack(thetas))

    def _weights(self) -> tuple:
        """(family, weights): commuting matrices whose eigenvalues are their
        diagonal entries, the y_j^(+-1) of a Hecke module if all are lower or
        all upper triangular, else the diagonal ones (the k_i and t_r of a
        U_q-module); each tuple w of diagonal entries as (count, w), count
        the number of indices carrying w, its generalised eigenspace's dim."""
        ys = [m for k, m in zip(self.names, self.mats) if k[0] == "y"]
        family = ys if ys and any(all(_triangular(m, lo) for m in ys) for lo in (True, False)) \
            else [m for m in self.mats if m.diagonal_entries() is not None]
        diagonals = [tuple(m.entry(i, i) for m in family)
                     for i in range(self.dim if family else 0)]
        weights: list = []
        for w in diagonals:
            if w not in weights:
                weights.append(w)
        return family, [(diagonals.count(w), w) for w in weights]

    def _jucys_murphy_spaces(self, sigmas) -> list:
        """The joint eigenspaces of L_2, ..., L_ell as (thetas, basis) pairs,
        thetas the L_j - q^(2c_j) they are the common kernel of, basis their
        rows; [] unless ell >= 3 (for ell = 2 they are the sigma_1
        eigenspaces) and they fill the module, which makes the L_j
        diagonalisable.  L_1 = 1, L_{j+1} = q^-2 sigma_j L_j sigma_j
        (``jucys_murphy``), and L_{j+1} has eigenvalues q^(2c), c the
        content of box j+1 of a standard tableau, so |c| <= j (Murphy 1983).
        """
        if len(sigmas) < 2:
            return []
        ctx, dim = self.ctx, self.dim
        eye = Matrix.identity(ctx, dim)
        spaces = [([], eye)]
        for j, L in enumerate(islice(jucys_murphy(dim, sigmas, ctx.q_power(-2)), 1, None),
                              start=1):
            refined = []
            for thetas, basis in spaces:
                for c in range(-j, j + 1):
                    theta = L - eye.scale(ctx.q_power(2 * c))
                    ker = left_kernel(basis * theta)
                    if ker:
                        coeffs = Matrix(ctx, len(ker), basis.nrows, ker)
                        refined.append((thetas + [theta], coeffs * basis))
            if sum(basis.nrows for _, basis in refined) < dim:
                return []
            spaces = refined
        return spaces


def _triangular(m: Matrix, lower: bool) -> bool:
    return all(k <= i if lower else k >= i for i, r in enumerate(m.rows) for k in r)


def _stack(mats) -> Matrix:
    rows = [r for m in mats for r in m.rows]  # the matrices one above the other
    return Matrix(mats[0].ctx, len(rows), mats[0].ncols, rows)


def spin(ctx: ScalarContext, ambient: int, mats, vectors) -> SubspaceBasis:
    """Smallest subspace containing the vectors and stable under all mats.

    Right-action convention: a vector v grows the space by v * M.  Each
    vector that grew the space is multiplied by every matrix once.
    """
    return _spin_words(ctx, ambient, mats, vectors)[0]


def _spin_words(ctx, ambient: int, mats, vectors) -> tuple:
    """The spin as (basis, grown, words): grown lists the vectors that grew
    the basis, in order, and words[k] is None for one of the given vectors,
    else (p, g) with grown[k] = grown[p] * mats[g]."""
    basis = SubspaceBasis(ctx, ambient)
    grown, words = [], []
    for v in vectors:
        if basis.add(v):
            grown.append(v)
            words.append(None)
    p = 0
    while p < len(grown):
        for g, m in enumerate(mats):
            w = m.apply_row(grown[p])
            if basis.add(w):
                grown.append(w)
                words.append((p, g))
        p += 1
    return basis, grown, words


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
    return view.rebuild(out, basis.dim)


def quotient(mod, basis: SubspaceBasis):
    """The quotient module ambient/subspace on the classes of the free unit vectors.

    With P the matrix whose row c is basis.coset(e_c), rho(g) P =
    P rho_quot(g) for a right module (transpose both sides for a UqModule).
    Each rho_quot(g) is basis.descend of the column-convention rho(g), whose
    check is that square on the pivot columns.  Raises ValueError if the
    subspace is not stable.
    """
    view = ModuleView(mod)
    try:
        out = [basis.descend(m.transpose(), check=True).transpose() for m in view.mats]
    except ValueError:
        raise ValueError("subspace is not stable under the action") from None
    return view.rebuild(out, basis.ambient - basis.dim)


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


class Undecided(RuntimeError):
    """A decision ran out of certificates with neither a proof nor a refutation."""


def _decide_irreducibility(view: ModuleView):
    """("reducible", vector, SubspaceBasis) or ("irreducible", cert dict).

    In each eigenspace the first vector whose spin is proper certifies
    reducibility; a line that spins to everything gets Norton's dual test.
    """
    ctx, dim, mats = view.ctx, view.dim, view.mats
    if dim == 0:
        raise ValueError("empty module")
    if dim == 1:
        return ("irreducible", {"kind": "dimension-one"})
    if not mats:
        # no generators: every line is a submodule
        v = {0: ctx.one}
        return ("reducible", v, span(ctx, dim, [v]))
    for ker, dual in view.eigenspaces():
        for v in ker:
            sub = spin(ctx, dim, mats, [v])
            if sub.dim < dim:
                return ("reducible", v, sub)
        if len(ker) == 1:
            dker = dual()
            if len(dker) == 1:
                dsub = spin(ctx, dim, [m.transpose() for m in mats], [dker[0]])
                if dsub.dim < dim:
                    # the annihilator of a dual submodule is a submodule
                    gen = _annihilator(ctx, dim, dsub).rows()[0]
                    return ("reducible", gen, spin(ctx, dim, mats, [gen]))
                return ("irreducible", {"kind": "norton", "nullity": 1})
    # density: the unital algebra generated by the action matrices.
    # flatten(z m) = flatten(z) (I (x) m), so spinning the flattened identity
    # under the I (x) m spans the algebra inside End as row vectors
    eye = Matrix.identity(ctx, dim)
    alg = spin(ctx, dim * dim, [eye.kron(m) for m in mats], [_flatten(eye)])
    if alg.dim == dim * dim:
        return ("irreducible", {"kind": "density", "algebra_dim": alg.dim})
    raise Undecided("irreducibility undecided: no eigenspace known in advance decides, "
                    f"and the action algebra has dimension {alg.dim} < {dim * dim}")


def is_irreducible(mod) -> tuple:
    """Decide irreducibility; returns (bool, certificate dict).

    Reducible verdicts carry a generating vector of a proper submodule.
    Irreducible verdicts are certified either by a nullity-one Norton check
    (an eigenline of ``ModuleView.eigenspaces`` and its dual line both spin
    to everything) or by the action algebra spanning the full matrix algebra
    (density), both re-checkable by direct linear algebra.  Raises Undecided
    when neither is found.
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


def _vec_json(ctx, v, dim) -> list:
    """Witness vector as a dense scalar-string array."""
    return [str(v.get(i, ctx.zero)) for i in range(dim)]


def verify_submodule_certificate(mod, cert) -> bool:
    """Re-check a reducibility certificate by spinning its vector."""
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
    """An invertible intertwiner between A and B, or None if there is none.

    For right modules the result T satisfies rho_A(g) T = T rho_B(g) (row
    convention); for left modules T rho_A(g) = rho_B(g) T (column
    convention), i.e. T carries A-coordinates to B-coordinates either way.
    When a weight line of A generates A, Parker's standard basis gives the
    one candidate (_standard_basis): it is accepted after the exact check on
    every algebra generator and an invertibility certificate, and if either
    fails there is no isomorphism.  Otherwise the Hom space is solved
    (_hom_solve).  None is proven: the dimensions or weights differ, the
    Hom space is zero, or it is the line of one singular map.  Only the Hom
    solve can run out of candidates; it then raises Undecided.
    """
    va, vb = ModuleView(A), ModuleView(B)
    if va.signature != vb.signature:
        raise ValueError("modules over different algebras")
    if va.dim != vb.dim:
        return None
    wa, wb = va.weights, vb.weights
    if wa is not None and wb is not None:
        if sorted(wa) != sorted(wb):
            return None
        T = _standard_basis(va, vb)
        if T is not None:
            ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
            if all(ga[k] * T == T * gb[k] for k in va.algebra_names) and _is_invertible(T):
                return va.native(T)
            return None
    return _hom_solve(va, vb)


def _standard_basis(va: ModuleView, vb: ModuleView) -> Optional[Matrix]:
    """The only right-action map T: A -> B that can intertwine, or None if
    no weight line of A generates A.

    A weight that occurs once labels a unit vector v of A and w of B, and an
    intertwiner sends v into the line of w.  If v generates A, an
    intertwiner is fixed by that multiple: spin v in A, replay the same
    words from w in B, and T solves S_A T = S_B for the stacked words.  The
    k_i scale every weight vector, so only the x's can grow the spin.
    """
    ctx, dim, wa, wb = va.ctx, va.dim, va.weights, vb.weights
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    xs = [k for k in va.algebra_names if k[0] == "x"]
    proper: list = []  # spins of weight lines that do not generate A
    for i, w in enumerate(wa):
        v = {i: ctx.one}
        if wa.count(w) > 1 or any(not sub.reduce(v) for sub in proper):
            continue
        sub, grown, words = _spin_words(ctx, dim, [ga[k] for k in xs], [v])
        if sub.dim < dim:
            proper.append(sub)
            continue
        images = [{wb.index(w): ctx.one}]
        for p, g in words[1:]:
            images.append(gb[xs[g]].apply_row(images[p]))
        # row reduction takes [S_A | S_B] to [I | T]
        stacked = span(ctx, 2 * dim, ({**u, **{dim + c: x for c, x in im.items()}}
                                      for u, im in zip(grown, images)))
        rows = [stacked.pivots[r].items() for r in range(dim)]
        return Matrix(ctx, dim, dim, [{c - dim: x for c, x in r if c >= dim} for r in rows])
    return None


def _hom_solve(va: ModuleView, vb: ModuleView) -> Optional[Matrix]:
    """are_isomorphic by a basis of the weight-respecting Hom space.

    Up to ISO_MAX_TRIES candidates are tried: the Hom-space basis, then, if
    it has two or more elements, small combinations drawn from
    random.Random(0).  Invertibility is certified by full rank, checked
    cheaply at a specialization point first and symbolically as a fallback.
    """
    ctx, da, db = va.ctx, va.dim, vb.dim
    wa, wb = va.weights, vb.weights
    # the solve finds X with X ga^T = gb^T X for the right-action ga, gb;
    # X^T is then the right-action intertwiner ga X^T = X^T gb
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    pairs = [(ga[k].transpose(), gb[k].transpose()) for k in va.algebra_names]
    if wa is not None and wb is not None:
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
    if len(sols) == 1:
        return None
    raise Undecided(
        f"no invertible intertwiner among {ISO_MAX_TRIES} candidates "
        f"in a Hom space of dimension {len(sols)}"
    )


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
