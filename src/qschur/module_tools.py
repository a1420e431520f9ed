"""Generic exact-field module algorithms.

Submodule spinning, sub- and quotient modules on a stable subspace, a
Meataxe-style irreducibility decision with checkable certificates,
isomorphism testing, and characters.  Irreducibility samples nothing:
Norton's test runs on eigenspaces whose eigenvalues are known in advance
(``ModuleView.eigenspaces``), then the density test.  Every spin of a
module whose weight family is diagonal is weight-graded (``spin``): it
never forms a product that provably cannot grow the span, so it returns
the same subspace with fewer products.  Isomorphism of
U_q-modules whose weights are known is decided by Parker's standard basis,
spun over A and B together in one weight-graded pass: a weight line that
generates A leaves one candidate intertwiner, which is checked exactly.
Other pairs solve the Hom space, whose few sampled combinations come from a
random.Random(0) of the call's own.  So every decision depends only on its
modules, and every verdict is backed by a certificate that can be
re-checked with plain linear algebra.

Every algorithm reads a module through its ``ModuleView``, the one place
that tells right Hecke modules from left U_q-modules.  The view transposes
the latter's matrices (invariant subspaces are unchanged), all but the
diagonal ones, which are their own transposes and are shared, so one
right-action code path serves both species.  A U_q-module's weights, which
choose the standard basis's lines and restrict the unknowns of a Hom solve,
are read off its k_i, so no wrong label can change an isomorphism verdict
either.
"""

from __future__ import annotations

import random
from functools import cached_property
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
    ``diagonals`` hold each one's diagonal entries, None if it has others;
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
        self._own = list(gens.values())
        self.diagonals = [m.diagonal_entries() for m in self._own]
        self.mats = [m if d is not None else self.native(m)
                     for m, d in zip(self._own, self.diagonals)]
        self._gradings: dict = {}
        if self._left:
            self.signature = ("Uq-affine" if mod.is_affine() else "Uq", mod.n)
            self.weights = mod.weights
        else:
            self.signature = (mod.kind, mod.ell)
            self.weights = None
        self.algebra_names = [k for k in self.names if not k.startswith("t")]

    def native(self, m: Matrix) -> Matrix:
        """A right-action matrix in the species' own convention, and back.
        A diagonal matrix is its own transpose and comes back unchanged, so
        the view shares a U_q-module's k_i, k_i^-1 and t_r read-only."""
        return m.transpose() if self._left and m.diagonal_entries() is None else m

    @cached_property
    def transposes(self) -> list:
        """The transposes of mats, for the dual spin: a U_q-module's own
        matrices, else made once."""
        return self._own if self._left else [m.transpose() for m in self.mats]

    def grading(self, dual: bool = False) -> Optional["_Grading"]:
        """The weight grading spin skips products by, for mats or (dual)
        their transposes: None unless the weight family (_weights) is
        diagonal, and then its generators rescale each weight vector.
        Built once per view and direction."""
        if dual not in self._gradings:
            family, weights, diagonal = self._weights
            mats = self.transposes if dual else self.mats
            self._gradings[dual] = _Grading(weights, mats, family) if family and diagonal else None
        return self._gradings[dual]

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
        module, the weight spaces (_weights), lines first and ties in the
        order their weights first occur, then the Jucys-Murphy spaces.  The
        weight spaces of a diagonal family are the groups of indices that
        share a weight, as unit vectors; a triangular one solves for them.
        """
        ctx, dim = self.ctx, self.dim
        eye = Matrix.identity(ctx, dim)

        def kernels(thetas):
            return (column_kernel(_stack([t.transpose() for t in thetas])),
                    lambda: column_kernel(_stack(thetas)))

        sigmas = [] if self._left else [m for k, m in zip(self.names, self.mats) if k[0] == "s"]
        for s in sigmas:
            for theta in (s + eye, s - eye.scale(ctx.q_power(2))):
                yield kernels([theta])
        family, weights, diagonal = self._weights
        groups: dict = {}
        for i, w in enumerate(weights):
            groups.setdefault(w, []).append(i)
        for w, group in sorted(groups.items(), key=lambda g: len(g[1])):  # lines first
            if diagonal:
                units = [{i: ctx.one} for i in group]
                yield units, lambda units=units: units
            else:
                yield kernels([self.mats[g] - eye.scale(c) for g, c in zip(family, w)])
        for thetas, basis in self._jucys_murphy_spaces(sigmas):
            yield basis.rows, lambda thetas=thetas: column_kernel(_stack(thetas))

    @cached_property
    def _weights(self) -> tuple:
        """(family, weights, diagonal): the indices of commuting generators
        whose eigenvalues are their diagonal entries, the y_j^(+-1) of a
        Hecke module if all are lower or all upper triangular, else the
        diagonal ones (the k_i and t_r of a U_q-module); the tuple of the
        family's diagonal entries at each index, its weight ([] for an empty
        family); and whether the family is diagonal."""
        ys = [g for g, k in enumerate(self.names) if k[0] == "y"]
        family = ys if ys and any(all(_triangular(self.mats[g], lo) for g in ys)
                                  for lo in (True, False)) \
            else [g for g, d in enumerate(self.diagonals) if d is not None]
        weights = [tuple(self.mats[g].entry(i, i) for g in family)
                   for i in range(self.dim if family else 0)]
        return family, weights, all(self.diagonals[g] is not None for g in family)

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


class _Grading:
    """Which products of a weight vector cannot grow a spun subspace.

    Each distinct entry of ``weights`` becomes a small int label, and a
    weight vector is one whose support carries a single label.  ``mult``
    counts the indices of each label; ``reach[g]`` maps a label to the
    labels mats[g] can carry it to, read off its nonzero pattern.  A
    generator whose index is in ``rescales`` reaches nothing: it only
    rescales a weight vector.
    """

    def __init__(self, weights, mats, rescales=()):
        ids: dict = {}
        self.labels = labels = [ids.setdefault(w, len(ids)) for w in weights]
        self.mult = [0] * len(ids)
        for lab in labels:
            self.mult[lab] += 1
        self.reach = []
        for g, m in enumerate(mats):
            to: dict = {}
            if g not in rescales:
                for r, row in enumerate(m.rows):
                    if row:
                        to.setdefault(labels[r], set()).update(labels[c] for c in row)
            self.reach.append({lab: tuple(ts) for lab, ts in to.items()})

    def count(self, v, room: list) -> Optional[int]:
        """The label of a nonzero weight vector v, counted off room (below),
        or None for any other vector."""
        labels = self.labels
        cols = iter(v)
        lab = labels[next(cols)]
        if any(labels[c] != lab for c in cols):
            return None
        room[lab] -= 1
        return lab

    def futile(self, g: int, lab: Optional[int], room: list) -> bool:
        """Whether mats[g] times a weight vector of label lab lies in the
        span: every label it reaches is full.  room[t] starts at mult[t] and
        counts the weight vectors of label t that grow the span; they are
        independent, so at room[t] = 0 they span its weight space."""
        return lab is not None and not any(room[t] for t in self.reach[g].get(lab, ()))


def spin(ctx: ScalarContext, ambient: int, mats, vectors,
         grading: Optional[_Grading] = None) -> SubspaceBasis:
    """Smallest subspace containing the vectors and stable under all mats.

    Right-action convention: a vector v grows the space by v * M.  Each
    vector that grew the space is multiplied by every matrix once.  With a
    grading (ModuleView.grading) a weight vector skips two kinds of product,
    both exact: (a) a generator of the diagonal weight family, which only
    rescales it; (b) a matrix whose every reachable weight space is full,
    since those spaces lie in the span (_Grading.futile).  Other vectors
    are multiplied by every matrix.  The basis is kept in RREF, so the
    result equals the ungraded spin's.
    """
    basis = SubspaceBasis(ctx, ambient)
    room = list(grading.mult) if grading else []
    grown: list = []  # (vector, its label or None), in the order they grew the span

    def keep(w):
        grown.append((w, grading.count(w, room) if grading else None))

    for v in vectors:
        if basis.add(v):
            keep(v)
    for v, lab in grown:  # the list grows while it is walked
        for g, m in enumerate(mats):
            if lab is not None and grading.futile(g, lab, room):
                continue
            w = m.apply_row(v)
            if basis.add(w):
                keep(w)
    return basis


def spin_module(mod, vector) -> SubspaceBasis:
    view = ModuleView(mod)
    return spin(view.ctx, view.dim, view.mats, [vector], view.grading())


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
            sub = spin(ctx, dim, mats, [v], view.grading())
            if sub.dim < dim:
                return ("reducible", v, sub)
        if len(ker) == 1:
            dker = dual()
            if len(dker) == 1:
                dsub = spin(ctx, dim, view.transposes, [dker[0]], view.grading(dual=True))
                if dsub.dim < dim:
                    # the annihilator of a dual submodule is a submodule
                    gen = _annihilator(ctx, dim, dsub).rows()[0]
                    return ("reducible", gen, spin(ctx, dim, mats, [gen], view.grading()))
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
    """Re-check a reducibility certificate by spinning its vector, with no
    grading, so the check shares no skipped product with the decision."""
    view = ModuleView(mod)
    if len(cert["vector"]) != view.dim:
        return False
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
    When a weight line of A generates A, one weight-graded pass builds
    Parker's standard basis and the one candidate T (_standard_basis), or
    proves None when a relation of A fails in B.  T is accepted after the
    exact check on every algebra generator (_intertwines) and an
    invertibility certificate; if either fails there is no isomorphism.
    Otherwise the Hom space is solved (_hom_solve).  None is proven: the
    dimensions or weights differ, a relation breaks, the Hom space is zero,
    or it is the line of one singular map.  Only the Hom solve can run out
    of candidates; it then raises Undecided.
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
        decided, T = _standard_basis(va, vb)
        if decided:
            if T is not None and _intertwines(va, vb, T) and _is_invertible(T):
                return va.native(T)
            return None
    return _hom_solve(va, vb)


def _intertwines(va: ModuleView, vb: ModuleView, T: Matrix) -> bool:
    """ga T == T gb for every algebra generator, right-action convention.
    For diagonal ga and gb, (ga T)[r, c] = ga[r, r] T[r, c] and (T gb)[r, c]
    = T[r, c] gb[c, c], so it is checked entrywise: T must be zero wherever
    the two diagonal entries differ."""
    ga, gb = (dict(zip(v.names, zip(v.mats, v.diagonals))) for v in (va, vb))
    for k in va.algebra_names:
        (ma, da), (mb, db) = ga[k], gb[k]
        if da is not None and db is not None:
            if any(da[r] != db[c] for r, row in enumerate(T.rows) for c in row):
                return False
        elif ma * T != T * mb:
            return False
    return True


def _standard_basis(va: ModuleView, vb: ModuleView) -> tuple:
    """(decided, T): decided when a weight line of A generates A or its spin
    breaks a relation; T is then the only right-action map A -> B that can
    intertwine, or None when the spin proves that nothing does.

    A weight that occurs once labels a unit vector v of A and w of B, and an
    intertwiner sends v to a nonzero multiple of w.  The pair (v, w) is spun
    under the x's (the k_i scale weight vectors): each word gives a row
    (u, u') of one SubspaceBasis on 2 dim columns, A's first.  A row whose
    A part reduces to zero but whose B part does not is a relation of A
    that B breaks and ends the spin with None, so every pivot lies in A,
    and once the A parts span A the pivot rows are [I | T].  A product is
    skipped by spin's rule (b) on A's weights (_Grading.futile); B is not
    spun on its own, so the skipped products are why are_isomorphic
    checks T.
    """
    ctx, dim, wa, wb = va.ctx, va.dim, va.weights, vb.weights
    xs = [k for k in va.algebra_names if k[0] == "x"]
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    mats = [(ga[k], gb[k]) for k in xs]
    grading = _Grading(wa, [ma for ma, _ in mats])
    proper: list = []  # spins of weight lines that do not generate A
    for i, lab in enumerate(grading.labels):
        v = {i: ctx.one}
        if grading.mult[lab] > 1 or any(min(sub.reduce(v), default=dim) >= dim
                                        for sub in proper):
            continue
        j = wb.index(wa[i])
        pairs = SubspaceBasis(ctx, 2 * dim)
        pairs.add({i: ctx.one, dim + j: ctx.one})
        room = list(grading.mult)
        grown = [(v, {j: ctx.one}, grading.count(v, room))]
        for ua, ub, lu in grown:  # the list grows while it is walked
            for g, (ma, mb) in enumerate(mats):
                if grading.futile(g, lu, room):
                    continue
                a, b = ma.apply_row(ua), mb.apply_row(ub)
                res = pairs.reduce({**a, **{dim + c: x for c, x in b.items()}})
                if not res:
                    continue
                if min(res) >= dim:
                    return True, None
                pairs.add(res)
                grown.append((a, b, grading.count(a, room)))
        if pairs.dim < dim:
            proper.append(pairs)
            continue
        rows = [pairs.pivots[r].items() for r in range(dim)]
        return True, Matrix(ctx, dim, dim, [{c - dim: x for c, x in r if c >= dim} for r in rows])
    return False, None


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
