from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qschur import module_tools
from qschur.affine_hecke import (
    RightModule,
    one_dimensional_affine_module,
    one_dimensional_module,
    universal_module,
    zelevinsky_induce,
)
from qschur.affinization import evaluation_natural, functor_F, tensor_affine_chain
from qschur.classification import (
    finite_ideal_module,
    ideal_I_pi,
    irreducible_V_a,
    make_segments,
    parse_segments,
    rogawski_quotient,
)
from qschur.linalg import Matrix, rank, span
from qschur.module_tools import (
    are_isomorphic,
    character,
    is_irreducible,
    proper_submodule,
    quotient,
    spin_module,
    submodule,
    verify_submodule_certificate,
)
from qschur.scalars import ScalarContext
from qschur.uq_rep import (
    UqModule,
    dominant_highest_weights,
    jimbo_J,
    natural_rep,
    partition_weight,
    tensor_rep,
)


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(1)


@pytest.fixture(scope="module")
def vv(ctx):
    return tensor_rep(natural_rep(ctx, 1), 2)


def test_spin_zero(ctx, vv):
    assert spin_module(vv, {}).dim == 0


def test_spin_top_vector(ctx, vv):
    # v1 (x) v1 generates the symmetric 3-dimensional piece
    assert spin_module(vv, {0: ctx.one}).dim == 3


def test_spin_singular_vector(ctx, vv):
    v = {1: ctx.one, 2: -ctx.q_power(-1)}
    assert spin_module(vv, v).dim == 1


def test_spin_idempotent(ctx, vv):
    basis = spin_module(vv, {0: ctx.one})
    again = spin_module(vv, dict(basis.rows()[0]))
    for row in again.rows():
        assert not basis.reduce(row)


def sweep_spin(ctx, ambient, mats, vectors):
    """The spin by full sweeps: every basis row times every matrix, again
    until a sweep adds nothing (the reference for the worklist spin)."""
    basis = span(ctx, ambient, vectors)
    changed = True
    while changed:
        changed = False
        for row in list(basis.rows()):
            for m in mats:
                if basis.add(m.apply_row(row)):
                    changed = True
    return basis


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_worklist_spin_matches_the_sweep_on_the_grid(t0, n):
    # the grid of the segments workload: M_(1,c) and F(M_(1,c)), c = q^2,
    # q^-2 and a generic c; the spin of every unit vector, proper or not
    c = ScalarContext(n, t0=t0)
    for x in (c.q_power(2), c.q_power(-2), c.scalar(Fraction(7, 3))):
        M = universal_module(c, (c.one, x))
        for mod in (M, functor_F(M, n, check_source=False)):
            view = module_tools.ModuleView(mod)
            for i in range(view.dim):
                v = {i: c.one}
                assert (module_tools.spin(c, view.dim, view.mats, [v])
                        == sweep_spin(c, view.dim, view.mats, [v]))


def test_natural_rep_irreducible(ctx):
    ok, cert = is_irreducible(natural_rep(ctx, 1))
    assert ok
    assert cert["kind"] in ("norton", "density")


def test_density_certificate_without_theta_budget():
    # the n = 2 natural rep conjugated by a full unitriangular P: no
    # generator is diagonal and there is no sigma, so no eigenspace is known
    # in advance and only the density test remains
    c = ScalarContext(2)
    P = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 1, "1"], [0, 2, "1"],
                                       [1, 1, "1"], [1, 2, "1"], [2, 2, "1"]])
    P_inv = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 1, "-1"], [1, 1, "1"],
                                           [1, 2, "-1"], [2, 2, "1"]])
    V = UqModule.from_generators(
        c, 2, 3, {k: P * g * P_inv for k, g in natural_rep(c, 2).generators().items()})
    assert not any(all(r.keys() <= {i} for i, r in enumerate(g.rows))
                   for g in V.generators().values())
    ok, cert = is_irreducible(V)
    assert ok
    assert cert == {"kind": "density", "algebra_dim": 9}


def test_scalar_action_is_split_by_the_all_space_weight_group():
    # y = diag(a, a): the action algebra is one-dimensional, and the weight
    # space of the diagonal y is all of the module, so its first vector
    # spins to a proper submodule
    c = ScalarContext(1)
    a = c.scalar(3)
    M = RightModule(c, "Hhat", 1, 2, [],
                    [Matrix.diagonal(c, [a, a])],
                    [Matrix.diagonal(c, [a.inverse(), a.inverse()])])
    ok, cert = is_irreducible(M)
    assert not ok
    assert cert["submodule_dim"] == 1
    assert verify_submodule_certificate(M, cert)


def test_no_eigenspace_known_in_advance_leaves_a_module_undecided():
    # y = [[2,1],[1,2]] has eigenvalues 1 and 3 but no diagonal entry among
    # them: no generator is diagonal, there is no sigma, and the action
    # algebra is two-dimensional, so the decision is the typed Undecided
    c = ScalarContext(1)
    two, one, third = c.scalar(2), c.one, c.scalar(3).inverse()
    y = Matrix(c, 2, 2, [{0: two, 1: one}, {0: one, 1: two}])
    y_inv = Matrix(c, 2, 2, [{0: two * third, 1: -third}, {0: -third, 1: two * third}])
    assert y * y_inv == Matrix.identity(c, 2)
    M = RightModule(c, "Hhat", 1, 2, [], [y], [y_inv])
    with pytest.raises(module_tools.Undecided, match="dimension 2 < 4"):
        is_irreducible(M)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_triangular_y_line_certifies_a_universal_module(t0):
    # M_(2,3,5) restricted to H_3 is the regular module, so every sigma
    # eigenspace has dimension 3; the y_j are triangular with the six
    # permutations of a on their diagonals, so each is a weight line, and the
    # first gives Norton's test; the Jucys-Murphy spaces, one per standard
    # tableau, have the dimensions of their shapes
    c = ScalarContext(3, t0=t0)
    M = universal_module(c, [c.scalar(x) for x in (2, 3, 5)])
    spaces = list(module_tools.ModuleView(M).eigenspaces())
    assert [len(ker) for ker, _ in spaces] == [3] * 4 + [1] * 6 + [1, 2, 2, 1]
    assert is_irreducible(M) == (True, {"kind": "norton", "nullity": 1})


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_eigenline_of_a_generalised_weight_space_certifies_a_module(t0):
    # M_(1,1,1): the triangular y_j have the one eigenvalue 1, so the only
    # weight has a generalised eigenspace of dimension 6, but its common
    # eigenspace is a line, which Norton's test may use all the same
    c = ScalarContext(3, t0=t0)
    M = universal_module(c, [c.one] * 3)
    spaces = list(module_tools.ModuleView(M).eigenspaces())
    assert [len(ker) for ker, _ in spaces] == [3] * 4 + [1] + [1, 2, 2, 1]
    assert is_irreducible(M) == (True, {"kind": "norton", "nullity": 1})


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_jucys_murphy_line_certifies_a_head_without_weights(t0):
    # the head of 1@0:2,1@8:2 at n = 1: no y_j is triangular or diagonal and
    # no sigma eigenspace is a line, so a Jucys-Murphy line certifies it
    c = ScalarContext(1, t0=t0)
    V, _, _ = irreducible_V_a(parse_segments(c, "1@0:2,1@8:2"), c)
    spaces = list(module_tools.ModuleView(V).eigenspaces())
    assert [len(ker) for ker, _ in spaces] == [3, 2] * 3 + [1] * 5
    assert is_irreducible(V) == (True, {"kind": "norton", "nullity": 1})


def test_weight_line_is_read_from_the_matrices():
    # an l = 1 module of Hhat: no sigma, and y = diag(2, 3) has two lines of
    # distinct eigenvalue, so the first one is a submodule
    c = ScalarContext(1)
    two, three = c.scalar(2), c.scalar(3)
    M = RightModule(c, "Hhat", 1, 2, [], [Matrix.diagonal(c, [two, three])],
                    [Matrix.diagonal(c, [two.inverse(), three.inverse()])])
    ok, cert = is_irreducible(M)
    assert not ok
    assert cert["submodule_dim"] == 1
    assert verify_submodule_certificate(M, cert)


def composition_factors(mod) -> list:
    """All composition factors, as modules (recursive Meataxe splitting)."""
    sub = proper_submodule(mod)
    if sub is None:
        return [mod]
    return composition_factors(submodule(mod, sub)) + composition_factors(quotient(mod, sub))


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_kl_ideal_22_splits_into_irreducibles(t0):
    # I_(2,2) in H_4 has dimension 6 = 4!/(2!2!); by Young's rule its
    # composition factors have dimensions 1, 3 and 2
    ctx = ScalarContext(3, t0=t0)
    sub, _, _ = finite_ideal_module(ctx, (2, 2))
    factors = composition_factors(sub)
    assert sorted(f.dim for f in factors) == [1, 2, 3]
    assert all(is_irreducible(f)[0] for f in factors)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_rogawski_quotient_is_the_factor_its_jimbo_image_picks(t0):
    # the spin of I_pi * x_{pi'} is literally the composition factor whose
    # Jimbo image has highest weights {lambda_pi: 1}
    ctx = ScalarContext(3, t0=t0)
    for parts in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
        target = partition_weight(3, parts)
        sub, _, _ = finite_ideal_module(ctx, parts)
        matches = [f for f in composition_factors(sub)
                   if dominant_highest_weights(jimbo_J(f, 3).module) == {target: 1}]
        assert len(matches) == 1, parts
        assert rogawski_quotient(ctx, parts).to_json() == matches[0].to_json(), parts


def test_functor_image_is_certified_by_a_weight_line():
    ctx = ScalarContext(3)
    vmod, _, _ = irreducible_V_a(parse_segments(ctx, "1@0:2,3@0:1"), ctx)
    W = functor_F(vmod, 3)
    assert is_irreducible(W) == (True, {"kind": "norton", "nullity": 1})


def test_tensor_square_reducible(ctx, vv):
    ok, cert = is_irreducible(vv)
    assert not ok
    assert verify_submodule_certificate(vv, cert)


def test_universal_module_grid():
    c = ScalarContext(2)
    ok, _ = is_irreducible(universal_module(c, (c.one, c.q_power(2))))
    assert not ok
    ok, _ = is_irreducible(universal_module(c, (c.one, c.q)))
    assert ok


def test_proper_submodule_is_stable(ctx, vv):
    sub = proper_submodule(vv)
    assert sub is not None and 0 < sub.dim < vv.dim
    tmats = [m.transpose() for m in vv.generators().values()]
    for row in sub.rows():
        for m in tmats:
            assert not sub.reduce(m.apply_row(row))


def _sub_and_quotient_maps(basis):
    """B (basis rows) and P (row c = coset of the unit vector e_c), row convention."""
    ctx = basis.ctx
    B = basis.to_matrix()
    P = Matrix(ctx, basis.ambient, basis.ambient - basis.dim,
               [basis.coset({c: ctx.one}) for c in range(basis.ambient)])
    return B, P


@pytest.mark.parametrize("exponents", [(0, 2), (0, 2, 4)])
def test_sub_and_quotient_of_a_right_module(exponents):
    c = ScalarContext(1)
    M = universal_module(c, [c.q_power(e) for e in exponents])
    basis = proper_submodule(M)
    assert basis is not None and 0 < basis.dim < M.dim
    S, Q = submodule(M, basis), quotient(M, basis)
    B, P = _sub_and_quotient_maps(basis)
    for X, d in ((S, basis.dim), (Q, M.dim - basis.dim)):
        assert isinstance(X, RightModule)
        assert (X.kind, X.ell, X.dim) == (M.kind, M.ell, d)
        assert list(X.generators()) == list(M.generators())
    for name, g in M.generators().items():
        assert B * g == S.generators()[name] * B
        assert g * P == P * Q.generators()[name]


@pytest.mark.parametrize("top", [True, False], ids=["symmetric", "singular"])
def test_sub_and_quotient_of_a_left_module(ctx, vv, top):
    # column convention: rho(g) B^T = B^T rho_sub(g) and P^T rho(g) = rho_quot(g) P^T
    # v1 (x) v1 spins the 3-dimensional symmetric piece, the singular vector a line
    v = {0: ctx.one} if top else {1: ctx.one, 2: -ctx.q_power(-1)}
    basis = spin_module(vv, v)
    S, Q = submodule(vv, basis), quotient(vv, basis)
    B, P = _sub_and_quotient_maps(basis)
    Bt, Pt = B.transpose(), P.transpose()
    assert (S.dim, Q.dim) == ((3, 1) if top else (1, 3))
    for name, g in vv.generators().items():
        assert g * Bt == Bt * S.generators()[name]
        assert Pt * g == Q.generators()[name] * Pt
    # each basis vector keeps its weight, which the diagonal k action confirms
    assert S.weights == [vv.weights[p] for p in basis.pivot_columns()]
    assert Q.weights == [vv.weights[f] for f in basis.free_columns()]
    for X in (S, Q):
        for r, w in enumerate(X.weights):
            assert X.k[0].rows[r] == {r: ctx.q_power(w[0])}
    symmetric, line = {(2,): 1, (0,): 1, (-2,): 1}, {(0,): 1}
    assert (character(S), character(Q)) == ((symmetric, line) if top else (line, symmetric))


def test_sub_and_quotient_refuse_an_unstable_subspace(ctx, vv):
    basis = span(ctx, vv.dim, [{1: ctx.one}])  # v1 (x) v2 alone is not stable
    with pytest.raises(ValueError, match="not stable"):
        submodule(vv, basis)
    with pytest.raises(ValueError, match="not stable"):
        quotient(vv, basis)


def _quotient_by_rows(mod, basis):
    """The row-by-row quotient rule: None if some image of a basis row leaves
    the subspace, else each generator's matrix on the free rows' classes."""
    view = module_tools.ModuleView(mod)
    free = basis.free_columns()
    out = []
    for m in view.mats:
        if any(basis.reduce(m.apply_row(row)) for row in basis.rows()):
            return None
        out.append(Matrix(view.ctx, len(free), len(free), [basis.coset(m.rows[c]) for c in free]))
    return out


@pytest.fixture(scope="module")
def quotient_cases(ctx, vv):
    c = ctx
    M = universal_module(c, [c.one, c.q_power(2)])
    return {
        "hecke-submodule": (M, proper_submodule(M)),
        "uq-symmetric": (vv, spin_module(vv, {0: c.one})),
        "uq-singular": (vv, spin_module(vv, {1: c.one, 2: -c.q_power(-1)})),
        "hecke-unstable": (M, span(c, M.dim, [{0: c.one}])),
        "uq-unstable": (vv, span(c, vv.dim, [{1: c.one}])),
    }


@pytest.mark.parametrize("name,stable", [
    ("hecke-submodule", True), ("uq-symmetric", True), ("uq-singular", True),
    ("hecke-unstable", False), ("uq-unstable", False)])
def test_quotient_matches_the_row_by_row_rule(quotient_cases, name, stable):
    mod, basis = quotient_cases[name]
    want = _quotient_by_rows(mod, basis)
    assert (want is not None) == stable
    if want is None:
        with pytest.raises(ValueError) as err:
            quotient(mod, basis)
        assert str(err.value) == "subspace is not stable under the action"
    else:
        assert module_tools.ModuleView(quotient(mod, basis)).mats == want


def test_are_isomorphic_identity(ctx, vv):
    T = are_isomorphic(vv, vv)
    assert T is not None


@pytest.fixture(scope="module")
def intertwined_pairs():
    """(species, A, B) pairs that are_isomorphic must match, by test id.

    The first two are the pinned pairs of test_golden.py.  In the last two B
    is A conjugated by a non-symmetric P, so a transposed T would fail.
    """
    c = ScalarContext(2)
    a = (c.one, c.scalar(3))
    M = universal_module(c, a)
    Z = zelevinsky_induce(*(one_dimensional_affine_module(c, [x]) for x in a))
    b = (c.one, c.scalar(5))
    W = functor_F(universal_module(c, b), 2, check_source=False)
    prod = tensor_affine_chain([evaluation_natural(c, 2, x) for x in b])
    P = Matrix.from_triplets(c, 2, 2, [[0, 0, "1"], [0, 1, "2"], [1, 1, "1"]])
    P_inv = Matrix.from_triplets(c, 2, 2, [[0, 0, "1"], [0, 1, "-2"], [1, 1, "1"]])
    M_conj = RightModule.from_generators(
        c, M.kind, M.ell, 2, {k: P_inv * g * P for k, g in M.generators().items()})
    V = evaluation_natural(c, 2, c.scalar(2))
    P3 = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 2, "2"], [1, 1, "1"], [2, 2, "1"]])
    P3_inv = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 2, "-2"], [1, 1, "1"], [2, 2, "1"]])
    V_conj = UqModule.from_generators(
        c, 2, 3, {k: P3 * g * P3_inv for k, g in V.generators().items()})
    return {"Z(1,3)-M(1,3)": ("right", Z, M), "F(M(1,5))-V(1)V(5)": ("left", W, prod),
            "right-conj": ("right", M, M_conj), "left-conj": ("left", V, V_conj)}


@pytest.mark.parametrize("pair", ["Z(1,3)-M(1,3)", "F(M(1,5))-V(1)V(5)", "right-conj",
                                  "left-conj"])
def test_are_isomorphic_satisfies_its_equation(intertwined_pairs, pair):
    # right modules: rho_A T = T rho_B; left modules: T rho_A = rho_B T
    species, A, B = intertwined_pairs[pair]
    T = are_isomorphic(A, B)
    assert T is not None and rank(T) == T.nrows == A.dim
    ga, gb = A.generators(), B.generators()
    for k in ga:
        if species == "right":
            assert ga[k] * T == T * gb[k], k
        else:
            assert T * ga[k] == gb[k] * T, k


def test_are_isomorphic_refuses_mixed_species():
    c = ScalarContext(2)
    with pytest.raises(ValueError, match="different algebras"):
        are_isomorphic(one_dimensional_module(c, 1, c.one), evaluation_natural(c, 2, c.one))


def test_are_isomorphic_dimension_mismatch(ctx):
    V = natural_rep(ctx, 1)
    T3 = tensor_rep(V, 3)
    assert are_isomorphic(V, T3) is None


def test_exhausted_intertwiner_search_is_undecided(monkeypatch):
    # y = diag(3, 3) on H-hat_1: End is all of M_2, spanned by four singular
    # matrix units, so four candidates prove nothing either way
    c = ScalarContext(1)
    M = RightModule.from_generators(c, "Hhat", 1, 2, {
        "y1": Matrix.diagonal(c, [c.scalar(3)] * 2),
        "y1inv": Matrix.diagonal(c, [c.scalar(Fraction(1, 3))] * 2),
    })
    assert are_isomorphic(M, M) is not None
    monkeypatch.setattr(module_tools, "ISO_MAX_TRIES", 4)
    with pytest.raises(module_tools.Undecided, match="dimension 4"):
        are_isomorphic(M, M)


def test_are_isomorphic_equivalence_on_triple():
    # reflexive, symmetric, transitive behaviour on a small corpus
    c = ScalarContext(2)
    trivial = one_dimensional_module(c, 2, c.q_power(2))
    A = jimbo_J(trivial, 2).module
    B = jimbo_J(trivial, 2).module
    t_ab = are_isomorphic(A, B)
    t_ba = are_isomorphic(B, A)
    assert t_ab is not None and t_ba is not None
    sign = one_dimensional_module(c, 2, -1)
    C = jimbo_J(sign, 2).module
    assert are_isomorphic(A, C) is None
    assert are_isomorphic(C, A) is None


def test_are_isomorphic_transitive_triple():
    # three different constructions of the same affine module
    from qschur.affine_hecke import universal_module
    from qschur.affinization import evaluation_natural, functor_F, tensor_affine

    c = ScalarContext(2)
    A = functor_F(universal_module(c, (c.one, c.scalar(5))), 2, check_source=False)
    B = tensor_affine(evaluation_natural(c, 2, c.one), evaluation_natural(c, 2, c.scalar(5)))
    C = tensor_affine(evaluation_natural(c, 2, c.scalar(5)), evaluation_natural(c, 2, c.one))
    assert are_isomorphic(A, B) is not None
    assert are_isomorphic(B, C) is not None
    assert are_isomorphic(A, C) is not None


def _routes(A, B):
    """(decided, T, intertwines, invertible, Hom-solve verdict): decided and
    T as the one-pass standard basis returns them (decided is False when no
    weight line of A generates A, T is None when the spin proves that no
    map intertwines), T checked on every algebra generator in the
    right-action convention."""
    va, vb = module_tools.ModuleView(A), module_tools.ModuleView(B)
    hom = module_tools._hom_solve(va, vb) is not None
    decided, T = module_tools._standard_basis(va, vb)
    if T is None:
        return decided, None, None, None, hom
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    holds = all(ga[k] * T == T * gb[k] for k in va.algebra_names)
    return decided, T, holds, module_tools._is_invertible(T), hom


def _F(c, n, a):
    return functor_F(universal_module(c, a), n, check_source=False)


def _chain(c, n, a):
    return tensor_affine_chain([evaluation_natural(c, n, x) for x in a])


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_standard_basis_accepts_the_dictionary_pairs(t0):
    # Prop 4.7 and Prop 4.6 at n = 2: the first weight line generates and
    # the one candidate is the intertwiner are_isomorphic returns
    c = ScalarContext(2, t0=t0)
    M1, M2 = (one_dimensional_affine_module(c, [c.scalar(x)]) for x in (2, 7))
    pairs = [(_F(c, 2, (c.one, c.scalar(5))), _chain(c, 2, (c.one, c.scalar(5)))),
             (functor_F(zelevinsky_induce(M1, M2), 2, check_source=False),
              tensor_affine_chain([functor_F(m, 2, check_source=False) for m in (M1, M2)]))]
    for A, B in pairs:
        decided, T, holds, invertible, hom = _routes(A, B)
        assert decided and T is not None and holds and invertible and hom
        assert are_isomorphic(A, B) == T.transpose()


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_standard_basis_check_failure_proves_no_isomorphism(t0):
    # F(M_(3,5)) against V(3) (x) V(7): equal weights, a generating weight
    # line, and a candidate that is not an intertwiner, so Hom is zero
    c = ScalarContext(2, t0=t0)
    A, B = _F(c, 2, (c.scalar(3), c.scalar(5))), _chain(c, 2, (c.scalar(3), c.scalar(7)))
    decided, T, holds, _, hom = _routes(A, B)
    assert decided and T is not None and not holds and not hom
    assert are_isomorphic(A, B) is None


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_singular_standard_basis_candidate_proves_no_isomorphism(t0):
    # F(M_(1,q^2)) -> F(M_(q^2,1)): the candidate intertwines but is
    # singular, and Hom is its line; in the reverse direction the spin of
    # a weight line that does not generate meets a relation of
    # F(M_(q^2,1)) that F(M_(1,q^2)) breaks, which proves None before the
    # spin ends
    c = ScalarContext(2, t0=t0)
    A, B = _F(c, 2, (c.one, c.q_power(2))), _F(c, 2, (c.q_power(2), c.one))
    decided, T, holds, invertible, hom = _routes(A, B)
    assert decided and T is not None and holds and not invertible and not hom
    assert are_isomorphic(A, B) is None
    decided, T, _, _, hom = _routes(B, A)
    assert decided and T is None and not hom
    assert are_isomorphic(B, A) is None


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_modules_without_weights_fall_back_to_the_hom_solve(t0):
    # the left-conj pair: V's k_i conjugated by a non-monomial P are not
    # diagonal, so no weights are known and only the Hom solve can decide
    c = ScalarContext(2, t0=t0)
    V = evaluation_natural(c, 2, c.scalar(2))
    P = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 2, "2"], [1, 1, "1"], [2, 2, "1"]])
    P_inv = Matrix.from_triplets(c, 3, 3, [[0, 0, "1"], [0, 2, "-2"], [1, 1, "1"], [2, 2, "1"]])
    V_conj = UqModule.from_generators(
        c, 2, 3, {k: P * g * P_inv for k, g in V.generators().items()})
    assert module_tools.ModuleView(V_conj).weights is None
    va, vb = module_tools.ModuleView(V), module_tools.ModuleView(V_conj)
    assert are_isomorphic(V, V_conj) == module_tools._hom_solve(va, vb) is not None


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_scaled_torus_does_not_change_the_verdict(t0):
    # the t_r act by the gl torus, not by U_q generators: scaling them on
    # one side leaves the two modules isomorphic
    c = ScalarContext(2, t0=t0)
    A = _F(c, 2, (c.one, c.scalar(5)))
    B = UqModule.from_generators(c, 2, A.dim, {
        k: g.scale(c.scalar(3)) if k[0] == "t" else g for k, g in A.generators().items()})
    decided, T, holds, invertible, hom = _routes(A, B)
    assert decided and T is not None and holds and invertible and hom
    assert are_isomorphic(A, B) == T.transpose()


def _old_standard_basis(A, B):
    """The standard basis candidate by the route it first took: spin the
    first generating weight line v of A under the x's, replay each word
    from w in B, and solve S_A T = S_B by one span of the stacked rows
    [S_A | S_B]."""
    va, vb = module_tools.ModuleView(A), module_tools.ModuleView(B)
    ctx, dim, wa, wb = va.ctx, va.dim, va.weights, vb.weights
    ga, gb = (dict(zip(v.names, v.mats)) for v in (va, vb))
    xs = [k for k in va.algebra_names if k[0] == "x"]
    for i, w in enumerate(wa):
        if wa.count(w) > 1:
            continue
        grown, images = [{i: ctx.one}], [{wb.index(w): ctx.one}]
        basis = span(ctx, dim, grown)
        p = 0
        while p < len(grown):
            for k in xs:
                u = ga[k].apply_row(grown[p])
                if basis.add(u):
                    grown.append(u)
                    images.append(gb[k].apply_row(images[p]))
            p += 1
        if basis.dim == dim:
            stacked = span(ctx, 2 * dim, ({**u, **{dim + c: x for c, x in im.items()}}
                                          for u, im in zip(grown, images)))
            return Matrix(ctx, dim, dim, [{c - dim: x for c, x in stacked.pivots[r].items()
                                           if c >= dim} for r in range(dim)])
    return None


# One pair of each shape the dictionary benchmark decides: Prop 4.7 at
# (n, ell) = (2, 2), (2, 3), (3, 2); Prop 4.6 at n = 2, 3; Thm 7.6 on the
# six segment shapes, each segment (coefficient, q-exponent, length).
DICTIONARY_SHAPES = [
    ("4.7", 2, (2, 5)), ("4.7", 2, (2, 5, 7)), ("4.7", 3, (2, 5)),
    ("4.6", 2, (2, 7)), ("4.6", 3, (2, 7)),
    ("7.6", 2, ((2, 0, 2),)), ("7.6", 2, ((2, 0, 1), (2, 2, 1))),
    ("7.6", 2, ((2, 0, 1), (5, 0, 1))), ("7.6", 3, ((2, 0, 1), (2, 2, 1))),
    ("7.6", 3, ((2, 0, 2), (5, 0, 1))), ("7.6", 3, ((2, 0, 2), (2, 3, 1))),
]


def _dictionary_pair(c, kind, n, params):
    if kind == "4.7":
        a = [c.scalar(x) for x in params]
        return _F(c, n, a), _chain(c, n, a)
    if kind == "4.6":
        M1, M2 = (one_dimensional_affine_module(c, [c.scalar(x)]) for x in params)
        return (functor_F(zelevinsky_induce(M1, M2), n, check_source=False),
                tensor_affine_chain([functor_F(m, n, check_source=False) for m in (M1, M2)]))
    s = make_segments(c, [(c.scalar(x) * c.q_power(e), k) for x, e, k in params])
    factors = [irreducible_V_a(make_segments(c, [(seg.center, seg.length)]), c)[0]
               for seg in s.segments]
    return (functor_F(ideal_I_pi(s, c).module, n, check_source=False),
            tensor_affine_chain([functor_F(V, n, check_source=False) for V in factors]))


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
@pytest.mark.parametrize("kind, n, params", DICTIONARY_SHAPES)
def test_one_pass_standard_basis_equals_the_old_route(t0, kind, n, params):
    c = ScalarContext(n, t0=t0)
    A, B = _dictionary_pair(c, kind, n, params)
    T = _old_standard_basis(A, B)
    assert T is not None
    va, vb = module_tools.ModuleView(A), module_tools.ModuleView(B)
    assert module_tools._standard_basis(va, vb) == (True, T)
    assert are_isomorphic(A, B) == T.transpose()


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_relation_that_b_breaks_ends_the_spin(t0):
    # F(M_(3,5,7)) against V(3) (x) V(5) (x) V(11): equal weights, but a
    # word that the earlier words of A span in a weight space of
    # multiplicity two escapes their span in B, so the spin returns None
    # before any candidate exists
    c = ScalarContext(2, t0=t0)
    A = _F(c, 2, [c.scalar(x) for x in (3, 5, 7)])
    B = _chain(c, 2, [c.scalar(x) for x in (3, 5, 11)])
    va, vb = module_tools.ModuleView(A), module_tools.ModuleView(B)
    assert module_tools._standard_basis(va, vb) == (True, None)
    assert module_tools._hom_solve(va, vb) is None
    assert are_isomorphic(A, B) is None


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_spin_grows_through_vectors_that_are_not_weight_vectors(t0):
    # V(2) (x) V(5) with one entry of x-1 copied into a row of another
    # weight: the k_i stay diagonal, but x-1 now carries a weight vector
    # across weight spaces, so the spin grows vectors that are not weight
    # vectors, which are never counted towards a full weight space
    c = ScalarContext(2, t0=t0)
    W = _chain(c, 2, (c.scalar(2), c.scalar(5)))
    gens, wts = W.generators(), W.weights
    r, col = next((r, k) for r, row in enumerate(gens["x-1"].rows) for k in row)
    bent = gens["x-1"].copy()
    bent.set_entry(next(i for i in range(W.dim) if wts[i] != wts[r]), col, c.one)
    A = UqModule.from_generators(c, 2, W.dim, {**gens, "x-1": bent})
    D = Matrix.diagonal(c, [c.scalar(i + 2) for i in range(W.dim)])
    D_inv = Matrix.diagonal(c, [c.scalar(i + 2).inverse() for i in range(W.dim)])
    B = UqModule.from_generators(c, 2, W.dim,
                                 {k: D * g * D_inv for k, g in A.generators().items()})
    for other, iso in ((B, True), (W, False)):
        va, vb = module_tools.ModuleView(A), module_tools.ModuleView(other)
        assert module_tools._standard_basis(va, vb)[0]
        T = are_isomorphic(A, other)
        assert (T is not None) == iso == (module_tools._hom_solve(va, vb) is not None)
        if T is not None:
            ga, gb = A.generators(), other.generators()
            assert all(T * ga[k] == gb[k] * T for k in va.algebra_names)


def _bent_sl2(c, last):
    """A U_q(sl_2) action on three weight lines, k_1 = diag(q^2, 1, q^-2),
    with x+1 = 0, x-1 e_0 = e_1 + e_2 and x-1 e_1 = last e_2: x-1 carries
    the weight vector e_0 across two weight spaces."""
    k, k_inv = (Matrix.diagonal(c, [c.q_power(2 * s), c.one, c.q_power(-2 * s)])
                for s in (1, -1))
    x = Matrix.from_triplets(c, 3, 3, [[1, 0, "1"], [2, 0, "1"], [2, 1, str(last)]])
    return UqModule.from_generators(
        c, 1, 3, {"x+1": Matrix.zero(c, 3, 3), "x-1": x, "k1": k, "k1inv": k_inv})


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_products_of_a_vector_that_is_not_a_weight_vector_are_never_skipped(t0):
    # e_0 generates only through x-1 (e_1 + e_2), which is not a weight
    # vector: its product e_2 completes the spin.  With last = 2 the one
    # candidate intertwines x+-1 but sends e_1 to e_1 - e_2, across weights,
    # which the entrywise check of the diagonal k_1 refutes
    c = ScalarContext(1, t0=t0)
    A = _bent_sl2(c, 1)
    D = Matrix.diagonal(c, [c.scalar(2), c.scalar(3), c.scalar(5)])
    D_inv = Matrix.diagonal(c, [c.scalar(Fraction(1, x)) for x in (2, 3, 5)])
    B = UqModule.from_generators(c, 1, 3, {k: D * g * D_inv for k, g in A.generators().items()})
    for other, iso in ((B, True), (_bent_sl2(c, 2), False)):
        va, vb = module_tools.ModuleView(A), module_tools.ModuleView(other)
        decided, T = module_tools._standard_basis(va, vb)
        assert decided and T is not None
        assert (are_isomorphic(A, other) is not None) == iso
        assert (module_tools._hom_solve(va, vb) is not None) == iso
    # T sends e_0 to e_0, so it is D / 2
    assert are_isomorphic(A, B) == D.scale(c.scalar(Fraction(1, 2)))


_params = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), a=st.lists(_params, min_size=1, max_size=2),
       other=st.lists(_params, min_size=2, max_size=2), how=st.sampled_from(
           ["equal", "reversed", "chain", "linked", "other"]))
def test_standard_basis_verdict_matches_the_hom_solve(t0, n, a, other, how):
    c = ScalarContext(n, t0=t0)
    a = [c.scalar(x) for x in a]
    if how == "linked":  # a second parameter q^2 times the first
        a = [a[0], a[0] * c.q_power(2)]
    b = {"equal": a, "reversed": a[::-1], "chain": a, "linked": a[::-1],
         "other": [c.scalar(x) for x in other[:len(a)]]}[how]
    A = _F(c, n, a)
    B = _chain(c, n, b) if how == "chain" else _F(c, n, b)
    T = are_isomorphic(A, B)
    va, vb = module_tools.ModuleView(A), module_tools.ModuleView(B)
    assert (T is None) == (module_tools._hom_solve(va, vb) is None)
    if T is not None:
        ga, gb = A.generators(), B.generators()
        assert all(T * ga[k] == gb[k] * T for k in va.algebra_names)
        assert rank(T) == A.dim


def test_character_table(ctx, vv):
    assert character(vv) == {(2,): 1, (0,): 2, (-2,): 1}


def test_character_natural_n2():
    c = ScalarContext(2)
    V = natural_rep(c, 2)
    assert character(V) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


def test_character_constant_on_iso_classes():
    c = ScalarContext(2)
    trivial = one_dimensional_module(c, 2, c.q_power(2))
    A = jimbo_J(trivial, 2).module
    B = jimbo_J(trivial, 2).module
    assert character(A) == character(B)


def test_character_sums_to_dim(ctx, vv):
    assert sum(character(vv).values()) == vv.dim


def test_character_without_stored_weights():
    # the multiplicities come off the k diagonal when the labels are absent,
    # on the specialized backend too, where k_i[r, r] is a bare rational
    def image(c):
        return functor_F(universal_module(c, (c.one, c.q_power(2))), 2)

    want = character(image(ScalarContext(2)))
    for t0 in (None, Fraction(5, 3)):
        c = ScalarContext(2, t0=t0)
        W = image(c)
        data = W.to_json()
        data["weights"] = None
        bare = UqModule.from_json(c, data)
        assert bare.weights == W.weights
        assert character(bare) == character(W) == want


def test_character_needs_a_quantum_module():
    c = ScalarContext(2)
    with pytest.raises(ValueError):
        character(universal_module(c, (c.one, c.q_power(2))))


def test_character_of_trivial_module():
    from qschur.linalg import Matrix
    from qschur.uq_rep import UqModule

    c = ScalarContext(2)
    zero = Matrix.zero(c, 1, 1)
    one = Matrix.identity(c, 1)
    triv = UqModule(c, 2, 1, [zero, zero], [zero, zero], [one, one], [one, one])
    assert character(triv) == {(0, 0): 1}
