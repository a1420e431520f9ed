import pytest

from qschur import module_tools
from qschur.affine_hecke import (
    RightModule,
    one_dimensional_affine_module,
    one_dimensional_module,
    universal_module,
    zelevinsky_induce,
)
from qschur.affinization import evaluation_natural, functor_F, tensor_affine_chain
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
from qschur.uq_rep import UqModule, jimbo_J, natural_rep, tensor_rep


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
        assert basis.contains(row)


def test_natural_rep_irreducible(ctx):
    ok, cert = is_irreducible(natural_rep(ctx, 1))
    assert ok
    assert cert["kind"] in ("norton", "density")


def test_density_certificate_without_theta_budget(monkeypatch):
    # no singular candidates at all, so only the density test remains
    monkeypatch.setattr(module_tools, "IRR_MAX_CANDIDATES", 0)
    c = ScalarContext(2)
    ok, cert = is_irreducible(natural_rep(c, 2))
    assert ok
    assert cert == {"kind": "density", "algebra_dim": 9}


def test_scalar_action_reaches_centralizer_kernel():
    # y = diag(a, a): every candidate is a scalar matrix, the action algebra
    # is one-dimensional, and only a centralizer element splits the module
    from qschur.affine_hecke import RightModule
    from qschur.linalg import Matrix

    c = ScalarContext(1)
    a = c.scalar(3)
    M = RightModule(c, "Hhat", 1, 2, [],
                    [Matrix.diagonal(c, [a, a])],
                    [Matrix.diagonal(c, [a.inverse(), a.inverse()])])
    ok, cert = is_irreducible(M)
    assert not ok
    assert cert["submodule_dim"] == 1
    assert verify_submodule_certificate(M, cert)


def test_sampled_words_split_a_module_no_diagonal_entry_splits():
    # y = [[2,1],[1,2]] has eigenvalues 1 and 3 but diagonal entries 2, and
    # its action algebra and centralizer hold no singular basis element, so
    # only a sampled word in y and y^-1 finds the eigenlines
    c = ScalarContext(1)
    two, one, third = c.scalar(2), c.one, c.scalar(3).inverse()
    y = Matrix(c, 2, 2, [{0: two, 1: one}, {0: one, 1: two}])
    y_inv = Matrix(c, 2, 2, [{0: two * third, 1: -third}, {0: -third, 1: two * third}])
    assert y * y_inv == Matrix.identity(c, 2)
    M = RightModule(c, "Hhat", 1, 2, [], [y], [y_inv])
    ok, cert = is_irreducible(M)
    assert not ok
    assert verify_submodule_certificate(M, cert)
    assert is_irreducible(M) == (ok, cert)


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
            assert sub.contains(m.apply_row(row))


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
    # the multiplicities come off the k diagonal when the labels are absent
    c = ScalarContext(2)
    W = functor_F(universal_module(c, (c.one, c.q_power(2))), 2)
    data = W.to_json()
    data["weights"] = None
    bare = UqModule.from_json(c, data)
    assert bare.weights is None
    assert character(bare) == character(W)


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
    triv = UqModule(c, 2, 1, [zero, zero], [zero, zero], [one, one], [one, one],
                    weights=[(0, 0)])
    assert character(triv) == {(0, 0): 1}
