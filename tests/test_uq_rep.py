from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from qschur.affine_hecke import hecke_regular_module, one_dimensional_module, universal_module
from qschur.affinization import functor_F, verify_finite_relations
from qschur.classification import rogawski_quotient
from qschur.hecke import HeckeElt
from qschur.linalg import Matrix, column_kernel, rank, span, vec_add
from qschur.module_tools import spin_module
from qschur.scalars import ScalarContext
from qschur.symgroup import elements_of_parabolic
from qschur.uq_rep import (
    JimboImage,
    UqModule,
    fundamental_weight,
    highest_weight_vectors,
    jimbo_J,
    kron_chain,
    natural_rep,
    rcheck,
    rcheck_i,
    tensor,
    tensor_rep,
    weight_decomposition,
)


def weight_level(weight) -> int:
    """sum of i * weight(i); equals ell on level-ell dominant weights."""
    return sum((i + 1) * w for i, w in enumerate(weight))


@pytest.fixture(scope="module")
def ctx1():
    return ScalarContext(1)


@pytest.fixture(scope="module")
def ctx2():
    return ScalarContext(2)


def test_natural_rep_n1(ctx1):
    V = natural_rep(ctx1, 1)
    assert V.xp[0].entry(0, 1).is_one() and V.xp[0].nnz() == 1
    assert V.xm[0].entry(1, 0).is_one() and V.xm[0].nnz() == 1
    assert V.k[0].entry(0, 0) == ctx1.q
    assert V.k[0].entry(1, 1) == ctx1.q_power(-1)


def test_natural_rep_theta_n2(ctx2):
    V = natural_rep(ctx2, 2)
    assert V.xtheta_p.entry(0, 2).is_one() and V.xtheta_p.nnz() == 1
    assert V.xtheta_m.entry(2, 0).is_one() and V.xtheta_m.nnz() == 1
    # k_theta = k_1 k_2
    assert V.ktheta == V.k[0] * V.k[1]


def test_torus_product_is_identity():
    for n in (1, 2, 3):
        c = ScalarContext(n)
        V = natural_rep(c, n)
        prod = V.t[0]
        for m in V.t[1:]:
            prod = prod * m
        assert prod == Matrix.identity(c, n + 1)


def test_torus_vs_k():
    for n in (1, 2):
        c = ScalarContext(n)
        V = natural_rep(c, n)
        for i in range(1, n + 1):
            tinv = Matrix.diagonal(
                c, [V.t[i].entry(r, r).inverse() for r in range(n + 1)]
            )
            assert V.k[i - 1] == V.t[i - 1] * tinv


def test_natural_rep_satisfies_finite_relations():
    for n in (1, 2, 3):
        c = ScalarContext(n)
        rep = verify_finite_relations(natural_rep(c, n))
        assert rep.passed, rep.failures()


def test_tensor_action_example(ctx1):
    # x_1^+ (v_2 (x) v_1) = q v_1 (x) v_1
    T = tensor_rep(natural_rep(ctx1, 1), 2)
    out = T.xp[0].apply_col({2: ctx1.one})
    assert out == {0: ctx1.q}


def test_tensor_k_eigenvalues(ctx1):
    T = tensor_rep(natural_rep(ctx1, 1), 2)
    assert T.k[0].entry(0, 0) == ctx1.q_power(2)
    assert T.k[0].entry(3, 3) == ctx1.q_power(-2)


def test_tensor_ell_one_is_base(ctx1):
    V = natural_rep(ctx1, 1)
    assert tensor_rep(V, 1) is V


def _per_slot_sum(before, op, after, ell):
    """sum_j before^(j-1) (x) op (x) after^(ell-j), one Kronecker chain per slot."""
    terms = [kron_chain([before] * (j - 1) + [op] + [after] * (ell - j))
             for j in range(1, ell + 1)]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "rational"])
@pytest.mark.parametrize("n,ell", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_tensor_power_matches_per_slot_coproduct(n, ell, t0):
    # reference: the iterated coproduct written out slot by slot,
    # x^+ -> sum_j 1^(j-1) (x) x^+ (x) k^(ell-j), x^- -> sum_j kinv^(j-1) (x) x^- (x) 1^(ell-j)
    c = ScalarContext(n, t0=t0)
    V = natural_rep(c, n)
    eye = Matrix.identity(c, V.dim)
    T = tensor_rep(V, ell)
    assert T.dim == V.dim ** ell
    for i in range(n):
        assert T.xp[i] == _per_slot_sum(eye, V.xp[i], V.k[i], ell)
        assert T.xm[i] == _per_slot_sum(V.kinv[i], V.xm[i], eye, ell)
        assert T.k[i] == kron_chain([V.k[i]] * ell)
        assert T.kinv[i] == kron_chain([V.kinv[i]] * ell)
    assert T.t == [kron_chain([m] * ell) for m in V.t]
    assert T.weights == [tuple(map(sum, zip(*ws))) for ws in product(V.weights, repeat=ell)]
    assert not T.is_affine()


def test_tensor_weights_follow_the_k_diagonal(ctx2):
    # unequal factors (V and its wedge square), so the order of the weights matters
    V = natural_rep(ctx2, 2)
    L = jimbo_J(one_dimensional_module(ctx2, 2, -1), 2).module
    for A, B in ((V, L), (L, V)):
        W = tensor(A, B)
        assert W.dim == 9 and len(W.weights) == 9
        for r, w in enumerate(W.weights):
            for i in range(2):
                assert W.k[i].rows[r] == {r: ctx2.q_power(w[i])}


@pytest.mark.parametrize("n,ell", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_tensor_satisfies_finite_relations(n, ell):
    c = ScalarContext(n)
    rep = verify_finite_relations(tensor_rep(natural_rep(c, n), ell))
    assert rep.passed, rep.failures()


def test_rcheck_matrix_n1(ctx1):
    R = rcheck(ctx1, 1)
    q = ctx1.q
    q2 = ctx1.q_power(2)
    # basis order (v1v1, v1v2, v2v1, v2v2)
    assert R.apply_col({0: ctx1.one}) == {0: q2}
    assert R.apply_col({1: ctx1.one}) == {2: q}
    assert R.apply_col({2: ctx1.one}) == {1: q, 2: q2 - 1}
    assert R.apply_col({3: ctx1.one}) == {3: q2}


def test_rcheck_quadratic(ctx2):
    R = rcheck(ctx2, 2)
    eye = Matrix.identity(ctx2, 9)
    q2 = ctx2.q_power(2)
    assert R * R == R.scale(q2 - ctx2.one) + eye.scale(q2)


def test_rcheck_eigenvalue_multiplicities(ctx1):
    # for n=1 the eigenvalues are q^2 (multiplicity 3) and -1 (multiplicity 1)
    R = rcheck(ctx1, 1)
    eye = Matrix.identity(ctx1, 4)
    assert len(column_kernel(R - eye.scale(ctx1.q_power(2)))) == 3
    assert len(column_kernel(R + eye)) == 1


@pytest.mark.parametrize("n,ell", [(1, 3), (2, 3), (3, 2)])
def test_rcheck_commutes_with_quantum_group(n, ell):
    c = ScalarContext(n)
    T = tensor_rep(natural_rep(c, n), ell)
    for i in range(1, ell):
        Ri = rcheck_i(c, n, ell, i)
        for name, g in T.generators().items():
            assert Ri * g == g * Ri, (i, name)


def test_rcheck_braid(ctx2):
    R1 = rcheck_i(ctx2, 2, 3, 1)
    R2 = rcheck_i(ctx2, 2, 3, 2)
    assert R1 * R2 * R1 == R2 * R1 * R2


def test_rcheck_index_range(ctx2):
    with pytest.raises(ValueError):
        rcheck_i(ctx2, 2, 3, 3)


# -- Jimbo functor ------------------------------------------------------------


@pytest.mark.parametrize("n,ell", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_jimbo_regular_dimension(n, ell):
    c = ScalarContext(n)
    img = jimbo_J(hecke_regular_module(c, ell), n)
    assert img.module.dim == (n + 1) ** ell


def test_jimbo_sign_module(ctx2):
    img = jimbo_J(one_dimensional_module(ctx2, 2, -1), 2)
    assert img.module.dim == 3
    hw = highest_weight_vectors(img.module)
    assert list(hw) == [fundamental_weight(2, 2)]
    assert len(hw[fundamental_weight(2, 2)]) == 1


def test_jimbo_trivial_module(ctx2):
    img = jimbo_J(one_dimensional_module(ctx2, 2, ctx2.q_power(2)), 2)
    assert img.module.dim == 6
    hw = highest_weight_vectors(img.module)
    assert list(hw) == [(2, 0)]


def test_jimbo_output_satisfies_relations(ctx2):
    img = jimbo_J(one_dimensional_module(ctx2, 2, -1), 2)
    rep = verify_finite_relations(img.module)
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("ell", [2, 3])
def test_jimbo_relations_match_their_definition(ctx2, ell):
    # in the block of each sorted tensor e_mu, the rows of sigma_i - q^2 for
    # every i inside a block of mu
    M = hecke_regular_module(ctx2, ell)
    img = jimbo_J(M, 2)
    words = [w for w in product(range(3), repeat=ell) if list(w) == sorted(w)]
    assert list(img.blocks) == [sum(r * 3 ** (ell - 1 - s) for s, r in enumerate(w))
                                for w in words]
    vectors = []
    for b, w in enumerate(words):
        for i in range(1, ell):
            if w[i - 1] == w[i]:
                K = M.sigma[i - 1] - Matrix.identity(ctx2, M.dim).scale(ctx2.q_power(2))
                vectors += [{b * M.dim + j: x for j, x in row.items()} for row in K.rows]
    assert img.relations == span(ctx2, len(words) * M.dim, vectors)


@pytest.mark.parametrize("ell", [2, 3])
def test_jimbo_quotient_is_the_tensor_product_over_the_hecke_algebra(ctx2, ell):
    # m.sigma_i (x) v = m (x) Rcheck_i v in J(M) for every basis m, v
    M = hecke_regular_module(ctx2, ell)
    img = jimbo_J(M, 2)
    one = ctx2.one
    for i in range(1, ell):
        R = rcheck_i(ctx2, 2, ell, i)
        for m in range(M.dim):
            for v in range(img.tensor.dim):
                lhs = {}
                for k, c in M.sigma[i - 1].rows[m].items():
                    lhs = vec_add(lhs, {j: c * x for j, x in img.embed(k, {v: one}).items()})
                assert lhs == img.embed(m, R.apply_col({v: one}))


def _block_dims(img) -> list:
    dims = [0] * len(img.blocks)
    for c in img.relations.free_columns():
        dims[c // img.source.dim] += 1
    return dims


@pytest.mark.parametrize("source", ["regular", "rogawski"])
def test_block_dimension_is_the_rank_of_the_symmetrizer(source):
    # J(M)_mu = M / sum M(sigma_i - q^2) has dimension rank rho_M(x_mu),
    # x_mu the sum of sigma_w over S_mu
    ctx3 = ScalarContext(3)
    M = hecke_regular_module(ctx3, 3) if source == "regular" else rogawski_quotient(ctx3, (2, 1))
    img = jimbo_J(M, 3)
    ranks = []
    for w in combinations_with_replacement(range(4), 3):
        mu = [w.count(r) for r in range(4) if r in w]
        x = HeckeElt(ctx3, 3, {p: ctx3.one for p in elements_of_parabolic(mu)})
        ranks.append(rank(M.act_elt(x)))
    assert _block_dims(img) == ranks
    assert sum(ranks) == img.module.dim


def test_jimbo_J_shares_the_tensor_power_per_context_and_ell():
    ctx = ScalarContext(2)
    M = hecke_regular_module(ctx, 2)
    for wrong in (1, 3):  # a mismatched rank raises before the cache is read
        with pytest.raises(ValueError):
            jimbo_J(M, wrong)
    img = jimbo_J(M, 2)
    again = jimbo_J(one_dimensional_module(ctx, 2, -1), 2)
    assert again.tensor is img.tensor and again.base is img.base
    assert jimbo_J(hecke_regular_module(ctx, 3), 2).tensor is not img.tensor
    other = ScalarContext(2)
    assert jimbo_J(hecke_regular_module(other, 2), 2).tensor is not img.tensor
    for wrong in (1, 3):  # and still after a cached call on that context
        with pytest.raises(ValueError):
            jimbo_J(M, wrong)


def test_push_ambient_operator_checks_invariance(ctx2):
    # a term acting on M is certified: sigma_1 (x) 1 keeps M(sigma_1 - q^2),
    # a matrix unit that does not commute with sigma_1 does not
    M = hecke_regular_module(ctx2, 2)
    img = jimbo_J(M, 2)
    one = Matrix.identity(ctx2, img.tensor.dim)
    sigma = M.sigma[0]
    img.push_ambient_operator([(sigma, one)])
    unit = Matrix(ctx2, M.dim, M.dim)
    unit.set_entry(0, 0, ctx2.one)
    assert unit * sigma != sigma * unit
    with pytest.raises(ValueError, match="does not carry the subspace"):
        img.push_ambient_operator([(unit, one)])


def test_diagonal_generators_never_build_an_ambient_operator(monkeypatch):
    # the k_i^+-1, t_r and k_0^+-1 are read off the block scalars; only the
    # x_i^+- and the loop operators x_0^+- are read through their images
    seen = []
    build = JimboImage.image

    def recording(self, terms):
        seen.extend(X for _, X in terms)
        return build(self, terms)

    monkeypatch.setattr(JimboImage, "image", recording)
    ctx = ScalarContext(2)
    jimbo_J(hecke_regular_module(ctx, 3), 2)
    W = functor_F(universal_module(ctx, [ctx.scalar(2), ctx.scalar(-3)]), 2)
    # x_i^+- of both images, and one term per slot for each of x_0^+-
    assert W.k0 is not None and len(seen) == 4 + 4 + 2 + 2
    assert not any(all(row.keys() <= {i} for i, row in enumerate(X.rows)) for X in seen)


# -- weight tools ------------------------------------------------------------


def test_highest_weight_vectors_tensor_square(ctx1):
    T = tensor_rep(natural_rep(ctx1, 1), 2)
    hw = highest_weight_vectors(T)
    assert set(hw) == {(2,), (0,)}
    v = hw[(0,)][0]
    c1, c2 = v[1], v[2]
    assert c2 / c1 == -ctx1.q_power(-1)


def test_weight_of_top_vector(ctx1):
    T = tensor_rep(natural_rep(ctx1, 1), 2)
    assert T.weights[0] == (2,)  # v1 (x) v1 has weight 2 eps_1


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_weights_are_read_off_the_k_diagonal_exactly(t0):
    c = ScalarContext(1, t0=t0)

    def line(k):
        zero = Matrix.zero(c, 1, 1)
        return UqModule(c, 1, 1, [zero], [zero], [Matrix.diagonal(c, [k])],
                        [Matrix.diagonal(c, [k.inverse()])])

    assert line(c.q_power(-3)).weights == [(-3,)]
    # none is a power of q; the first differs from q^2 by 10^-30
    for k in (c.q_power(2) + c.scalar(Fraction(1, 10 ** 30)), -c.q_power(2), c.scalar(2)):
        W = line(k)
        assert W.weights is None
        with pytest.raises(ValueError):
            weight_decomposition(W)


def test_weights_next_to_t_equal_one_are_the_symbolic_weights():
    # this close to t = 1 a float logarithm of q^m would not round to m
    symbolic = tensor_rep(natural_rep(ScalarContext(2), 2), 3).weights
    c = ScalarContext(2, t0=1 + Fraction(1, 10 ** 13))
    assert tensor_rep(natural_rep(c, 2), 3).weights == symbolic


def test_weight_level():
    assert weight_level(fundamental_weight(3, 2)) == 2
    assert weight_level((2, 0)) == 2
    assert weight_level((0, 1, 0)) == 2


def test_weight_decomposition_covers_basis(ctx2):
    T = tensor_rep(natural_rep(ctx2, 2), 2)
    decomp = weight_decomposition(T)
    assert sum(len(v) for v in decomp.values()) == T.dim


def test_weights_are_symmetric_multisets(ctx2):
    # weights of J(regular) match the full tensor power weight multiset
    img = jimbo_J(hecke_regular_module(ctx2, 2), 2)
    T = tensor_rep(natural_rep(ctx2, 2), 2)
    assert sorted(img.module.weights) == sorted(T.weights)


def test_distinct_tensor_basis_vector_generates_everything(ctx2):
    # a pure tensor with distinct factors is cyclic for the whole power
    T = tensor_rep(natural_rep(ctx2, 2), 2)
    idx = 0 * 3 + 1  # v_1 (x) v_2
    assert spin_module(T, {idx: ctx2.one}).dim == T.dim


def test_weight_tools_bundle(ctx1):
    T = tensor_rep(natural_rep(ctx1, 1), 2)
    highest = highest_weight_vectors(T)
    assert sum(len(v) for v in weight_decomposition(T).values()) == T.dim
    assert set(highest) == {(2,), (0,)}
    assert {w: weight_level(w) for w in highest} == {(2,): 2, (0,): 0}
