import random
from fractions import Fraction

import pytest

from qschur.affine_hecke import (
    hecke_regular_module,
    one_dimensional_affine_module,
    one_dimensional_module,
    universal_module,
    zelevinsky_induce,
)
from qschur.affinization import (
    affine_cartan,
    evaluation_natural,
    finite_cartan,
    functor_F,
    jimbo_eval_pullback,
    tensor_affine,
    tensor_affine_chain,
    theorem55_check,
    verify_affine_relations,
    verify_central_element,
    verify_finite_relations,
)
from qschur.linalg import Matrix
from qschur.module_tools import are_isomorphic
from qschur.scalars import ScalarContext
from qschur.uq_rep import UqModule, natural_rep, rcheck, tensor_rep


@pytest.fixture(scope="module")
def ctx2():
    return ScalarContext(2)


def test_affine_cartan_shapes():
    assert affine_cartan(1) == [[2, -2], [-2, 2]]
    a = affine_cartan(2)
    assert a[0][1] == a[1][0] == -1 and a[0][2] == -1
    a = affine_cartan(3)
    assert a[0][2] == 0 and a[0][1] == a[0][3] == -1


def test_natural_evaluation_module(ctx2):
    V = natural_rep(ctx2, 2)
    a = ctx2.scalar(3)
    W = evaluation_natural(ctx2, 2, a)
    assert W.x0p == V.xtheta_m.scale(a)
    assert W.x0m == V.xtheta_p.scale(a.inverse())
    rep = verify_affine_relations(W)
    assert rep.passed, rep.failures()
    assert verify_central_element(W)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_natural_evaluation_all_ranks(n):
    c = ScalarContext(n)
    for a in (c.one, c.q, c.scalar(2)):
        rep = verify_affine_relations(evaluation_natural(c, n, a))
        assert rep.passed, (n, rep.failures())


def test_functor_ell_one_is_evaluation(ctx2):
    a = ctx2.scalar(3)
    M = one_dimensional_affine_module(ctx2, [a])
    W = functor_F(M, 2)
    V3 = evaluation_natural(ctx2, 2, a)
    assert are_isomorphic(W, V3) is not None


def test_functor_requires_valid_source(ctx2):
    M = universal_module(ctx2, (ctx2.one, ctx2.scalar(2)))
    broken = type(M)(
        ctx2, "Hhat", 2, 2, M.sigma, [M.y[0], M.y[0]], M.y_inv
    )  # y_2 replaced: relations must fail
    with pytest.raises(ValueError):
        functor_F(broken, 2)


@pytest.mark.parametrize("n,ell", [(1, 2), (2, 2), (2, 3)])
def test_functor_relation_suite(n, ell):
    rng = random.Random(n * 10 + ell)
    c = ScalarContext(n)
    avec = tuple(c.scalar(rng.randint(1, 9)) for _ in range(ell))
    W = functor_F(universal_module(c, avec), n, check_source=False)
    rep = verify_affine_relations(W)
    assert rep.passed, rep.failures()
    assert verify_central_element(W)


def test_functor_relation_suite_at_ell_4():
    # F(M_(2,3,5,7)) at n = 2: dim 81, where the generic quotient of
    # M (x) V^(x 4) has an ambient of dimension 24 * 81 = 1944
    c = ScalarContext(2)
    W = functor_F(universal_module(c, [c.scalar(a) for a in (2, 3, 5, 7)]), 2,
                  check_source=False)
    assert W.dim == 81
    rep = verify_affine_relations(W)
    assert rep.passed, rep.failures()
    assert verify_central_element(W)


def test_perturbed_loop_generator_fails(ctx2):
    M = universal_module(ctx2, (ctx2.one, ctx2.scalar(5)))
    W = functor_F(M, 2, check_source=False)
    W2 = UqModule(
        ctx2, 2, W.dim, W.xp, W.xm, W.k, W.kinv, t=W.t,
        x0p=W.x0p.scale(ctx2.scalar(2)), x0m=W.x0m, k0=W.k0, k0inv=W.k0inv,
    )
    rep = verify_affine_relations(W2)
    assert not rep.passed
    assert any("[x+0,x-0]" in f for f in rep.failures())


def test_loop_exchange_identity():
    # Rcheck (1 (x) xtheta^-) = (xtheta^- (x) ktheta^{-1}) Rcheck on V (x) V
    for n in (1, 2, 3):
        c = ScalarContext(n)
        V = natural_rep(c, n)
        R = rcheck(c, n)
        eye = Matrix.identity(c, n + 1)
        kthinv = Matrix.diagonal(
            c, [V.ktheta.entry(r, r).inverse() for r in range(n + 1)]
        )
        assert R * eye.kron(V.xtheta_m) == V.xtheta_m.kron(kthinv) * R


def test_functor_on_universal_matches_tensor_product(ctx2):
    avec = (ctx2.one, ctx2.scalar(5))
    W = functor_F(universal_module(ctx2, avec), 2, check_source=False)
    prod = tensor_affine_chain([evaluation_natural(ctx2, 2, a) for a in avec])
    rep = verify_affine_relations(prod)
    assert rep.passed
    assert are_isomorphic(W, prod) is not None


def test_tensor_affine_passes_relations(ctx2):
    A = evaluation_natural(ctx2, 2, ctx2.one)
    B = evaluation_natural(ctx2, 2, ctx2.q)
    T = tensor_affine(A, B)
    rep = verify_affine_relations(T)
    assert rep.passed, rep.failures()
    assert verify_central_element(T)


def test_jimbo_eval_finite_part_untouched(ctx2):
    V = natural_rep(ctx2, 2)
    W = jimbo_eval_pullback(V, ctx2.scalar(2))
    for a, b in zip(W.xp + W.xm + W.k, V.xp + V.xm + V.k):
        assert a == b
    # k_0 = (k_1 k_2)^{-1}
    assert W.k0 == V.kinv[0] * V.kinv[1]
    rep = verify_affine_relations(W)
    assert rep.passed, rep.failures()


def test_jimbo_eval_needs_torus(ctx2):
    V = natural_rep(ctx2, 2)
    stripped = UqModule(ctx2, 2, V.dim, V.xp, V.xm, V.k, V.kinv)
    with pytest.raises(ValueError):
        jimbo_eval_pullback(stripped, ctx2.one)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jimbo_eval_relation_suite(n):
    c = ScalarContext(n)
    W = jimbo_eval_pullback(natural_rep(c, n), c.scalar(2))
    rep = verify_affine_relations(W)
    assert rep.passed, (n, rep.failures())


def test_theorem55_one_dimensional_sources(ctx2):
    for val in (ctx2.q_power(2), ctx2.scalar(-1)):
        M = one_dimensional_module(ctx2, 2, val)
        T, lhs, rhs = theorem55_check(M, ctx2.q, 2)
        assert T is not None


def test_theorem55_regular_sources(ctx2):
    for ell in (1, 2):
        M = hecke_regular_module(ctx2, ell)
        for a in (ctx2.one, ctx2.scalar(2)):
            T, lhs, rhs = theorem55_check(M, a, 2)
            assert T is not None, (ell, str(a))


def test_theorem55_mismatched_routes_give_none(ctx2, monkeypatch):
    # the check compares the two routes' matrices literally; a Jimbo route
    # evaluated at the wrong parameter must not pass
    import qschur.affinization as aff

    right_route = aff.jimbo_eval_pullback
    monkeypatch.setattr(aff, "jimbo_eval_pullback", lambda W, a: right_route(W, a * 2))
    T, lhs, rhs = theorem55_check(hecke_regular_module(ctx2, 2), ctx2.q, 2)
    assert T is None and lhs.dim == rhs.dim


def test_theorem55_needs_small_ell(ctx2):
    with pytest.raises(ValueError):
        theorem55_check(hecke_regular_module(ctx2, 3), ctx2.one, 2)


def test_theorem55_trivial_source_other_ranks():
    # ell = 1 with the one-dimensional source works at any rank
    for n in (1, 3):
        c = ScalarContext(n)
        M = hecke_regular_module(c, 1)
        T, lhs, rhs = theorem55_check(M, c.scalar(2), n)
        assert T is not None
        assert lhs.dim == rhs.dim == n + 1


def test_uq_module_json_round_trip(ctx2):
    W = functor_F(universal_module(ctx2, (ctx2.one, ctx2.scalar(3))), 2,
                  check_source=False)
    back = UqModule.from_json(ctx2, W.to_json())
    assert back.dim == W.dim
    assert back.weights == W.weights
    rep = verify_affine_relations(back)
    assert rep.passed
    assert are_isomorphic(W, back) is not None


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])
def test_uq_module_equals_its_json_round_trip(t0):
    # the x_theta^+-, k_theta metadata of natural_rep is not written by
    # to_json, so it must not take part in ==
    ctx = ScalarContext(2, t0=t0)
    V = natural_rep(ctx, 2)
    for W in (V, evaluation_natural(ctx, 2, ctx.scalar(3)), tensor_rep(V, 2),
              functor_F(universal_module(ctx, (ctx.one, ctx.scalar(3))), 2)):
        assert UqModule.from_json(ctx, W.to_json()) == W


def test_functor_of_induction_is_tensor(ctx2):
    a1, a2 = ctx2.one, ctx2.scalar(7)
    M1 = one_dimensional_affine_module(ctx2, [a1])
    M2 = one_dimensional_affine_module(ctx2, [a2])
    Z = zelevinsky_induce(M1, M2)
    FZ = functor_F(Z, 2, check_source=False)
    prod = tensor_affine(
        functor_F(M1, 2, check_source=False), functor_F(M2, 2, check_source=False)
    )
    assert FZ.dim == 3 * 3
    assert are_isomorphic(FZ, prod) is not None


def test_quartic_serre_for_rank_one():
    # the double bond makes the loop Serre relations quartic; exercise them
    # on a two-site affinized module
    c = ScalarContext(1)
    M = universal_module(c, (c.one, c.scalar(3)))
    W = functor_F(M, 1, check_source=False)
    rep = verify_affine_relations(W)
    assert rep.passed, rep.failures()
    names = [name for name, _, _ in rep.results]
    assert any(name.startswith("serre(x+0,x+1)") for name in names)


# -- reference evaluation of the relation suite ----------------------------------
#
# A direct transcription of the defining relations: every Serre term is
# x_i^r x_j x_i^(p-r) with identity-padded powers, its coefficient is a
# q-binomial computed afresh from q-powers, and the bracket-Serre matrix is
# the nested q^(1/2)-bracket itself.  The library shares words and caches
# q-numbers; both must give the same ordered (name, ok, position) list.


def _direct_q_binom(ctx, m, r):
    def q_int(k):
        return (ctx.q_power(k) - ctx.q_power(-k)) / (ctx.q - ctx.q_power(-1))

    out = ctx.one
    for i in range(r):
        out = out * q_int(m - i)
    for i in range(1, r + 1):
        out = out / q_int(i)
    return out


def _direct_bracket(ctx, a, b):
    return (a * b).scale(ctx.q_half) - (b * a).scale(ctx.q_power(Fraction(-1, 2)))


def _direct_suite(ctx, labels, cartan, xp, xm, k, kinv, dim, bracket_serre):
    eye = Matrix.identity(ctx, dim)
    res = []

    def check(name, m):
        pos = next(((i, min(r)) for i, r in enumerate(m.rows) if r), None)
        res.append((name, pos is None, pos))

    idx = range(len(labels))
    for i in idx:
        check(f"k{labels[i]}*k{labels[i]}inv=1", k[i] * kinv[i] - eye)
    for i in idx:
        for j in idx:
            if i < j:
                check(f"k{labels[i]}*k{labels[j]} commute", k[i] * k[j] - k[j] * k[i])
    for i in idx:
        for j in idx:
            a = cartan[i][j]
            check(f"k{labels[i]} x+{labels[j]} k{labels[i]}inv = q^{a} x+{labels[j]}",
                  k[i] * xp[j] * kinv[i] - xp[j].scale(ctx.q_power(a)))
            check(f"k{labels[i]} x-{labels[j]} k{labels[i]}inv = q^{-a} x-{labels[j]}",
                  k[i] * xm[j] * kinv[i] - xm[j].scale(ctx.q_power(-a)))
    for i in idx:
        for j in idx:
            comm = xp[i] * xm[j] - xm[j] * xp[i]
            if i == j:
                rhs = (k[i] - kinv[i]).scale((ctx.q - ctx.q_power(-1)).inverse())
                check(f"[x+{labels[i]},x-{labels[i]}]=(k-kinv)/(q-qinv)", comm - rhs)
            else:
                check(f"[x+{labels[i]},x-{labels[j]}]=0", comm)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            p = 1 - cartan[i][j]
            for sign, xs in (("+", xp), ("-", xm)):
                pows = [eye]
                for _ in range(p):
                    pows.append(pows[-1] * xs[i])
                total = Matrix.zero(ctx, dim, dim)
                for r in range(p + 1):
                    coeff = _direct_q_binom(ctx, p, r)
                    if r % 2:
                        coeff = -coeff
                    total = total + (pows[r] * xs[j] * pows[p - r]).scale(coeff)
                check(f"serre(x{sign}{labels[i]},x{sign}{labels[j]})", total)
            if bracket_serre and cartan[i][j] == -1:
                for sign, xs in (("+", xp), ("-", xm)):
                    inner = _direct_bracket(ctx, xs[j], xs[i])
                    check(f"bracket-serre [x{sign}{labels[i]},[x{sign}{labels[j]},"
                          f"x{sign}{labels[i]}]]", _direct_bracket(ctx, xs[i], inner))
    return res


def _perturbed(M, ctx, i, j):
    """M plus the matrix unit E_ij."""
    out = M.copy()
    out.add_to_entry(i, j, ctx.one)
    return out


def _is_diagonal(m):
    return all(r.keys() <= {i} for i, r in enumerate(m.rows))


def _affine_suite(W):
    """The affine relations of W by direct evaluation (_direct_suite)."""
    return _direct_suite(
        W.ctx, [str(i) for i in range(W.n + 1)], affine_cartan(W.n), [W.x0p] + W.xp,
        [W.x0m] + W.xm, [W.k0] + W.k, [W.k0inv] + W.kinv, W.dim, bracket_serre=W.n >= 2,
    )


def _with(W, **gens):
    """W with the named generators (as generators() names them) replaced."""
    return UqModule.from_generators(W.ctx, W.n, W.dim, {**W.generators(), **gens})


def _row_witness_input(W):
    """(r, lo, hi): a row r of x_0^+ and columns lo < hi outside it at which
    k_0[s] = k_0[r], so k_0 x k_0^-1 = q^2 x fails there."""
    k0 = W.k0
    for r, row in enumerate(W.x0p.rows):
        cols = [s for s in range(W.dim) if s not in row and k0.entry(s, s) == k0.entry(r, r)]
        if row and len(cols) >= 2:
            return r, cols[0], cols[1]
    raise AssertionError("no row with two same-weight free columns")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("perturb, t0", [
    pytest.param(p, t0, id=str(p) if t0 is None else f"{p}-t=5/3")
    for t0 in (None, Fraction(5, 3))
    for p in (False, True, "k1", "k1inv", "k1q", "k0zero", "x0row", "x1m")])
def test_relation_suite_matches_direct_evaluation(n, perturb, t0):
    # perturb: nothing (False), one entry of x_0^+ (True), one diagonal entry
    # of k_1 plus one ("k1") or of k_1^-1 ("k1inv"), one diagonal entry of
    # k_1 times q ("k1q"), a zero diagonal entry of k_0 ("k0zero"), two
    # entries of one row of x_0^+ ("x0row"), or one entry of x_1^- ("x1m").
    # Every k stays diagonal.  "k1", "k1inv" and "k0zero" leave an entry
    # that is no power of q, so the Cartan relations take the matrix
    # products; the other inputs keep every k a diagonal of powers of q, so
    # they are decided on exponents
    c = ScalarContext(n, t0=t0)
    W = functor_F(universal_module(c, (c.scalar(2), c.scalar(Fraction(-3, 4)))), n,
                  check_source=False)
    if perturb is True:
        W = _with(W, **{"x+0": _perturbed(W.x0p, c, 0, W.dim - 1)})
    elif perturb == "k1":
        W = _with(W, k1=_perturbed(W.k[0], c, 0, 0))
    elif perturb == "k1inv":
        W = _with(W, k1inv=_perturbed(W.kinv[0], c, 0, 0))
    elif perturb == "k1q":
        k1 = W.k[0].copy()
        k1.set_entry(0, 0, k1.entry(0, 0) * c.q)
        W = _with(W, k1=k1)
    elif perturb == "k0zero":
        k0 = W.k0.copy()
        k0.set_entry(1, 1, c.zero)
        W = _with(W, k0=k0)
    elif perturb == "x0row":
        r, lo, hi = _row_witness_input(W)
        x = _perturbed(_perturbed(W.x0p, c, r, hi), c, r, lo)
        keys = list(x.rows[r])
        assert keys.index(hi) < keys.index(lo)  # the first failing key is not the least
        W = _with(W, **{"x+0": x})
    elif perturb == "x1m":
        W = _with(W, **{"x-1": _perturbed(W.xm[0], c, 1, 0)})
    assert all(_is_diagonal(m) for m in [W.k0, W.k0inv] + W.k + W.kinv)
    got = verify_affine_relations(W).results
    assert got == _affine_suite(W)
    assert any(name.startswith("serre(x+0,") for name, _, _ in got)
    failed = {name for name, ok, _ in got if not ok}
    if perturb is True:
        assert any(name.startswith("serre(") for name in failed)
        assert n == 1 or any(name.startswith("bracket-serre") for name in failed)
    elif perturb in ("k1", "k1inv", "k1q"):
        assert {"k1*k1inv=1", "[x+1,x-1]=(k-kinv)/(q-qinv)"} <= failed
        assert any(name.startswith("k1 x+") for name in failed)
        assert dict((name, pos) for name, _, pos in got)["k1*k1inv=1"] == (0, 0)
    elif perturb == "k0zero":
        assert dict((name, pos) for name, _, pos in got)["k0*k0inv=1"] == (1, 1)
        assert "[x+0,x-0]=(k-kinv)/(q-qinv)" in failed
    elif perturb == "x0row":
        assert dict((name, pos) for name, _, pos in got)["k0 x+0 k0inv = q^2 x+0"] == (r, lo)
    elif perturb == "x1m":
        assert "serre(x-0,x-1)" in failed
        assert n == 1 or "bracket-serre [x-0,[x-1,x-0]]" in failed
    else:
        assert not failed


def _unitriangular(ctx, dim):
    """(P, P^-1): P all ones on and above the diagonal, P^-1 = 1 - the shift."""
    P = Matrix.from_triplets(ctx, dim, dim, [[i, j, "1"] for i in range(dim)
                                             for j in range(i, dim)])
    P_inv = Matrix.from_triplets(ctx, dim, dim, [[i, i, "1"] for i in range(dim)]
                                 + [[i, i + 1, "-1"] for i in range(dim - 1)])
    return P, P_inv


def _conjugated(W, P, P_inv):
    return UqModule.from_generators(
        W.ctx, W.n, W.dim, {name: P * g * P_inv for name, g in W.generators().items()})


@pytest.mark.parametrize("t0", [None, Fraction(5, 3)])
def test_relation_suite_with_non_diagonal_k(t0):
    # F(M_a) conjugated by a unitriangular integer P: no k_i is diagonal, so
    # the Cartan relations are matrix products; a relation holds or fails
    # alike on W and P W P^-1, only the witnesses move
    c = ScalarContext(2, t0=t0)
    W = functor_F(universal_module(c, (c.scalar(2), c.scalar(Fraction(-3, 4)))), 2,
                  check_source=False)
    V = _conjugated(W, *_unitriangular(c, W.dim))
    assert not any(_is_diagonal(m) for m in [V.k0, V.k0inv] + V.k + V.kinv)
    rep = verify_affine_relations(V)
    assert rep.passed, rep.failures()
    assert rep.results == _affine_suite(V)
    for bad in (_with(V, k1=_perturbed(V.k[0], c, 0, 0)),
                _with(V, **{"x+0": _perturbed(V.x0p, c, 0, V.dim - 1)})):
        got = verify_affine_relations(bad).results
        assert got == _affine_suite(bad)
        assert any(not ok for _, ok, _ in got)


def test_relation_suite_with_one_non_diagonal_k():
    # V (x) V at n = 2 conjugated by 1 + E_ab, e_a and e_b of equal k_2 but
    # different k_1 weight: k_1^(+-1) alone are not diagonal, so every Cartan
    # relation is a product again
    c = ScalarContext(2)
    T = tensor_rep(natural_rep(c, 2), 2)
    k1, k2 = T.k
    a, b = next((a, b) for a in range(T.dim) for b in range(T.dim)
                if k2.entry(a, a) == k2.entry(b, b) and k1.entry(a, a) != k1.entry(b, b))
    P = Matrix.identity(c, T.dim)
    P.set_entry(a, b, c.one)
    P_inv = Matrix.identity(c, T.dim)
    P_inv.set_entry(a, b, -c.one)
    V = _conjugated(T, P, P_inv)
    assert [_is_diagonal(m) for m in V.k + V.kinv] == [False, True, False, True]

    def suite(U):
        return _direct_suite(c, ["1", "2"], finite_cartan(2), U.xp, U.xm, U.k, U.kinv,
                             U.dim, bracket_serre=True)

    rep = verify_finite_relations(V)
    assert rep.passed, rep.failures()
    assert rep.results == suite(V)
    for bad in (_with(V, k2=_perturbed(V.k[1], c, b, b)),
                _with(V, **{"x-1": _perturbed(V.xm[0], c, a, b)})):
        got = verify_finite_relations(bad).results
        assert got == suite(bad)
        assert any(not ok for _, ok, _ in got)


def test_finite_relation_suite_matches_direct_evaluation():
    c = ScalarContext(2)
    T = tensor_rep(natural_rep(c, 2), 2)
    xp = [_perturbed(T.xp[0], c, 0, 2)] + T.xp[1:]
    P = UqModule(c, 2, T.dim, xp, T.xm, T.k, T.kinv)
    got = verify_finite_relations(P).results
    want = _direct_suite(c, ["1", "2"], finite_cartan(2), xp, T.xm, T.k, T.kinv, T.dim,
                         bracket_serre=True)
    assert got == want
    assert any(not ok for name, ok, _ in got if name.startswith("bracket-serre"))
