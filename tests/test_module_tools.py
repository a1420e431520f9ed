import pytest

from qschur.affine_hecke import one_dimensional_module, universal_module
from qschur.module_tools import (
    are_isomorphic,
    character,
    is_irreducible,
    proper_submodule,
    spin_module,
    verify_submodule_certificate,
)
from qschur.scalars import ScalarContext
from qschur.uq_rep import jimbo_J, natural_rep, tensor_rep


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


def test_density_certificate_without_theta_budget():
    # budget=0 skips every singular candidate, so only the density test remains
    c = ScalarContext(2)
    ok, cert = is_irreducible(natural_rep(c, 2), budget=0)
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


def test_are_isomorphic_identity(ctx, vv):
    T = are_isomorphic(vv, vv)
    assert T is not None


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


def test_character_of_trivial_module():
    from qschur.linalg import Matrix
    from qschur.uq_rep import UqModule

    c = ScalarContext(2)
    zero = Matrix.zero(c, 1, 1)
    one = Matrix.identity(c, 1)
    triv = UqModule(c, 2, 1, [zero, zero], [zero, zero], [one, one], [one, one],
                    weights=[(0, 0)])
    assert character(triv) == {(0, 0): 1}
