"""Jimbo's functor and its loop extension against the generic quotient.

The library builds J(M) as (+)_mu M / M(sigma_i - q^2); ``jimbo_reference``
eliminates the Rcheck-relations over M (x) V^(x ell).  Both must give the
same module up to an intertwiner, which is re-checked on every generator.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from jimbo_reference import (
    reference_ambient_operator,
    reference_functor_F,
    reference_jimbo_J,
    reference_lift,
)
from qschur.affine_hecke import hecke_regular_module, one_dimensional_module, universal_module
from qschur.affinization import _loop_operators, functor_F
from qschur.classification import rogawski_quotient
from qschur.linalg import Matrix, SubspaceBasis
from qschur.module_tools import are_isomorphic, character
from qschur.scalars import ScalarContext
from qschur.uq_rep import dominant_highest_weights, jimbo_J

BACKENDS = pytest.mark.parametrize("t0", [None, Fraction(5, 3)], ids=["symbolic", "t=5/3"])


def assert_same_module(W, ref):
    T = are_isomorphic(W, ref)
    assert T is not None
    ours, theirs = W.generators(), ref.generators()
    assert ours.keys() == theirs.keys()
    for name, g in ours.items():
        assert T * g == theirs[name] * T, name
    assert character(W) == character(ref)
    assert dominant_highest_weights(W) == dominant_highest_weights(ref)


def assembled(img, terms):
    """The ambient matrix whose column c is img.image(terms)(c)."""
    image, size = img.image(terms), img.relations.ambient
    return Matrix(img.source.ctx, size, size, [image(c) for c in range(size)]).transpose()


@BACKENDS
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_functor_F_matches_the_reference(t0, n, ell):
    # the strata of the benchmark's relations workload, at generic parameters
    ctx = ScalarContext(n, t0=t0)
    M = universal_module(ctx, [ctx.scalar(a) for a in (2, -3, 7)[:ell]])
    assert_same_module(functor_F(M, n, check_source=False), reference_functor_F(M, n))


@BACKENDS
@pytest.mark.parametrize("source", ["regular", "sign", "trivial", "rogawski"])
def test_jimbo_J_matches_the_reference(t0, source):
    ctx = ScalarContext(3, t0=t0)
    M = {
        "regular": lambda: hecke_regular_module(ctx, 3),
        "sign": lambda: one_dimensional_module(ctx, 3, -1),
        "trivial": lambda: one_dimensional_module(ctx, 3, ctx.q_power(2)),
        "rogawski": lambda: rogawski_quotient(ctx, (2, 1)),
    }[source]()
    assert_same_module(jimbo_J(M, 3).module, reference_jimbo_J(M, 3).module)


LIFT_SOURCES = {
    "regular-H2": lambda ctx: hecke_regular_module(ctx, 2),
    "regular-H3": lambda ctx: hecke_regular_module(ctx, 3),
    "rogawski-21": lambda ctx: rogawski_quotient(ctx, (2, 1)),
}


@BACKENDS
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("source", sorted(LIFT_SOURCES))
def test_memoized_lift_matches_the_bubble_sort(t0, n, source):
    ctx = ScalarContext(n, t0=t0)
    M = LIFT_SOURCES[source](ctx)
    img = jimbo_J(M, n)
    for c in (None, ctx.scalar(Fraction(-2, 7)) * ctx.q):
        for m in range(M.dim):
            for u in range(img.tensor.dim):
                assert img.lift({m: ctx.one}, u, c) == reference_lift(img, {m: ctx.one}, u, c)
    for name, X in img.tensor.generators().items():
        terms = [(None, X)]
        assert assembled(img, terms) == reference_ambient_operator(img, terms), name


@BACKENDS
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ell", [2, 3])
def test_loop_operators_match_the_bubble_sort(t0, n, ell):
    ctx = ScalarContext(n, t0=t0)
    M = universal_module(ctx, [ctx.scalar(a) for a in (2, -3, 7)[:ell]])
    img = jimbo_J(M.restrict_to_finite(), n)
    yplus, yminus, k0t, k0invt = _loop_operators(img)
    for terms in (list(zip(M.y, yplus)), list(zip(M.y_inv, yminus)),
                  [(None, k0t)], [(None, k0invt)]):
        assert assembled(img, terms) == reference_ambient_operator(img, terms)


@BACKENDS
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("source", sorted(LIFT_SOURCES))
def test_push_diagonal_matches_the_descended_ambient_operator(t0, n, source):
    # the one push reads a lone diagonal term off the block scalars and
    # descends everything else: both routes equal the certified descent
    ctx = ScalarContext(n, t0=t0)
    img = jimbo_J(LIFT_SOURCES[source](ctx), n)
    T = img.tensor
    _, _, k0t, k0invt = _loop_operators(img)
    for X in T.k + T.kinv + T.t + [k0t, k0invt] + T.xp + T.xm:
        ours = img.push_ambient_operator([(None, X)])
        ref = img.relations.descend(img.image([(None, X)]), check=True)
        assert ours == ref
        assert ours.to_triplets() == ref.to_triplets()


def test_jimbo_image_refuses_a_row_across_two_blocks():
    ctx = ScalarContext(2)
    img = jimbo_J(hecke_regular_module(ctx, 2), 2)
    dim = img.source.dim
    # a relation row joining block 0 to block 1: a k_i with distinct scalars
    # on the two blocks moves it off the span
    rel = SubspaceBasis(ctx, img.relations.ambient)
    rel.add({0: ctx.one, dim: ctx.one})
    with pytest.raises(ValueError, match="leaves its block"):
        replace(img, relations=rel)
    k = next(X for X in img.tensor.k if X.entry(0, 0) != X.entry(1, 1))
    assert list(img.blocks)[:2] == [0, 1]
    with pytest.raises(ValueError, match="does not carry the subspace"):
        rel.descend(img.image([(None, k)]), check=True)
