import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qschur.affine_hecke import (
    AffHeckeElt,
    RightModule,
    cherednik_pullback,
    hecke_regular_module,
    one_dimensional_affine_module,
    one_dimensional_module,
    universal_module,
    verify_module_relations,
    zelevinsky_induce,
    zelevinsky_induce_finite,
)
from qschur.checks import _induced_by_quotient
from qschur.hecke import HeckeElt
from qschur.linalg import Matrix
from qschur.module_tools import are_isomorphic, is_irreducible
from qschur.scalars import ScalarContext
from qschur.symgroup import all_perms


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(2)


# -- straightening ----------------------------------------------------------


def test_primary_moves(ctx):
    s1 = AffHeckeElt.sigma(ctx, 2, 1)
    y1 = AffHeckeElt.y(ctx, 2, 1)
    y2 = AffHeckeElt.y(ctx, 2, 2)
    q2m1 = ctx.q_power(2) - ctx.one
    assert s1 * y1 == y2 * s1 - y2.scale(q2m1)
    assert s1 * y2 == y1 * s1 + y2.scale(q2m1)


def test_already_normal(ctx):
    y1 = AffHeckeElt.y(ctx, 2, 1)
    s1 = AffHeckeElt.sigma(ctx, 2, 1)
    nf = y1 * s1
    assert len(nf.terms) == 1


def test_defining_relation_normal_form(ctx):
    # sigma_1 y_1 sigma_1 = q^2 y_2, recovered through straightening
    s1 = AffHeckeElt.sigma(ctx, 2, 1)
    y1 = AffHeckeElt.y(ctx, 2, 1)
    assert s1 * y1 * s1 == AffHeckeElt.y(ctx, 2, 2).scale(ctx.q_power(2))


def test_inverse_moves_substitution_oracle(ctx):
    # each derived inverse move, multiplied back by the variable, returns sigma
    s1 = AffHeckeElt.sigma(ctx, 2, 1)
    for j in (1, 2):
        moved = s1 * AffHeckeElt.y(ctx, 2, j, -1)
        assert moved * AffHeckeElt.y(ctx, 2, j) == s1
    # and the inverse of the defining relation holds
    e = AffHeckeElt.one(ctx, 2)
    s1inv = s1.scale(ctx.q_power(-2)) - e.scale(ctx.one - ctx.q_power(-2))
    assert s1 * s1inv == e
    y1i = AffHeckeElt.y(ctx, 2, 1, -1)
    y2i = AffHeckeElt.y(ctx, 2, 2, -1)
    assert s1inv * y1i * s1inv == y2i.scale(ctx.q_power(-2))


def test_commuting_y_passthrough(ctx):
    s1 = AffHeckeElt.sigma(ctx, 3, 1)
    y3 = AffHeckeElt.y(ctx, 3, 3)
    assert s1 * y3 == y3 * s1


_CTX3 = ScalarContext(2)
_PERMS3 = all_perms(3)


def _elt(data):
    out = AffHeckeElt.zero(_CTX3, 3)
    for (alpha, widx, c) in data:
        out = out + AffHeckeElt(
            _CTX3, 3, {(alpha, _PERMS3[widx]): _CTX3.scalar(c)}
        )
    return out


elt_strategy = st.lists(
    st.tuples(
        st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)),
        st.integers(0, len(_PERMS3) - 1),
        st.integers(-2, 2).filter(bool),
    ),
    min_size=1,
    max_size=2,
).map(_elt)


@settings(max_examples=25, deadline=None)
@given(elt_strategy, elt_strategy, elt_strategy)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


def _finite(data):
    out = HeckeElt.zero(_CTX3, 3)
    for widx, c in data:
        out = out + HeckeElt.basis(_CTX3, _PERMS3[widx]).scale(c)
    return out


def _lift(h):
    """h as an affine element: the key w becomes (alpha = 0, w)."""
    return AffHeckeElt(h.ctx, h.ell, {((0,) * h.ell, w): c for w, c in h.terms.items()})


finite_strategy = st.lists(
    st.tuples(st.integers(0, len(_PERMS3) - 1), st.integers(-2, 2).filter(bool)),
    min_size=1,
    max_size=4,
).map(_finite)


@settings(max_examples=25, deadline=None)
@given(finite_strategy)
def test_finite_algebra_is_the_alpha_zero_slice(h):
    # H_ell(q^2) sits inside the affine algebra as the y^0 span
    lifted = _lift(h)
    for i in (1, 2):
        assert lifted.times_sigma(i) == _lift(h.times_sigma(i))
        assert lifted.times_sigma_inv(i) == _lift(h.times_sigma_inv(i))
        assert lifted * AffHeckeElt.sigma(_CTX3, 3, i) == _lift(h * HeckeElt.sigma(_CTX3, 3, i))


def test_finite_and_affine_elements_do_not_mix(ctx):
    # their keys differ (w against (alpha, w)), so a sum would be garbage
    with pytest.raises(TypeError):
        HeckeElt.one(ctx, 2) + AffHeckeElt.one(ctx, 2)
    with pytest.raises(TypeError):
        AffHeckeElt.one(ctx, 2) - HeckeElt.one(ctx, 2)


# -- universal modules ---------------------------------------------------------


def test_universal_module_ell2_action(ctx):
    a1, a2 = ctx.scalar(1), ctx.scalar(2)
    M = universal_module(ctx, (a1, a2))
    assert M.dim == 2
    assert M.labels == ["1 2", "2 1"]
    q2m1 = ctx.q_power(2) - ctx.one
    # basis sigma_e . y_1 = a1 sigma_e
    assert M.y[0].entry(0, 0) == a1
    # sigma_{tau_1} . y_1 = a2 sigma_{tau_1} - (q^2-1) a2 sigma_e
    assert M.y[0].entry(1, 1) == a2
    assert M.y[0].entry(1, 0) == -q2m1 * a2


def test_universal_module_ell1(ctx):
    M = universal_module(ctx, (ctx.scalar(7),))
    assert M.dim == 1
    assert M.y[0].entry(0, 0) == ctx.scalar(7)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_universal_module_relations(ctx, ell):
    rng = random.Random(ell)
    avec = tuple(ctx.scalar(rng.randint(1, 9)) for _ in range(ell))
    rep = verify_module_relations(universal_module(ctx, avec))
    assert rep.passed, rep.failures()


def test_universal_module_zero_parameter(ctx):
    with pytest.raises(ValueError):
        universal_module(ctx, (ctx.one, ctx.zero))


def test_reducibility_criterion(ctx):
    red, _ = is_irreducible(universal_module(ctx, (ctx.one, ctx.q_power(2))))
    assert not red
    irr, _ = is_irreducible(universal_module(ctx, (ctx.one, ctx.q)))
    assert irr


# -- induction ---------------------------------------------------------------


def test_zelevinsky_one_dims_match_universal(ctx):
    a1, a2 = ctx.scalar(1), ctx.scalar(3)
    Z = zelevinsky_induce(
        one_dimensional_affine_module(ctx, [a1]),
        one_dimensional_affine_module(ctx, [a2]),
    )
    assert Z.dim == 2
    assert verify_module_relations(Z).passed
    M = universal_module(ctx, (a1, a2))
    assert are_isomorphic(Z, M) is not None


@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2), (2, 1)])
def test_zelevinsky_dimension_formula(ctx, l1, l2):
    rng = random.Random(l1 * 10 + l2)
    M1 = universal_module(ctx, tuple(ctx.scalar(rng.randint(1, 9)) for _ in range(l1)))
    M2 = universal_module(ctx, tuple(ctx.scalar(rng.randint(1, 9)) for _ in range(l2)))
    Z = zelevinsky_induce(M1, M2)
    assert Z.dim == M1.dim * M2.dim * comb(l1 + l2, l1)
    assert verify_module_relations(Z).passed, verify_module_relations(Z).failures()


def test_restriction_of_induction(ctx):
    # restricting the affine induction to the finite algebra matches the
    # finite induction of the restrictions
    M1 = universal_module(ctx, (ctx.one, ctx.scalar(2)))
    M2 = universal_module(ctx, (ctx.q,))
    Z = zelevinsky_induce(M1, M2)
    Zfin = zelevinsky_induce_finite(
        M1.restrict_to_finite(), M2.restrict_to_finite()
    )
    assert are_isomorphic(Z.restrict_to_finite(), Zfin) is not None


def test_induction_by_quotient_tells_sources_apart(ctx):
    # check prop-3.3 builds the finite induction independently, as a
    # quotient; it must agree with Zelevinsky's construction on the same
    # factors and differ on others
    sign, triv = (one_dimensional_module(ctx, 2, v) for v in (ctx.scalar(-1), ctx.q_power(2)))
    Z = zelevinsky_induce_finite(triv, triv)
    assert are_isomorphic(_induced_by_quotient(triv, triv), Z) is not None
    assert are_isomorphic(_induced_by_quotient(sign, triv), Z) is None


def test_a_lone_hom_solution_is_tried_once(ctx, monkeypatch):
    # the Hom space of the sign-type and trivial-type inductions is a line;
    # its multiples are as singular as its basis matrix
    from qschur import module_tools

    calls = []
    invertible = module_tools._is_invertible
    monkeypatch.setattr(module_tools, "_is_invertible",
                        lambda m: calls.append(m) or invertible(m))
    sign, triv = (one_dimensional_module(ctx, 2, v) for v in (ctx.scalar(-1), ctx.q_power(2)))
    Z = zelevinsky_induce_finite(triv, triv)
    assert are_isomorphic(_induced_by_quotient(sign, triv), Z) is None
    assert len(calls) == 1


def test_induction_associative_up_to_isomorphism(ctx):
    mods = [
        one_dimensional_affine_module(ctx, [ctx.one]),
        one_dimensional_affine_module(ctx, [ctx.scalar(3)]),
        one_dimensional_affine_module(ctx, [ctx.scalar(7)]),
    ]
    left = zelevinsky_induce(zelevinsky_induce(mods[0], mods[1]), mods[2])
    right = zelevinsky_induce(mods[0], zelevinsky_induce(mods[1], mods[2]))
    assert left.dim == right.dim == 6
    assert are_isomorphic(left, right) is not None


# -- evaluation pullback ----------------------------------------------------------


def test_cherednik_formulas(ctx):
    H2 = hecke_regular_module(ctx, 2)
    a = ctx.scalar(5)
    P = cherednik_pullback(H2, a)
    assert P.sigma[0] == H2.sigma[0]  # sigma action untouched
    assert P.y[0] == Matrix.identity(ctx, 2).scale(a)
    assert P.y[1] == (H2.sigma[0] * H2.sigma[0]).scale(a * ctx.q_power(-2))


@pytest.mark.parametrize("ell", [2, 3])
def test_cherednik_satisfies_affine_relations(ctx, ell):
    # commuting y's is the nontrivial consequence
    H = hecke_regular_module(ctx, ell)
    rep = verify_module_relations(cherednik_pullback(H, ctx.q))
    assert rep.passed, rep.failures()


def test_cherednik_needs_nonzero(ctx):
    with pytest.raises(ValueError):
        cherednik_pullback(hecke_regular_module(ctx, 2), ctx.zero)


# -- serialization -----------------------------------------------------------


def test_module_json_round_trip(ctx):
    M = universal_module(ctx, (ctx.one, ctx.q))
    data = M.to_json()
    back = RightModule.from_json(ctx, data)
    assert back.dim == M.dim
    for a, b in zip(M.action_matrices(), back.action_matrices()):
        assert a == b


def test_one_dimensional_module_sign(ctx):
    M = one_dimensional_module(ctx, 3, -1)
    assert verify_module_relations(M).passed
    T = one_dimensional_module(ctx, 3, ctx.q_power(2))
    assert verify_module_relations(T).passed
