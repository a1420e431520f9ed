from math import factorial

import pytest

from qschur.affine_hecke import hecke_regular_module, verify_module_relations
from qschur.hecke import HeckeElt, kl_parabolic_element
from qschur.module_tools import spin
from qschur.scalars import ScalarContext
from qschur.symgroup import Perm, all_perms, parabolic_longest


def _times_sigma_inv(h, i: int):
    """Right multiplication by sigma_i^{-1} = q^{-2} sigma_i - (1 - q^{-2})."""
    q2inv = h.ctx.q_power(-2)
    return h.times_sigma(i).scale(q2inv) - h.scale(h.ctx.one - q2inv)


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(2)


def test_quadratic_relation(ctx):
    s1 = HeckeElt.sigma(ctx, 2, 1)
    e = HeckeElt.one(ctx, 2)
    q2 = ctx.q_power(2)
    assert s1 * s1 == s1.scale(q2 - 1) + e.scale(q2)


def test_braid_gives_single_term(ctx):
    s1 = HeckeElt.sigma(ctx, 3, 1)
    s2 = HeckeElt.sigma(ctx, 3, 2)
    prod = s1 * s2 * s1
    assert prod == s2 * s1 * s2
    assert len(prod.terms) == 1
    (w, c), = prod.terms.items()
    assert c.is_one()
    assert w.length() == 3


def test_identity_is_neutral(ctx):
    e = HeckeElt.one(ctx, 3)
    x = HeckeElt.sigma(ctx, 3, 2).scale(ctx.q) + HeckeElt.one(ctx, 3)
    assert e * x == x
    assert x * e == x


def test_sigma_inverse(ctx):
    s1 = HeckeElt.sigma(ctx, 3, 1)
    assert _times_sigma_inv(s1, 1) == HeckeElt.one(ctx, 3)


def test_kl_single_transposition(ctx):
    C = kl_parabolic_element(ctx, (2,))
    expected = HeckeElt.sigma(ctx, 2, 1).scale(ctx.q_power(-1)) - HeckeElt.one(
        ctx, 2
    ).scale(ctx.q)
    assert C == expected


def test_kl_identity_partition(ctx):
    assert kl_parabolic_element(ctx, (1, 1)) == HeckeElt.one(ctx, 2)


def test_kl_partition_2_1_support(ctx):
    C = kl_parabolic_element(ctx, (2, 1))
    assert set(C.terms) == {Perm.identity(3), Perm.transposition(3, 1)}
    expected = HeckeElt.sigma(ctx, 3, 1).scale(ctx.q_power(-1)) - HeckeElt.one(
        ctx, 3
    ).scale(ctx.q)
    assert C == expected


def _partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in _partitions(total - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_descent_sign_property(ctx, ell):
    # C_{w_pi} sigma_i = -C_{w_pi} whenever w_pi tau_i < w_pi
    for parts in _partitions(ell):
        C = kl_parabolic_element(ctx, parts)
        wpi = parabolic_longest(parts)
        for i in range(1, ell):
            if wpi.has_right_descent(i):
                assert C.times_sigma(i) == -C, (parts, i)


def test_kl_square(ctx):
    C = kl_parabolic_element(ctx, (2,))
    assert C * C == C.scale(-(ctx.q + ctx.q_power(-1)))


@pytest.mark.parametrize("parts", [(2,), (1, 1), (2, 1), (3,), (2, 2)])
def test_ideal_dimension(ctx, parts):
    # spinning C_{w_pi} under right multiplication spans ell!/prod(l_r!)
    ell = sum(parts)
    reg = hecke_regular_module(ctx, ell)
    perms = all_perms(ell)
    index = {w: k for k, w in enumerate(perms)}
    C = kl_parabolic_element(ctx, parts)
    v = {index[w]: c for w, c in C.terms.items()}
    sub = spin(ctx, reg.dim, reg.sigma, [v])
    expected = factorial(ell)
    for p in parts:
        expected //= factorial(p)
    assert sub.dim == expected


@pytest.mark.parametrize("ell", [2, 3])
def test_regular_module_relations(ctx, ell):
    rep = verify_module_relations(hecke_regular_module(ctx, ell))
    assert rep.passed, rep.failures()


def test_json_rendering(ctx):
    C = kl_parabolic_element(ctx, (2,))
    data = C.to_json()
    assert len(data) == 2
    assert {d["perm"] for d in data} == {"1 2", "2 1"}
