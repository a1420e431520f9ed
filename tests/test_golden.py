"""Golden digests of fixed results over Q(t).

Each scalar has one canonical form (coprime numerator and denominator, the
denominator a monic polynomial with nonzero constant term, any Laurent shift
on the numerator), so a change to how scalars are reduced must leave every
result bit-identical.  These SHA-256 digests of the serialised results pin
that: they were recorded before the scalar kernel was last rewritten, and any
change to a canonical form, a module basis or a rendering shows up here.

The intertwiner digests pin the matrix T that are_isomorphic returns, for
one pair of right Hecke modules and one pair of left U_q-modules; they were
recorded before are_isomorphic was moved onto the module view, and any
change to the Hom solve or to its row and column conventions shows up here.
Since U_q-modules with known weights are decided by a standard basis spun
off a weight line, the left-module digests are asserted twice: for the Hom
solve, called directly, and for are_isomorphic.  The values are the same,
because the two maps are equal there.

The head digests pin V_a for segment lists whose head the irreducibility
decision once reached only through sampled words; they were recorded before
that decision moved onto eigenspaces known in advance.

The rational universal-module digests pin F(M_a) for an a with non-integral
entries, on both backends; they were recorded while every coefficient was
still a Fraction, before integral coefficients became Python ints.

If a digest has to change on purpose (a new basis convention, say), record
the reason next to the new value.

The F-basis digests (F(M_a), the linked ideal, the Thm 5.5 pair and the
left-module intertwiner) changed when Jimbo's functor moved onto the block
ambient, one copy of M per sorted tensor: the quotient basis is now the
free columns of each block in turn, not the free columns of M (x) V^(x ell).
Each old value is still asserted, on the reference construction in
``jimbo_reference``, and the two constructions are asserted isomorphic.

The sweep digests pin the last line of ``scripts/run_checks.py --n 2 --ell
1,2`` on both backends: every check's id, verdict and details, in the order
run.  They were recorded when the relation suites moved from difference
matrices to comparing the two sides of each relation.  ``qschur check all``
with the same sizes must print the same line, so the script and the command
it forwards to cannot drift apart.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jimbo_reference import reference_functor_F, reference_jimbo_J
from qschur.affine_hecke import (
    cherednik_pullback,
    hecke_regular_module,
    one_dimensional_affine_module,
    universal_module,
    zelevinsky_induce,
)
from qschur.affinization import (
    evaluation_natural,
    functor_F,
    jimbo_eval_pullback,
    tensor_affine_chain,
    theorem55_check,
)
from qschur.classification import irreducible_V_a, parse_segments
from qschur.module_tools import ModuleView, _hom_solve, are_isomorphic
from qschur.scalars import ScalarContext


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _functor_digests(M, n) -> tuple:
    """Digests of F(M) and of the reference F(M), asserted isomorphic."""
    W, ref = functor_F(M, n, check_source=False), reference_functor_F(M, n)
    assert are_isomorphic(W, ref) is not None
    return _digest(W.to_json()), _digest(ref.to_json())


def test_functor_of_universal_module_digest():
    # F(M_a) at n = 2, ell = 3
    ctx = ScalarContext(2)
    avec = (ctx.one, ctx.scalar(2) * ctx.q, ctx.scalar(-3) * ctx.q_power(-2))
    assert _functor_digests(universal_module(ctx, avec), 2) == (
        # the block-ambient basis
        "f9bf9cafa9c6ac31f1772ad5f9722d27e6357bcf315a44a9035981b76b6dfe6b",
        "bdfa5ea31e709cc8a4cf9900fbb33f77f36e060109624d15416ab663ced9890a",
    )


@pytest.mark.parametrize("t0,digests", [
    (None, (
        # the block-ambient basis
        "e602253d762a4f2fcddee05161df1332586a93e751f1c409603287bc27c68ab6",
        "ff4fe6e91e86ad4c27c4eceb304190c8db08852b774c681b9ddc9aa9c7bf77de",
    )),
    (Fraction(5, 3), (
        # the block-ambient basis
        "a18454ea3b36b34cdbe018abdf3fce2f333bd621f9b3030177e67f04ca423614",
        "3b631cd4975e1624ca04f86834812d91ad9988101b8e89870c6f4938b4a995a5",
    )),
], ids=["symbolic", "t=5/3"])
def test_functor_of_rational_universal_module_digest(t0, digests):
    # F(M_a) at n = 2 for a genuinely rational a = (3/2, -5/7), so that
    # coefficients with denominators reach the module; symbolic and at t = 5/3
    ctx = ScalarContext(2, t0=t0)
    avec = (ctx.scalar(Fraction(3, 2)), ctx.scalar(Fraction(-5, 7)))
    assert _functor_digests(universal_module(ctx, avec), 2) == digests


def test_functor_of_linked_ideal_digest():
    # F(I_pi) for a length-2 segment and a length-1 segment at q^3 times its
    # center, n = 3
    ctx = ScalarContext(3)
    _, _, ideal = irreducible_V_a(parse_segments(ctx, "1@0:2,1@6:1"), ctx)
    assert _functor_digests(ideal.module, 3) == (
        # the block-ambient basis
        "769201e2040dce4ac8bd220ce3275aa5750454c7cb4c8cc114fae4a6839e6158",
        "74213cfb13aec5af4f7080c40fac9c3870acfaf5b241e23a69be26a17de66592",
    )


@pytest.mark.parametrize("n,spec,digest", [
    (3, "2@0:1,3@0:1,5@0:1", "668894579f84408bbf3ad077fb03d12f55e440e4e6a9f5427acec0a5828a5ec1"),
    (3, "1@0:1,1@4:1,3@0:1", "2b38a5e7c8f89ae4ac1a5e942e3a85d500b105542902aa4cb51b7b76133bb8da"),
    (3, "1@0:1,1@0:1,1@0:1", "3566d9da6e55d21e417ba575adf03d5c414a35fdb12dc164cf7a6dfdc2c304b0"),
    (3, "1@0:1,7@0:1,1@4:1", "d5e1a14e0fc7194296d0a8ace20d2e5057f2503007e49f2c58cf13bdf6c97df1"),
    (1, "1@0:2,1@8:2", "fc0f6e88b2cae972bb951f27cb09306467b8359b271e396c5d0212fb6eab394a"),
])
def test_irreducible_head_digest(n, spec, digest):
    ctx = ScalarContext(n)
    vmod, _, _ = irreducible_V_a(parse_segments(ctx, spec), ctx)
    assert _digest(vmod.to_json()) == digest


def test_theorem55_pair_digest():
    # both evaluation routes of the regular H_2-module at a = q, n = 2
    ctx = ScalarContext(2)
    M = hecke_regular_module(ctx, 2)
    T, lhs, rhs = theorem55_check(M, ctx.q, 2)
    assert T is not None
    assert [_digest(lhs.to_json()), _digest(rhs.to_json())] == [
        # the block-ambient basis
        "b4c2e82f34c7be80c40bf8ade29ff6b1cea5120fe0f266964323e8b366d2b500"
    ] * 2
    # the same two routes through the reference construction
    ref_lhs = reference_functor_F(cherednik_pullback(M, ctx.q_power(Fraction(-4, 3)) * ctx.q), 2)
    ref_rhs = jimbo_eval_pullback(reference_jimbo_J(M, 2).module, ctx.q)
    assert [_digest(ref_lhs.to_json()), _digest(ref_rhs.to_json())] == [
        "24b6505ee2c9da43cbd75fda3ba939c3c8dedfa87cca91bc847e70f79abd16ed"
    ] * 2
    assert are_isomorphic(lhs, ref_lhs) is not None


def test_right_module_intertwiner_digest():
    # Z(1, 3) = M_(1) o M_(3) against the universal module M_(1,3), n = 2
    ctx = ScalarContext(2)
    a = (ctx.one, ctx.scalar(3))
    Z = zelevinsky_induce(*(one_dimensional_affine_module(ctx, [x]) for x in a))
    T = are_isomorphic(Z, universal_module(ctx, a))
    assert _digest(T.to_triplets()) == (
        "d4e9f2b4abcf68f2cf542c5a984de1f727576fa5294433da6279042f1282d73c"
    )


def test_left_module_intertwiner_digest():
    # F(M_(1,5)) against V(1) (x) V(5), n = 2
    ctx = ScalarContext(2)
    a = (ctx.one, ctx.scalar(5))
    M = universal_module(ctx, a)
    W, ref = functor_F(M, 2, check_source=False), reference_functor_F(M, 2)
    V = tensor_affine_chain([evaluation_natural(ctx, 2, x) for x in a])
    digests = [
        # the block-ambient basis
        "59c6ddbd8f05571f0a77e1355472ba3a7ea0bc6c2e64756d724e47e0868a9164",
        "a535b5f64c7eb4722b876508d7a83c40aeae1b9f622f070c05100cc0f4b2fbe4",
    ]
    vb = ModuleView(V)
    olds = [_hom_solve(ModuleView(X), vb) for X in (W, ref)]
    assert [_digest(T.to_triplets()) for T in olds] == digests
    news = [are_isomorphic(X, V) for X in (W, ref)]
    # the standard basis: F(M_(1,5)) is irreducible, so Hom is a line and T
    # is a multiple of the Hom solve's; here the multiple is 1, so the
    # digests did not change
    assert [_digest(T.to_triplets()) for T in news] == digests
    for new, old in zip(news, olds):
        i, j = next((i, min(r)) for i, r in enumerate(old.rows) if r)
        scale = new.entry(i, j) * old.entry(i, j).inverse()
        assert not scale.is_zero() and new == old.scale(scale)
    assert are_isomorphic(W, ref) is not None


def test_rational_function_chain_digest():
    # The modules above come out with polynomial entries only, so also pin
    # a seeded chain of field operations whose values carry denominators in
    # the q-grading and outside it.
    out = []
    for n in (2, 3):
        ctx = ScalarContext(n)
        rng = random.Random(n)
        pool = [ctx.q, ctx.q_power(-1) + 2, ctx.t_power(1) - 1, ctx.q_half + ctx.scalar(3)]
        for _ in range(150):
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.randrange(4)
            if op == 0:
                c = a + b
            elif op == 1:
                c = a - b * ctx.q_power(rng.randint(-2, 2))
            elif op == 2:
                c = a * b
            else:
                c = a / b if b else a
            if not c or len(c.num) + len(c.den) > 16:
                c = rng.choice(pool[:4]) + rng.randint(1, 3)
            pool.append(c)
            out.append(str(c))
    assert _digest(out) == (
        "b839a37bf4c1d04e951f614c6b42b34c940e815ec0e151ad0b3bb41851f64598"
    )


@pytest.mark.parametrize("script_backend,cli_backend,digest", [
    ([], [], "bda0cd227e7e9d3ec745c04054d6c84ed65b5a9ad070e3478ff53d576581169f"),
    (["--backend", "5/3"], ["--backend", "rational:5/3"],
     "ba17427f91ed862fe9d50542e4371b765f081aaa08e5ef8ff8ded970bfe2fdbb"),
], ids=["symbolic", "t=5/3"])
def test_small_registry_sweep_digest(script_backend, cli_backend, digest):
    root = Path(__file__).resolve().parents[1]
    for argv in ([str(root / "scripts" / "run_checks.py"), "--n", "2", "--ell", "1,2",
                  *script_backend],
                 ["-m", "qschur.cli", "check", "all", "--n", "2", "--ell", "1,2",
                  *cli_backend]):
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == f"details sha256: {digest}"
