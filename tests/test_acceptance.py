"""Acceptance suite: every structural identity at its stated (exact) tolerance.

Each criterion prints one PASS/FAIL line; all equalities are over the exact
field, so the tolerance everywhere is literal zero.  The verdicts come from
the check registry (qschur.checks), run at the sizes and seeds listed in
PLANS; criterion 3's central-element family is the only body kept here,
because no registry check covers it.  Criterion 10 runs the same plans on
the specialized backend t = 5/3 and demands identical verdicts and integer
data, case by case, against the memoised symbolic results.
"""

import re
from fractions import Fraction
from functools import cache

from qschur.affine_hecke import universal_module
from qschur.affinization import (
    evaluation_natural,
    functor_F,
    jimbo_eval_pullback,
    tensor_affine_chain,
    verify_central_element,
)
from qschur.checks import RunConfig, run_check
from qschur.scalars import ScalarContext
from qschur.uq_rep import natural_rep

SPECIALIZED_T = Fraction(5, 3)

# criterion -> the registry checks that witness it, with their RunConfig
PLANS = {
    1: [("thm-4.2", dict(n_values=[1, 2, 3], ell_values=[1, 2, 3], seed=11))],
    2: [("prop-4.1", dict(n_values=[1, 2, 3], ell_values=[2, 3, 4]))],
    4: [("prop-4.7", dict(n_values=[2, 3], ell_values=[2, 3], seed=4))],
    5: [("prop-3.4c", dict(n_values=[2])), ("cor-4.8b", dict(n_values=[2]))],
    6: [("prop-3.3", dict(n_values=[2], seed=6)), ("prop-4.6", dict(n_values=[2], seed=6))],
    7: [
        (cid, dict(n_values=[2], ell_values=[2, 3, 4], seed=7))
        for cid in ("eq-12", "lemma-7.3", "prop-7.5")
    ],
    8: [("thm-5.5", dict(n_values=[2], ell_values=[1, 2]))],
    9: [
        ("lemma-6.4", dict(n_values=[1, 2, 3])),
        ("thm-7.6", dict(n_values=[2])),
        ("prop-7.2", dict(n_values=[3], ell_values=[3])),
    ],
}


@cache
def _results(num, t0=None):
    return [run_check(cid, RunConfig(t0=t0, **kw)) for cid, kw in PLANS[num]]


def _report(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2} [{status}] {label}" + (f" ({extra})" if extra else ""))


def _failures(results):
    return [(r.check_id, label, extra)
            for r in results for label, ok, extra in r.details if not ok]


def _criterion(num, label):
    results = _results(num)
    ok = all(r.passed for r in results)
    cases = sum(len(r.details) for r in results)
    _report(num, label, ok, f"{cases} cases")
    assert ok, _failures(results)
    return results


# -- criteria 1..10 ---------------------------------------------------------------


def test_criterion_1_relation_suite():
    (result,) = _results(1)
    runs = len(result.details)
    ok = result.passed and runs == 45
    _report(1, "affine relation suite on 45 random affinizations", ok,
            f"{runs} runs, {result.seconds:.1f}s")
    assert ok, _failures([result])
    assert result.seconds < 120, (
        f"relation sweep took {result.seconds:.1f}s, expected < 2 minutes"
    )


def test_criterion_2_schur_weyl_commutation():
    _criterion(2, "braiding commutes with the quantum action, n<=3 ell<=4")


def test_criterion_3_exchange_identity_and_central_element():
    (prop41,) = _results(2)
    exchange = [ok for label, ok, _ in prop41.details if "loop exchange" in label]
    ok = len(exchange) == 3 and all(exchange)
    # central element on a family of constructed affine modules
    ctx = ScalarContext(2)
    family = [
        evaluation_natural(ctx, 2, ctx.scalar(3)),
        functor_F(universal_module(ctx, (ctx.one, ctx.scalar(2))), 2,
                  check_source=False),
        jimbo_eval_pullback(natural_rep(ctx, 2), ctx.q),
        tensor_affine_chain(
            [evaluation_natural(ctx, 2, ctx.one), evaluation_natural(ctx, 2, ctx.q)]
        ),
    ]
    for W in family:
        ok = ok and verify_central_element(W)
    _report(3, "loop exchange identity and central element", ok)
    assert ok


def test_criterion_4_universal_dictionary():
    _criterion(4, "affinized universal modules match evaluation tensor products")


def test_criterion_5_reducibility_grid():
    _criterion(5, "reducibility exactly at parameter ratio q^2 (both levels)")


def test_criterion_6_induction_compatibilities():
    _criterion(6, "induction: dimension formula, restriction, functor image")


def test_criterion_7_kl_segment_layer():
    _criterion(7, "KL sign property, triangular y action, intertwiner intersection")


def test_criterion_8_evaluation_duality():
    (result,) = _criterion(8, "the two evaluation routes agree")
    assert len(result.details) == 12


def test_criterion_9_drinfeld_dictionary():
    _criterion(9, "Drinfeld polynomial dictionary and parameter extraction")


def test_criterion_10_cross_backend_determinism():
    mismatches = []
    for num in PLANS:
        for sym, spec in zip(_results(num), _results(num, SPECIALIZED_T)):
            if _integer_data(sym) != _integer_data(spec):
                mismatches.append((num, sym.check_id))
    ok = not mismatches
    _report(10, "symbolic and rational:5/3 backends agree on all integer data", ok)
    assert ok, mismatches


def _integer_data(result):
    """Verdict and integers (dimensions, degrees, reducibility) of each case.

    Labels are left out: they render scalars, which print differently on the
    two backends (t^6 against 15625/729).
    """
    return [(ok, re.findall(r"-?\d+|True|False", extra))
            for _, ok, extra in result.details]
