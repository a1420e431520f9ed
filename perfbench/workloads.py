"""Seeded, stratified case generators and case runners for the four workloads.

A workload is a fixed *mix*: a list of strata, each with one case per
round.  The seed draws only the parameters and segment centers of each case,
never the strata, so the cost of a round does not swing with the seed.
Cases are plain data (ints, Fractions, spec strings); the library sees only
these generated inputs.

Every runner returns an ``Outcome``: whether the verdict matches the oracle,
a hashable verdict (compared across backends), and the artifacts that the
independent re-checks in ``oracle.py`` examine outside the timed window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

RATIONAL_T0 = Fraction(5, 3)


@dataclass
class Outcome:
    ok: bool
    verdict: tuple
    intertwiners: list = field(default_factory=list)   # (A, B, T) triples
    certificates: list = field(default_factory=list)   # (module, cert) pairs


@dataclass
class Workload:
    name: str
    t0: Optional[Fraction]
    generate: Callable[[random.Random], list]           # rng -> one round of cases
    run: Callable                                       # (lib, ctx, case) -> Outcome
    tail_pct: float                                     # fixed tail percentile
    smoke: Callable[[dict], bool]                       # cheap cases for --smoke


def _rat(rng: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if v:
            return v


def _distinct_rats(rng: random.Random, k: int) -> list:
    """k rationals whose pairwise ratios are never +-1, so no two of them
    differ by a power of q (the centers stay unlinked)."""
    out: list = []
    while len(out) < k:
        v = _rat(rng)
        if all(abs(v) != abs(w) for w in out):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# relations / relations-rational: universal modules through F (Theorem 4.2)
# ---------------------------------------------------------------------------

# (n, ell), one case each per round: the uniform mix of scripts/run_checks.py,
# whose check_thm_4_2 runs the same number of trials for every n and ell.
# One departure: (2, 1), the cheapest stratum, runs twice.  With six cases a
# round the median falls between two strata and follows their extremes; the
# seventh case puts it inside one stratum and adds about 1.5% to a round.
RELATIONS_STRATA = [(2, 1)] + [(n, ell) for n in (2, 3) for ell in (1, 2, 3)]


def gen_relations(rng: random.Random) -> list:
    cases = []
    for n, ell in RELATIONS_STRATA:
        cases.append({"kind": "universal", "stratum": f"n{n}-l{ell}", "n": n,
                      "a": tuple(_rat(rng) for _ in range(ell))})
    return cases


def run_relations(lib, ctx, case) -> Outcome:
    n = case["n"]
    M = lib.affine_hecke.universal_module(ctx, [ctx.scalar(a) for a in case["a"]])
    W = lib.affinization.functor_F(M, n, check_source=False)
    rep = lib.affinization.verify_affine_relations(W)
    central = lib.affinization.verify_central_element(W)
    verdict = (W.dim, tuple((name, ok) for name, ok, _ in rep.results), central)
    ok = rep.passed and central and W.dim == (n + 1) ** len(case["a"])
    return Outcome(ok, verdict)


# ---------------------------------------------------------------------------
# dictionary: isomorphism-heavy identities (Prop 4.6, Prop 4.7, Thm 5.5, Thm 7.6)
# ---------------------------------------------------------------------------

EVAL_SOURCES = ("regular-1", "trivial-2", "sign-2", "regular-2")

# Segment shapes for Theorem 7.6, one case each per round: (n, lengths, link).
# "+2" links consecutive length-1 segments by q^2; "+3" puts a length-1
# segment at q^3 times the center of a length-2 one, which links them;
# "free" draws unlinked centers.
IDEAL_SHAPES = [(2, (2,), "free"), (2, (1, 1), "+2"), (2, (1, 1), "free"),
                (3, (1, 1), "+2"), (3, (2, 1), "free"), (3, (2, 1), "+3")]

# Half q-exponent between consecutive linked centers (q^{+-2} is +-4).
_LINK_STEP = {"+2": 4, "-2": -4, "+3": 6}


def _centers(rng: random.Random, lengths, link) -> list:
    """(coefficient, half q-exponent, length) triples for one segment list."""
    if link == "free":
        coeffs = _distinct_rats(rng, len(lengths))
        return [(c, rng.randint(-2, 2), k) for c, k in zip(coeffs, lengths)]
    c, e = _rat(rng), rng.randint(-2, 2)
    return [(c, e + i * _LINK_STEP[link], k) for i, k in enumerate(lengths)]


def gen_dictionary(rng: random.Random) -> list:
    cases = []
    for n, ell in ((2, 2), (2, 3), (3, 2)):
        cases.append({"kind": "prop-4.7", "stratum": f"4.7-n{n}-l{ell}", "n": n,
                      "a": tuple(_rat(rng) for _ in range(ell))})
    for n in (2, 3):
        cases.append({"kind": "prop-4.6", "stratum": f"4.6-n{n}", "n": n,
                      "a": (_rat(rng), _rat(rng))})
    for n in (2, 3):
        for src in EVAL_SOURCES:
            cases.append({"kind": "thm-5.5", "stratum": f"5.5-n{n}-{src}", "n": n,
                          "source": src, "a": (_rat(rng), rng.randint(-1, 1))})
    for n, lengths, link in IDEAL_SHAPES:
        cases.append({"kind": "thm-7.6", "stratum": f"7.6-n{n}-{lengths}-{link}", "n": n,
                      "segments": _centers(rng, lengths, link)})
    return cases


def _center(ctx, coeff, half_exp):
    return ctx.scalar(coeff) * ctx.q_power(Fraction(half_exp, 2))


def _iso_outcome(lib, A, B) -> Outcome:
    T = lib.module_tools.are_isomorphic(A, B)
    ok = T is not None
    return Outcome(ok, (A.dim, ok), intertwiners=[(A, B, T)] if ok else [])


def run_dictionary(lib, ctx, case) -> Outcome:
    n = case["n"]
    aff, ah = lib.affinization, lib.affine_hecke
    kind = case["kind"]
    if kind == "prop-4.7":
        avec = [ctx.scalar(a) for a in case["a"]]
        W = aff.functor_F(ah.universal_module(ctx, avec), n, check_source=False)
        prod = aff.tensor_affine_chain([aff.evaluation_natural(ctx, n, a) for a in avec])
        return _iso_outcome(lib, W, prod)
    if kind == "prop-4.6":
        M1, M2 = (ah.one_dimensional_affine_module(ctx, [ctx.scalar(a)]) for a in case["a"])
        FZ = aff.functor_F(ah.zelevinsky_induce(M1, M2), n, check_source=False)
        prod = aff.tensor_affine_chain(
            [aff.functor_F(M1, n, check_source=False), aff.functor_F(M2, n, check_source=False)])
        return _iso_outcome(lib, FZ, prod)
    if kind == "thm-5.5":
        src = case["source"]
        if src == "regular-1":
            M = ah.hecke_regular_module(ctx, 1)
        elif src == "regular-2":
            M = ah.hecke_regular_module(ctx, 2)
        elif src == "trivial-2":
            M = ah.one_dimensional_module(ctx, 2, ctx.q_power(2))
        else:
            M = ah.one_dimensional_module(ctx, 2, ctx.scalar(-1))
        coeff, qexp = case["a"]
        T, lhs, rhs = aff.theorem55_check(M, ctx.scalar(coeff) * ctx.q_power(qexp), n)
        ok = T is not None
        return Outcome(ok, (lhs.dim, ok), intertwiners=[(lhs, rhs, T)] if ok else [])
    cl = lib.classification
    s = cl.make_segments(ctx, [(_center(ctx, c, e), k) for c, e, k in case["segments"]])
    FI = aff.functor_F(cl.ideal_I_pi(s, ctx).module, n, check_source=False)
    factors = []
    for seg in s.segments:
        V, _, _ = cl.irreducible_V_a(cl.make_segments(ctx, [(seg.center, seg.length)]), ctx)
        factors.append(aff.functor_F(V, n, check_source=False))
    return _iso_outcome(lib, FI, aff.tensor_affine_chain(factors))


# ---------------------------------------------------------------------------
# segments: the CLI `relations --segments` path plus the reducibility grid
# ---------------------------------------------------------------------------

# Segment shapes with total length <= n, one case each per round.  Linked
# shapes chain length-1 segments by q^{+-2}, or put a length-1 segment at q^3
# times the center of a length-2 one.  Three unlinked generic length-1
# segments are left out as too slow, and the length-1 segment at q^-3 below a
# length-2 one because it gets a wrong verdict (perfbench/baseline.json lists
# both).  One departure: a single segment at n = 2, among the cheapest cases,
# runs twice.  With twenty cases a round (shapes and grid) the median falls
# between two of them; the 21st puts it on one case and adds about 1% to a
# round.
SEGMENT_SHAPES = [(2, (1,), "free"), (2, (1,), "free"), (2, (2,), "free"), (2, (1, 1), "+2"),
                  (2, (1, 1), "-2"), (2, (1, 1), "free"),
                  (3, (1,), "free"), (3, (2,), "free"), (3, (3,), "free"),
                  (3, (1, 1), "+2"), (3, (1, 1), "-2"), (3, (1, 1), "free"),
                  (3, (2, 1), "free"), (3, (2, 1), "+3"), (3, (1, 1, 1), "+2")]

# Grid of ratios c in M_(1,c), one case each per round: (n, "q2" | "q-2" | "generic").
GRID_POINTS = [(n, point) for n in (2, 3) for point in ("q2", "q-2", "generic")]


def _spec(centers) -> str:
    return ",".join(f"{c}@{e}:{k}" for c, e, k in centers)


def gen_segments(rng: random.Random) -> list:
    cases = []
    for n, lengths, link in SEGMENT_SHAPES:
        cases.append({"kind": "segments", "stratum": f"seg-n{n}-{lengths}-{link}", "n": n,
                      "spec": _spec(_centers(rng, lengths, link))})
    for n, point in GRID_POINTS:
        if point == "q2":
            c = (Fraction(1), 2)
        elif point == "q-2":
            c = (Fraction(1), -2)
        else:
            c = (_rat(rng), rng.randint(-3, 3))
            while c[0] == 1 and abs(c[1]) == 2:
                c = (_rat(rng), rng.randint(-3, 3))
        cases.append({"kind": "grid", "stratum": f"grid-n{n}-{point}", "n": n, "c": c})
    return cases


def run_segments(lib, ctx, case) -> Outcome:
    n = case["n"]
    aff, cl, mt = lib.affinization, lib.classification, lib.module_tools
    if case["kind"] == "grid":
        coeff, qexp = case["c"]
        c = ctx.scalar(coeff) * ctx.q_power(qexp)
        expect_reducible = coeff == 1 and abs(qexp) == 2
        M = lib.affine_hecke.universal_module(ctx, (ctx.one, c))
        irr_M, cert_M = mt.is_irreducible(M)
        W = aff.functor_F(M, n, check_source=False)
        irr_W, cert_W = mt.is_irreducible(W)
        ok = (not irr_M) == expect_reducible and (not irr_W) == expect_reducible
        certs = [(mod, cert) for mod, irr, cert in ((M, irr_M, cert_M), (W, irr_W, cert_W))
                 if not irr]
        return Outcome(ok, (irr_M, irr_W), certificates=certs)
    s = cl.parse_segments(ctx, case["spec"])
    V, _, _ = cl.irreducible_V_a(s, ctx)
    W = aff.functor_F(V, n, check_source=True)
    rep = aff.verify_affine_relations(W)
    degrees = tuple(cl.drinfeld_polys(s, n).degrees())
    law = lib.uq_rep.dominant_highest_weights(W).get(degrees) == 1
    root_ok = True
    if len(s.segments) == 1:
        seg = s.segments[0]
        _, root = cl.lemma64_check(W, seg.length)
        root_ok = root is not None and root == seg.center.inverse()
    return Outcome(rep.passed and law and root_ok, (W.dim, rep.passed, law, root_ok))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("relations", None, gen_relations, run_relations, 0.80,
                 lambda c: c["stratum"] in ("n2-l1", "n2-l2")),
        Workload("relations-rational", RATIONAL_T0, gen_relations, run_relations, 0.90,
                 lambda c: c["stratum"] in ("n2-l1", "n2-l2")),
        Workload("dictionary", None, gen_dictionary, run_dictionary, 0.90,
                 lambda c: c["n"] == 2 and c["stratum"] != "4.7-n2-l3"),
        Workload("segments", None, gen_segments, run_segments, 0.90,
                 lambda c: c["n"] == 2),
    )
}


def rounds_for(workload: Workload, seed: int):
    """The rounds of cases for a seed, generated one at a time as they are taken.

    The two relation workloads share one stream, so relations-rational runs
    exactly the cases that relations runs for the same seed.
    """
    family = "relations" if workload.generate is gen_relations else workload.name
    rng = random.Random(f"{family}/{seed}")
    while True:
        yield workload.generate(rng)
