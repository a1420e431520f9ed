"""Named machine checks, one per identity the library is built to witness.

Each check constructs fresh modules at the requested sizes and verifies an
exact identity end to end, returning a CheckResult with per-instance detail.
The registry is the single implementation behind the acceptance suite
(tests/test_acceptance.py) and the CLI `check` command, which
scripts/run_checks.py forwards to; all equalities are over the exact field,
so there are no tolerances anywhere.  `run_check` turns a decision that
stays undecided into a failing result that carries the message, and
`details_digest` hashes a sweep's results without their timings.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Optional

from .affine_hecke import (
    RightModule,
    hecke_regular_module,
    one_dimensional_affine_module,
    one_dimensional_module,
    universal_module,
    verify_module_relations,
    zelevinsky_induce,
)
from .affinization import (
    evaluation_natural,
    functor_F,
    functor_F_map,
    tensor_affine_chain,
    theorem55_check,
    verify_affine_relations,
    verify_central_element,
)
from .classification import (
    _left_mult,
    drinfeld_polys,
    hecke_image_vector,
    ideal_I_pi,
    image_intersection_I_pi,
    intertwiner_A,
    irreducible_V_a,
    lemma64_check,
    make_segments,
    parse_segments,
    rogawski_quotient,
)
from .hecke import HeckeElt, kl_parabolic_element
from .linalg import Matrix, add_scaled, diag_inverse, span
from .module_tools import Undecided, are_isomorphic, is_irreducible, quotient, spin, submodule
from .scalars import ScalarContext
from .symgroup import all_perms, block_boundaries, parabolic_longest
from .uq_rep import (
    UqModule,
    dominant_highest_weights,
    fundamental_weight,
    highest_weight_vectors,
    jimbo_J,
    natural_rep,
    partition_weight,
    rcheck,
    rcheck_i,
    tensor_rep,
)


@dataclass
class RunConfig:
    """Parameters shared by every check invocation."""

    n_values: list = field(default_factory=lambda: [2])
    ell_values: list = field(default_factory=lambda: [1, 2])
    seed: int = 0
    t0: Optional[Fraction] = None  # None = symbolic backend
    segments_spec: Optional[str] = None

    def context(self, n: int) -> ScalarContext:
        return ScalarContext(n, t0=self.t0)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    details: list  # list of (label, ok, extra) triples
    seconds: float = 0.0
    undecided: Optional[str] = None  # the message of a decision left undecided

    def to_json(self) -> dict:
        out = {
            "check": self.check_id,
            "pass": self.passed,
            "seconds": round(self.seconds, 3),
            "details": [
                {"case": label, "pass": ok, "info": extra}
                for label, ok, extra in self.details
            ],
        }
        if self.undecided is not None:
            out["undecided"] = self.undecided
        return out


def _partitions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in _partitions(total - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _random_parameters(ctx, ell, rng) -> tuple:
    """Nonzero rational parameters, generic with probability 1."""
    out = []
    while len(out) < ell:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if v != 0:
            out.append(ctx.scalar(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_eq_12(cfg: RunConfig) -> CheckResult:
    """Sign property of the parabolic KL elements under right descent moves."""
    details = []
    ells = [e for e in cfg.ell_values if e >= 2]
    ctx = cfg.context(max(cfg.n_values))
    for ell in ells:
        for parts in _partitions(ell):
            C = kl_parabolic_element(ctx, parts)
            wpi = parabolic_longest(parts)
            ok = True
            for i in range(1, ell):
                if wpi.has_right_descent(i):
                    ok = ok and (C.times_sigma(i) == -C)
            details.append((f"ell={ell} pi={parts}", ok, ""))
    return _package("eq-12", details)


def check_lemma_7_3(cfg: RunConfig) -> CheckResult:
    """Triangularity of the y action on KL images inside universal modules."""
    details = []
    rng = random.Random(cfg.seed)
    ctx = cfg.context(max(cfg.n_values))
    ells = [e for e in cfg.ell_values if 2 <= e <= 3]
    for ell in ells:
        avec = _random_parameters(ctx, ell, rng)
        M = universal_module(ctx, avec)
        perms = all_perms(ell)
        index = {w: k for k, w in enumerate(perms)}
        for parts in _partitions(ell):
            C = kl_parabolic_element(ctx, parts)
            wpi = parabolic_longest(parts)
            v = hecke_image_vector(C, index)
            ok = True
            for j in range(1, ell + 1):
                lead = avec[wpi(j) - 1]
                resid = add_scaled(M.y[j - 1].apply_row(v), v, -lead)
                # the residual v y_j - lead v must live below w_pi in length
                for k in resid:
                    if perms[k].length() >= wpi.length():
                        ok = False
            details.append((f"ell={ell} pi={parts}", ok, ""))
    return _package("lemma-7.3", details)


def _induced_by_quotient(M1: RightModule, M2: RightModule) -> RightModule:
    """(M1 (x) M2) (x) H_ell over H_l1 (x) H_l2, built as a quotient.

    sigma_j acts on (M1 (x) M2) (x) H_ell by 1 (x) (right regular sigma_j),
    and the relations are the rows of rho(sigma_i) (x) 1 - 1 (x) L_i for the
    parabolic sigma_i (i != l1), L_i being left multiplication by sigma_i on
    the sigma_w basis.  This shares no code with Zelevinsky induction.
    """
    ctx = M1.ctx
    l1, ell = M1.ell, M1.ell + M2.ell
    perms = all_perms(ell)
    eye_m = Matrix.identity(ctx, M1.dim * M2.dim)
    eye_h = Matrix.identity(ctx, len(perms))
    ambient = RightModule(ctx, "H", ell, eye_m.nrows * len(perms),
                          [eye_m.kron(s) for s in hecke_regular_module(ctx, ell).sigma])
    relations = []
    for i in range(1, ell):
        if i == l1:
            continue
        if i < l1:
            rho = M1.sigma[i - 1].kron(Matrix.identity(ctx, M2.dim))
        else:
            rho = Matrix.identity(ctx, M1.dim).kron(M2.sigma[i - l1 - 1])
        left = _left_mult(HeckeElt.sigma(ctx, ell, i))
        relations += (rho.kron(eye_h) - eye_m.kron(left)).rows
    return quotient(ambient, span(ctx, ambient.dim, relations))


def check_prop_3_3(cfg: RunConfig) -> CheckResult:
    """Restriction of an affine induction is the finite induction.

    The finite side is the tensor product over the parabolic subalgebra,
    built as a quotient, so the two sides share no construction.
    """
    details = []
    rng = random.Random(cfg.seed)
    for n in cfg.n_values:
        ctx = cfg.context(n)
        pairs = [(1, 1), (1, 2), (2, 1)]
        for l1, l2 in pairs:
            a1 = _random_parameters(ctx, l1, rng)
            a2 = _random_parameters(ctx, l2, rng)
            M1 = universal_module(ctx, a1)
            M2 = universal_module(ctx, a2)
            Z = zelevinsky_induce(M1, M2)
            dims_ok = Z.dim == M1.dim * M2.dim * comb(l1 + l2, l1)
            Zfin = _induced_by_quotient(M1.restrict_to_finite(), M2.restrict_to_finite())
            T = are_isomorphic(Z.restrict_to_finite(), Zfin)
            details.append(
                (f"n={n} (l1,l2)=({l1},{l2})", dims_ok and T is not None,
                 f"dim={Z.dim}")
            )
    return _package("prop-3.3", details)


def _grid_points(ctx):
    return [
        ("1", ctx.one, False),
        ("q", ctx.q, False),
        ("q^2", ctx.q_power(2), True),
        ("q^3", ctx.q_power(3), False),
        ("q^-2", ctx.q_power(-2), True),
        ("2", ctx.scalar(2), False),
    ]


def check_prop_3_4c(cfg: RunConfig) -> CheckResult:
    """Reducibility of universal modules happens exactly at parameter ratio q^2."""
    details = []
    for n in cfg.n_values:
        ctx = cfg.context(n)
        for label, c, expect_reducible in _grid_points(ctx):
            M = universal_module(ctx, (ctx.one, c))
            got_reducible = not is_irreducible(M)[0]
            details.append(
                (f"n={n} a=(1,{label})", got_reducible == expect_reducible,
                 f"reducible={got_reducible}")
            )
    return _package("prop-3.4c", details)


def check_prop_4_1(cfg: RunConfig) -> CheckResult:
    """Braiding matrices commute with the quantum group and satisfy the
    Hecke relations (as sigma_i -> Rcheck_i on the tensor power); includes
    the loop-operator exchange identity on V (x) V."""
    details = []
    for n in cfg.n_values:
        ctx = cfg.context(n)
        V = natural_rep(ctx, n)
        for ell in [e for e in cfg.ell_values if e >= 2]:
            T = tensor_rep(V, ell)
            gens = T.generators()
            rchecks = [rcheck_i(ctx, n, ell, i) for i in range(1, ell)]
            ok = all(Ri * g == g * Ri for Ri in rchecks for g in gens.values())
            # the Hecke relations are invariant under reversal, so the column
            # action of the Rcheck_i may be checked as a right module
            braid = RightModule(ctx, "H", ell, (n + 1) ** ell, rchecks)
            ok = ok and verify_module_relations(braid).passed
            details.append((f"n={n} ell={ell} commutation+hecke", ok, ""))
        # exchange identity with the loop lowering operator on V (x) V
        R = rcheck(ctx, n)
        eyeV = Matrix.identity(ctx, n + 1)
        lhs = R * eyeV.kron(V.xtheta_m)
        rhs = (V.xtheta_m.kron(diag_inverse(V.ktheta))) * R
        details.append((f"n={n} loop exchange on VxV", lhs == rhs, ""))
    return _package("prop-4.1", details)


THM_4_2_VECTORS_PER_CASE = 5  # random parameter vectors per (n, ell)


def check_thm_4_2(cfg: RunConfig) -> CheckResult:
    """The affinized universal modules satisfy every quantum affine relation."""
    details = []
    rng = random.Random(cfg.seed)
    for n in cfg.n_values:
        ctx = cfg.context(n)
        for ell in cfg.ell_values:
            for trial in range(THM_4_2_VECTORS_PER_CASE):
                avec = _random_parameters(ctx, ell, rng)
                M = universal_module(ctx, avec)
                W = functor_F(M, n, check_source=False)
                rep = verify_affine_relations(W)
                central = verify_central_element(W)
                label = f"n={n} ell={ell} trial={trial}"
                details.append(
                    (label, rep.passed and central,
                     "" if rep.passed else str(rep.failures()[:3]))
                )
    return _package("thm-4.2", details)


def check_prop_4_6(cfg: RunConfig) -> CheckResult:
    """The functor turns Zelevinsky induction into tensor product."""
    details = []
    rng = random.Random(cfg.seed)
    for n in cfg.n_values:
        ctx = cfg.context(n)
        pairs = [
            (_random_parameters(ctx, 1, rng)[0], _random_parameters(ctx, 1, rng)[0])
            for _ in range(2)
        ]
        pairs.append((ctx.one, ctx.scalar(7)))
        for a1, a2 in pairs:
            M1 = one_dimensional_affine_module(ctx, [a1])
            M2 = one_dimensional_affine_module(ctx, [a2])
            Z = zelevinsky_induce(M1, M2)
            FZ = functor_F(Z, n, check_source=False)
            F1 = functor_F(M1, n, check_source=False)
            F2 = functor_F(M2, n, check_source=False)
            prod = tensor_affine_chain([F1, F2])
            dims_ok = FZ.dim == F1.dim * F2.dim
            T = are_isomorphic(FZ, prod)
            details.append(
                (f"n={n} a=({a1},{a2})", dims_ok and T is not None, f"dim={FZ.dim}")
            )
    return _package("prop-4.6", details)


def check_prop_4_7(cfg: RunConfig) -> CheckResult:
    """F of a universal module is the tensor product of natural evaluations."""
    details = []
    rng = random.Random(cfg.seed)
    for n in [v for v in cfg.n_values if v >= 2]:
        ctx = cfg.context(n)
        for ell in [e for e in cfg.ell_values if 2 <= e <= 3]:
            avec = _random_parameters(ctx, ell, rng)
            M = universal_module(ctx, avec)
            W = functor_F(M, n, check_source=False)
            dim_J = W.jimbo.module.dim
            dims_ok = dim_J == (n + 1) ** ell
            prod = tensor_affine_chain(
                [evaluation_natural(ctx, n, a) for a in avec]
            )
            T = are_isomorphic(W, prod)
            details.append(
                (f"n={n} ell={ell}", dims_ok and T is not None,
                 f"dim J={dim_J}")
            )
    return _package("prop-4.7", details)


def check_cor_4_8b(cfg: RunConfig) -> CheckResult:
    """Reducibility of the affinized module happens exactly at ratio q^2."""
    details = []
    for n in cfg.n_values:
        ctx = cfg.context(n)
        for label, c, expect_reducible in _grid_points(ctx):
            M = universal_module(ctx, (ctx.one, c))
            W = functor_F(M, n, check_source=False)
            got_reducible = not is_irreducible(W)[0]
            details.append(
                (f"n={n} F(M_(1,{label}))", got_reducible == expect_reducible,
                 f"reducible={got_reducible}")
            )
    return _package("cor-4.8b", details)


def check_thm_5_5(cfg: RunConfig) -> CheckResult:
    """The two evaluation routes agree through the functor."""
    details = []
    for n in cfg.n_values:
        ctx = cfg.context(n)
        points = [("1", ctx.one), ("q", ctx.q), ("2", ctx.scalar(2))]
        sources = []
        for ell in [e for e in cfg.ell_values if 1 <= e <= min(2, n)]:
            if ell == 1:
                sources.append(("ell=1 regular", hecke_regular_module(ctx, 1)))
            else:
                sources.append(
                    (f"ell={ell} trivial-type", one_dimensional_module(ctx, ell, ctx.q_power(2)))
                )
                sources.append(
                    (f"ell={ell} sign-type", one_dimensional_module(ctx, ell, ctx.scalar(-1)))
                )
                sources.append((f"ell={ell} regular", hecke_regular_module(ctx, ell)))
        for label, M in sources:
            for pname, a in points:
                T, lhs, rhs = theorem55_check(M, a, n)
                details.append((f"n={n} {label} a={pname}", T is not None, ""))
    return _package("thm-5.5", details)


def check_lemma_6_4(cfg: RunConfig) -> CheckResult:
    """Loop parameter extraction from the highest weight line."""
    details = []
    for n in [v for v in cfg.n_values if v <= 3]:
        ctx = cfg.context(n)
        centers = [("1", ctx.one), ("q", ctx.q), ("q^3", ctx.q_power(3))]
        for m in range(1, n + 1):
            for cname, c in centers:
                seg = make_segments(ctx, [(c, m)])
                vmod, _, _ = irreducible_V_a(seg, ctx)
                W = functor_F(vmod, n, check_source=False)
                hw = dominant_highest_weights(W)
                target = fundamental_weight(n, m)
                hw_ok = hw.get(target) == 1
                ok, extracted = lemma64_check(W, m, claimed_root=c.inverse())
                dp = drinfeld_polys(seg, n)
                root_ok = dp.degrees() == target and dp.poly(m)[0] == -c.inverse()
                details.append(
                    (f"n={n} m={m} center={cname}", hw_ok and ok and root_ok,
                     f"degrees={dp.degrees()}")
                )
    return _package("lemma-6.4", details)


def check_prop_7_2(cfg: RunConfig) -> CheckResult:
    """J of the distinguished constituent is the expected highest weight module."""
    details = []
    for n in [v for v in cfg.n_values if v >= 2]:
        ctx = cfg.context(n)
        for ell in [e for e in cfg.ell_values if e <= n]:
            power = tensor_rep(natural_rep(ctx, n), ell)
            hw = highest_weight_vectors(power)
            for parts in _partitions(ell):
                Jpi = rogawski_quotient(ctx, parts)
                img = jimbo_J(Jpi, n)
                target = partition_weight(n, parts)
                Vlam = _highest_weight_module(power, hw, target)
                hw_ok = dominant_highest_weights(img.module) == {target: 1}
                T = are_isomorphic(img.module, Vlam)
                details.append(
                    (f"n={n} pi={parts}", hw_ok and T is not None,
                     f"dims {img.module.dim}/{Vlam.dim}")
                )
    return _package("prop-7.2", details)


def _highest_weight_module(T: UqModule, hw: dict, weight) -> UqModule:
    """V(weight) = U^- v inside the module T, hw its highest weight vectors.

    U^0 acts on v by scalars and U^+ kills it, so by the triangular
    decomposition the lowering operators alone spin v to U v.
    """
    if weight not in hw:
        raise ValueError(f"no highest weight vector of weight {weight}")
    return submodule(T, spin(T.ctx, T.dim, [m.transpose() for m in T.xm], [hw[weight][0]]))


def check_prop_7_5(cfg: RunConfig) -> CheckResult:
    """Intertwiner properties of left multiplication by the KL generators."""
    details = []
    for n in cfg.n_values:
        ctx = cfg.context(n)
        cases = [
            make_segments(ctx, [(ctx.one, 2)]),
            make_segments(ctx, [(ctx.one, 2), (ctx.scalar(5), 1)]),
            make_segments(ctx, [(ctx.one, 3)]),
            make_segments(ctx, [(ctx.scalar(2), 1), (ctx.scalar(3), 1), (ctx.scalar(5), 1)]),
        ]
        for s in cases:
            inner = [i for i in range(1, s.ell) if i not in block_boundaries(s.partition())]
            ok = True
            for i in inner:
                T, src, tgt = intertwiner_A(s, ctx, i)
                for ga, gb in zip(src.action_matrices(), tgt.action_matrices()):
                    if not (ga * T == T * gb):
                        ok = False
            ideal = ideal_I_pi(s, ctx)
            inter = image_intersection_I_pi(s, ctx)
            ok = ok and (inter == ideal.basis)
            details.append((f"n={n} s={s!r}", ok, f"I_pi dim {ideal.module.dim}"))
        # the induced map on tensor space is q^-1 Rcheck_i - q
        s = make_segments(ctx, [(ctx.one, 2)])
        T, src, tgt = intertwiner_A(s, ctx, 1)
        Fsrc = functor_F(src, n, check_source=False)
        Ftgt = functor_F(tgt, n, check_source=False)
        FA = functor_F_map(T, Fsrc, Ftgt)
        phi_src = _identity_embedding(Fsrc)
        phi_tgt = _identity_embedding(Ftgt)
        R1 = rcheck_i(ctx, n, s.ell, 1)
        expected = R1.scale(ctx.q_power(-1)) - Matrix.identity(ctx, R1.nrows).scale(ctx.q)
        details.append(
            (f"n={n} induced map = q^-1 R - q", FA * phi_src == phi_tgt * expected, "")
        )
    return _package("prop-7.5", details)


def _identity_embedding(W: UqModule) -> Matrix:
    """The map v -> class of (identity basis vector (x) v) into F(M_a)."""
    img = W.jimbo
    D = img.tensor.dim
    ctx = W.ctx
    out = Matrix(ctx, W.dim, D)
    for c in range(D):
        col = img.embed(0, {c: ctx.one})
        for r, v in col.items():
            out.set_entry(r, c, v)
    return out


def check_thm_7_6(cfg: RunConfig) -> CheckResult:
    """Drinfeld polynomial dictionary for segment modules.

    Checks the degree law (the finite highest weight of F(V_a) matches the
    polynomial degrees, with a one-dimensional top weight space) and the
    tensor factorization of F(I_pi); ``lemma-6.4`` extracts the single
    segment parameter.
    """
    details = []
    for n in [v for v in cfg.n_values if v >= 2]:
        ctx = cfg.context(n)
        seg_sets = []
        if cfg.segments_spec:
            seg_sets.append(parse_segments(ctx, cfg.segments_spec))
        else:
            seg_sets.append(make_segments(ctx, [(ctx.one, min(2, n))]))
            seg_sets.append(make_segments(ctx, [(ctx.q, 1)]))
            seg_sets.append(make_segments(ctx, [(ctx.one, 1), (ctx.q_power(2), 1)]))
            if n >= 3:
                seg_sets.append(
                    make_segments(ctx, [(ctx.scalar(3), 2), (ctx.one, 1)])
                )
                # a length-1 segment linked to a length-2 one, above and below
                for e in (3, -3):
                    seg_sets.append(make_segments(ctx, [(ctx.one, 2), (ctx.q_power(e), 1)]))
        for s in seg_sets:
            if s.ell > n:
                continue
            dp = drinfeld_polys(s, n)
            vmod, _, ideal = irreducible_V_a(s, ctx)
            W = functor_F(vmod, n, check_source=False)
            hw = dominant_highest_weights(W)
            target = tuple(dp.degrees())
            ok = hw.get(target) == 1
            # tensor factorization of the full ideal
            FI = functor_F(ideal.module, n, check_source=False)
            factors = []
            for seg in s.segments:
                sub = make_segments(ctx, [(seg.center, seg.length)])
                m1, _, _ = irreducible_V_a(sub, ctx)
                factors.append(functor_F(m1, n, check_source=False))
            prod = tensor_affine_chain(factors)
            T = are_isomorphic(FI, prod)
            ok = ok and (T is not None)
            details.append(
                (f"n={n} {s!r}", ok, f"degrees={dp.degrees()} dimF={W.dim}")
            )
    return _package("thm-7.6", details)


def _package(check_id: str, details: list) -> CheckResult:
    # a check that ran no case has witnessed nothing, so it cannot pass
    passed = bool(details) and all(ok for _, ok, _ in details)
    return CheckResult(check_id, passed, details)


CHECKS: dict[str, Callable[[RunConfig], CheckResult]] = {
    "eq-12": check_eq_12,
    "lemma-7.3": check_lemma_7_3,
    "prop-3.3": check_prop_3_3,
    "prop-3.4c": check_prop_3_4c,
    "prop-4.1": check_prop_4_1,
    "thm-4.2": check_thm_4_2,
    "prop-4.6": check_prop_4_6,
    "prop-4.7": check_prop_4_7,
    "cor-4.8b": check_cor_4_8b,
    "thm-5.5": check_thm_5_5,
    "lemma-6.4": check_lemma_6_4,
    "prop-7.2": check_prop_7_2,
    "prop-7.5": check_prop_7_5,
    "thm-7.6": check_thm_7_6,
}


def run_check(check_id: str, cfg: RunConfig) -> CheckResult:
    """Run one check; a decision left undecided fails it with its message."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    start = time.time()
    try:
        result = CHECKS[check_id](cfg)
    except Undecided as e:
        result = CheckResult(check_id, False, [], undecided=str(e))
    result.seconds = time.time() - start
    return result


def details_digest(results) -> str:
    """SHA-256 over every result's record, in order, without its timing.

    Two sweeps with the same arguments have the same digest exactly when
    they reached the same results, on any code version.
    """
    records = [r.to_json() for r in results]
    for record in records:
        del record["seconds"]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
