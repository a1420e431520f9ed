"""Outside-in tracing of the qschur layers, installed by patching.

Spans (name, start, end, parent, case id) are recorded at the public-function
boundaries of the span layers, kept in memory and written out at the end.
``scalars`` and ``linalg`` run millions of calls per workload, so they get
aggregated counters and accumulated time instead of spans.  Every time a
metric reports is host-scaled like the end-to-end times: the span and
counter seconds of a case are multiplied by that case's host-speed factor
(``HostClock`` in ``run.py``), which ``end_case`` receives.  Nothing under
``src/`` changes: every wrapper is installed on the imported modules and
classes, at every import site that binds the wrapped object (``from .x
import y`` copies included), and removed again by ``uninstall``.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_LAYERS = ("affine_hecke", "hecke", "uq_rep", "affinization", "classification",
               "module_tools")
SPAN_METHODS = (("uq_rep", "JimboImage", "push_ambient_operator"),)

# Inclusive time of a group of functions: a span counts only when no
# ancestor span belongs to the same group, so nested calls are not doubled.
INCLUSIVE = {
    "uq_rep.jimbo_J_s": ("uq_rep.jimbo_J",),
    "uq_rep.push_s": ("uq_rep.JimboImage.push_ambient_operator",),
    "uq_rep.weights_s": ("uq_rep.weight_decomposition", "uq_rep.highest_weight_vectors",
                         "uq_rep.dominant_highest_weights", "uq_rep.weight_tools"),
    "affinization.relations_s": ("affinization.verify_affine_relations",
                                 "affinization.verify_finite_relations",
                                 "affinization.verify_central_element"),
    "affinization.tensor_s": ("affinization.tensor_affine", "affinization.tensor_affine_chain"),
    "affinization.eval_s": ("affinization.evaluation_natural",
                            "affinization.jimbo_eval_pullback"),
    "classification.V_a_s": ("classification.irreducible_V_a",),
    "classification.ideal_s": ("classification.ideal_I_pi",),
    "classification.drinfeld_s": ("classification.drinfeld_polys",
                                  "classification.lemma64_check"),
    "module_tools.iso_s": ("module_tools.are_isomorphic",),
    "module_tools.irr_s": ("module_tools.is_irreducible", "module_tools.proper_submodule"),
    "module_tools.spin_s": ("module_tools.spin", "module_tools.spin_module"),
}
CALLS = {
    "uq_rep.jimbo_J_calls": ("uq_rep.jimbo_J",),
    "module_tools.iso_calls": ("module_tools.are_isomorphic",),
    "module_tools.irr_calls": ("module_tools.is_irreducible", "module_tools.proper_submodule"),
}
SELF = {
    "affinization.functor_F_s": ("affinization.functor_F",),
}

# Per-layer metrics in output order, with units.  Counts and times are per
# round of the workload's mix; shares and ratios are dimensionless.
PER_LAYER_UNITS = {
    "scalars.mul_calls": "count", "scalars.add_calls": "count", "scalars.inv_calls": "count",
    "scalars.op_s": "s", "scalars.ratfunc_share": "ratio",
    "linalg.basis_add_calls": "count", "linalg.basis_add_grew_share": "ratio",
    "linalg.reduce_calls": "count", "linalg.apply_col_calls": "count",
    "linalg.apply_col_s": "s", "linalg.matmul_calls": "count", "linalg.matmul_s": "s",
    "linalg.kron_s": "s", "linalg.ambient_max": "count",
    "uq_rep.jimbo_J_calls": "count", "uq_rep.jimbo_J_s": "s",
    "uq_rep.jimbo_ambient_sum": "count", "uq_rep.push_s": "s", "uq_rep.weights_s": "s",
    "affinization.functor_F_s": "s", "affinization.relations_s": "s",
    "affinization.relations_checked": "count", "affinization.tensor_s": "s",
    "affinization.eval_s": "s",
    "affine_hecke.self_s": "s", "affine_hecke.module_dim_sum": "count", "hecke.self_s": "s",
    "classification.V_a_s": "s", "classification.ideal_s": "s",
    "classification.drinfeld_s": "s", "classification.segments_parsed": "count",
    "module_tools.iso_calls": "count", "module_tools.iso_s": "s",
    "module_tools.hom_unknowns": "count", "module_tools.irr_calls": "count",
    "module_tools.irr_s": "s", "module_tools.cert_norton": "count",
    "module_tools.cert_density": "count", "module_tools.cert_submodule": "count",
    "module_tools.spin_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in SPAN_LAYERS},
    "env.host_ref_s": "s", "env.trace_overhead": "ratio",
}

# What the traced run must see on each workload.  A metric listed under
# "nonzero" that reads 0, or one under "zero" that does not, fails the run.
_RELATIONS_NONZERO = ("uq_rep.jimbo_J_calls", "uq_rep.jimbo_ambient_sum", "uq_rep.push_s",
                      "affinization.functor_F_s", "affinization.relations_s",
                      "affinization.relations_checked", "affine_hecke.module_dim_sum",
                      "linalg.basis_add_calls", "linalg.reduce_calls",
                      "linalg.apply_col_calls", "linalg.matmul_calls", "linalg.kron_s",
                      "scalars.mul_calls", "scalars.add_calls", "scalars.inv_calls")
_MODULE_TOOLS = tuple(k for k in PER_LAYER_UNITS if k.startswith("module_tools."))
EXPECT = {
    "relations": {"nonzero": _RELATIONS_NONZERO + ("scalars.ratfunc_share",),
                  "zero": _MODULE_TOOLS},
    "relations-rational": {"nonzero": _RELATIONS_NONZERO,
                           "zero": _MODULE_TOOLS + ("scalars.ratfunc_share",)},
    "dictionary": {"nonzero": ("module_tools.iso_calls", "module_tools.iso_s",
                               "module_tools.hom_unknowns", "affinization.tensor_s",
                               "affinization.eval_s", "affinization.functor_F_s",
                               "uq_rep.jimbo_J_calls", "classification.ideal_s",
                               "scalars.ratfunc_share"),
                   "zero": ()},
    "segments": {"nonzero": ("classification.V_a_s", "classification.ideal_s",
                             "classification.drinfeld_s", "classification.segments_parsed",
                             "module_tools.irr_calls", "module_tools.irr_s",
                             "module_tools.cert_norton", "module_tools.cert_submodule",
                             "module_tools.spin_s", "affinization.relations_s",
                             "hecke.self_s"),
                 "zero": ()},
}


class _Counts:
    __slots__ = ("mul", "add", "inv", "ratfunc", "op_s", "basis_add", "basis_grew",
                 "reduce", "apply_col", "apply_col_s", "matmul", "matmul_s", "kron_s",
                 "ambient_max")
    TIMES = ("op_s", "apply_col_s", "matmul_s", "kron_s")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    """Patches the imported ``qschur`` package; one instance per run."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []          # (name, start, end, parent index, case id)
        self._stack: list = []
        self.case_id = None
        self.factors: dict = {}        # case id -> host-speed factor of the case
        self.c = _Counts()             # counter times raw, as accumulated
        self._raw_mark = dict.fromkeys(_Counts.TIMES, 0.0)  # raw times when the last case ended
        self.scaled = dict.fromkeys(_Counts.TIMES, 0.0)     # times scaled case by case
        self.hooks = defaultdict(float)
        self.rounds = 0
        self._patches: list = []       # (owner, attribute, original)
        self._originals: dict = {}     # id(original) -> original

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "qschur" or name.startswith("qschur."))]

    def _replace(self, original, wrapper):
        """Install ``wrapper`` at every module attribute bound to ``original``."""
        self._originals[id(original)] = original
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._originals[id(original)] = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        lib = self.lib
        for layer in SPAN_LAYERS:
            mod = getattr(lib, layer)
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._replace(fn, self._span(f"{layer}.{name}", fn))
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            self._set(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        mt = lib.module_tools
        self._replace(mt._decide_irreducibility, self._cert_counter(mt._decide_irreducibility))
        self._install_scalars(lib.scalars)
        self._install_linalg(lib.linalg)
        return self.uncovered()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def uncovered(self) -> list:
        """Attributes of qschur modules or patched classes still bound to an original."""
        owners = self._modules() + list({id(o): o for o, _, _ in self._patches
                                        if isinstance(o, type)}.values())
        return [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
                for attr, val in vars(o).items() if id(val) in self._originals
                and val is self._originals[id(val)]]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, hook = self.spans, self._stack, _RESULT_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.case_id)
            if hook is not None:
                hook(tracer.hooks, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _cert_counter(self, fn):
        hooks = self.hooks

        def counted(*args, **kwargs):
            verdict = fn(*args, **kwargs)
            if verdict[0] == "reducible":
                hooks["module_tools.cert_submodule"] += 1
            elif verdict[1].get("kind") in ("norton", "density"):
                hooks[f"module_tools.cert_{verdict[1]['kind']}"] += 1
            return verdict

        counted.__wrapped__ = fn
        return counted

    def _install_scalars(self, sc):
        S, one, c = sc.Scalar, sc._DEN_ONE, self.c
        add, mul, inverse = S.__add__, S.__mul__, S.inverse

        def t_add(self, other):
            t = perf_counter()
            r = add(self, other)
            c.op_s += perf_counter() - t
            c.add += 1
            if self.den is not one or getattr(other, "den", one) is not one:
                c.ratfunc += 1
            return r

        def t_mul(self, other):
            t = perf_counter()
            r = mul(self, other)
            c.op_s += perf_counter() - t
            c.mul += 1
            if self.den is not one or getattr(other, "den", one) is not one:
                c.ratfunc += 1
            return r

        def t_inverse(self):
            t = perf_counter()
            r = inverse(self)
            c.op_s += perf_counter() - t
            c.inv += 1
            return r

        for attr, w in (("__add__", t_add), ("__radd__", t_add), ("__mul__", t_mul),
                        ("__rmul__", t_mul), ("inverse", t_inverse)):
            self._set(S, attr, w)

    def _install_linalg(self, la):
        M, B, c = la.Matrix, la.SubspaceBasis, self.c
        mul, kron, apply_col = M.__mul__, M.kron, M.apply_col
        add, reduce = B.add, B.reduce

        def t_mul(self, other):
            if not isinstance(other, M):
                return mul(self, other)
            t = perf_counter()
            r = mul(self, other)
            c.matmul_s += perf_counter() - t
            c.matmul += 1
            return r

        def t_kron(self, other):
            t = perf_counter()
            r = kron(self, other)
            c.kron_s += perf_counter() - t
            return r

        def t_apply_col(self, v):
            t = perf_counter()
            r = apply_col(self, v)
            c.apply_col_s += perf_counter() - t
            c.apply_col += 1
            return r

        def t_add(self, v):
            grew = add(self, v)
            c.basis_add += 1
            c.basis_grew += grew
            if self.ambient > c.ambient_max:
                c.ambient_max = self.ambient
            return grew

        def t_reduce(self, v):
            c.reduce += 1
            return reduce(self, v)

        for owner, attr, w in ((M, "__mul__", t_mul), (M, "kron", t_kron),
                               (M, "apply_col", t_apply_col), (B, "add", t_add),
                               (B, "reduce", t_reduce)):
            self._set(owner, attr, w)

    def end_case(self, factor: float):
        """Record the host-speed factor of the case that just ended."""
        self.factors[self.case_id] = factor
        for name in _Counts.TIMES:
            now = getattr(self.c, name)
            self.scaled[name] += (now - self._raw_mark[name]) * factor
            self._raw_mark[name] = now

    # -- results --------------------------------------------------------------

    def metrics(self, traced_case_s: float) -> dict:
        """Per-layer metrics from the spans and counters of all traced rounds.

        ``traced_case_s`` is the host-scaled time of the traced cases.
        """
        spans, c, sc = self.spans, self.c, self.scaled
        durations = [(end - start) * self.factors[case] for _, start, end, _, case in spans]
        children = [0.0] * len(spans)
        for (_, _, _, parent, _), dur in zip(spans, durations):
            if parent >= 0:
                children[parent] += dur

        def has_ancestor_in(idx, group):
            p = spans[idx][3]
            while p >= 0:
                if spans[p][0] in group:
                    return True
                p = spans[p][3]
            return False

        out = defaultdict(float)
        for idx, ((name, _, _, _, _), dur) in enumerate(zip(spans, durations)):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur - children[idx]
            for metric, group in SELF.items():
                if name in group:
                    out[metric] += dur - children[idx]
            for metric, group in CALLS.items():
                if name in group:
                    out[metric] += 1
            for metric, group in INCLUSIVE.items():
                if name in group and not has_ancestor_in(idx, group):
                    out[metric] += dur
        out.update(self.hooks)
        ops = c.mul + c.add
        out.update({
            "scalars.mul_calls": c.mul, "scalars.add_calls": c.add, "scalars.inv_calls": c.inv,
            "scalars.op_s": sc["op_s"], "scalars.ratfunc_share": c.ratfunc / ops if ops else 0.0,
            "linalg.basis_add_calls": c.basis_add,
            "linalg.basis_add_grew_share": c.basis_grew / c.basis_add if c.basis_add else 0.0,
            "linalg.reduce_calls": c.reduce, "linalg.apply_col_calls": c.apply_col,
            "linalg.apply_col_s": sc["apply_col_s"], "linalg.matmul_calls": c.matmul,
            "linalg.matmul_s": sc["matmul_s"], "linalg.kron_s": sc["kron_s"],
            "linalg.ambient_max": c.ambient_max,
        })
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_share"] = out[f"{layer}.self_s"] / traced_case_s
        rounds = max(self.rounds, 1)
        return {k: (out[k] if k.endswith("_share") or k == "linalg.ambient_max"
                    else out[k] / rounds)
                for k in PER_LAYER_UNITS if not k.startswith("env.")}

    def write_spans(self, path):
        """One JSON list per span: name, raw start and end, parent, case id, case factor."""
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, start, end, parent, case, self.factors[case]]) + "\n")


def _jimbo_ambient(hooks, args, result):
    M, n = args[0], args[1]
    hooks["uq_rep.jimbo_ambient_sum"] += M.dim * (n + 1) ** M.ell


def _module_dim(hooks, args, result):
    if hasattr(result, "dim") and hasattr(result, "kind"):
        hooks["affine_hecke.module_dim_sum"] += result.dim


def _relations_checked(hooks, args, result):
    hooks["affinization.relations_checked"] += len(result.results)


def _central_checked(hooks, args, result):
    hooks["affinization.relations_checked"] += 1


def _segments_parsed(hooks, args, result):
    hooks["classification.segments_parsed"] += len(result.segments)


def _hom_unknowns(hooks, args, result):
    """Sum over weights of mult_A(w) * mult_B(w): the unknowns of the Hom solve."""
    A, B = args[0], args[1]
    wa, wb = getattr(A, "weights", None), getattr(B, "weights", None)
    if wa is None or wb is None:
        hooks["module_tools.hom_unknowns"] += A.dim * B.dim
        return
    mult: dict = defaultdict(int)
    for w in wb:
        mult[w] += 1
    hooks["module_tools.hom_unknowns"] += sum(mult[w] for w in wa)


_RESULT_HOOKS = {
    "uq_rep.jimbo_J": _jimbo_ambient,
    "affinization.verify_affine_relations": _relations_checked,
    "affinization.verify_finite_relations": _relations_checked,
    "affinization.verify_central_element": _central_checked,
    "classification.parse_segments": _segments_parsed,
    "classification.make_segments": _segments_parsed,
    "module_tools.are_isomorphic": _hom_unknowns,
    **{f"affine_hecke.{name}": _module_dim
       for name in ("universal_module", "hecke_regular_module", "zelevinsky_induce",
                    "zelevinsky_induce_finite", "cherednik_pullback",
                    "one_dimensional_module", "one_dimensional_affine_module")},
}
