"""Exact Schur-Weyl machinery for affine Hecke and quantum affine modules.

Construct finite-dimensional right modules over the (affine) Hecke algebra,
push them through the Schur-Weyl functor into type-1 modules over the
quantum affine algebra, and verify every defining relation and structural
identity as an exact matrix equation over Q(t).
"""

from .scalars import Scalar, ScalarContext
from .symgroup import Perm
from .hecke import HeckeElt, kl_parabolic_element
from .affine_hecke import (
    AffHeckeElt,
    RightModule,
    cherednik_pullback,
    universal_module,
    zelevinsky_induce,
)
from .uq_rep import UqModule, jimbo_J, natural_rep, rcheck, tensor_rep
from .affinization import (
    evaluation_natural,
    functor_F,
    jimbo_eval_pullback,
    theorem55_check,
    verify_affine_relations,
)
from .classification import (
    Segment,
    SegmentList,
    drinfeld_polys,
    irreducible_V_a,
    lemma64_check,
    make_segments,
    parse_segments,
)
from .module_tools import are_isomorphic, character, is_irreducible, spin_module

__all__ = [
    "AffHeckeElt",
    "HeckeElt",
    "Perm",
    "RightModule",
    "Scalar",
    "ScalarContext",
    "Segment",
    "SegmentList",
    "UqModule",
    "are_isomorphic",
    "character",
    "cherednik_pullback",
    "drinfeld_polys",
    "evaluation_natural",
    "functor_F",
    "irreducible_V_a",
    "is_irreducible",
    "jimbo_J",
    "jimbo_eval_pullback",
    "kl_parabolic_element",
    "lemma64_check",
    "make_segments",
    "natural_rep",
    "parse_segments",
    "rcheck",
    "spin_module",
    "tensor_rep",
    "theorem55_check",
    "universal_module",
    "verify_affine_relations",
    "zelevinsky_induce",
]
