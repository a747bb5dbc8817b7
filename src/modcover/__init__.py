"""Covering numbers of finite modules over finite commutative rings.

Core objects: FiniteRing (explicit additive coordinates plus a basis
multiplication table) and RealizedModule (a finitely presented module
materialized into canonical coordinates). On top of those: maximal
ideals and submodules, Jacobson radicals, composition length, dual
Goldie dimension, localization, a closed-form covering number, an exact
branch-and-bound cover search, and a verification harness.
"""

from .covering import (
    CoverCertificate,
    SearchSpace,
    SigmaPrediction,
    construct_cover,
    greedy_cover,
    sigma_exact,
    sigma_formula,
    verify_cover,
)
from .dsl import parse_module, parse_presentation, parse_ring
from .errors import GuardExceeded, ParseError
from .harness import (
    InstanceSpec,
    VerificationReport,
    corpus_generate,
    run_suite,
)
from .modules import (
    ModulePresentation,
    RealizedModule,
    Submodule,
    all_submodules,
    cyclic_sum,
    direct_sum,
    free_module,
    hdim,
    ideal_action,
    is_cyclic,
    jacobson_radical,
    length,
    localize_at_s,
    maximal_submodules,
    quotient_module,
    realize,
    s_set,
    semisimple_invariants,
    submodule_generated,
)
from .rings import (
    FiniteRing,
    Ideal,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    ring_gf,
    ring_product,
    ring_zmod,
)

__version__ = "1.0.0"

__all__ = [
    "CoverCertificate",
    "FiniteRing",
    "GuardExceeded",
    "Ideal",
    "InstanceSpec",
    "ModulePresentation",
    "ParseError",
    "RealizedModule",
    "SearchSpace",
    "SigmaPrediction",
    "Submodule",
    "VerificationReport",
    "all_submodules",
    "construct_cover",
    "corpus_generate",
    "cyclic_sum",
    "direct_sum",
    "free_module",
    "greedy_cover",
    "hdim",
    "ideal_action",
    "ideal_generated",
    "is_cyclic",
    "jacobson_radical",
    "length",
    "local_factorization",
    "localize_at_s",
    "maximal_ideals",
    "maximal_submodules",
    "parse_module",
    "parse_presentation",
    "parse_ring",
    "quotient_module",
    "quotient_ring",
    "realize",
    "ring_gf",
    "ring_product",
    "ring_zmod",
    "run_suite",
    "s_set",
    "semisimple_invariants",
    "sigma_exact",
    "sigma_formula",
    "submodule_generated",
    "verify_cover",
]
