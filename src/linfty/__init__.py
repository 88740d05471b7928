"""linfty: exact-arithmetic homological algebra at desk scale.

Layers, bottom up:

* ``scalars``  — rationals and finite graded DG coefficient algebras
* ``poly``     — sparse multivariate polynomials with truncation thresholds
* ``polyvec``  — poly vector fields, wedge, Schouten-Nijenhuis bracket
* ``diffop``   — poly differential operators, Gerstenhaber bracket, Hochschild d
* ``coalg``    — truncated symmetric coalgebra, coderivations, morphisms
* ``linf``     — L-infinity algebras, Maurer-Cartan elements, twisting
* ``hkr``      — antisymmetrization map and cohomology rank checks
* ``cli``      — command-line front end and element grammar
"""

from .coalg import (CoalgElem, CoalgOperator, GradedBasisModule, TaylorSeq,
                    check_coderivation, check_comorphism, coder_from_taylor,
                    exp, is_grouplike, is_primitive, ln, morph_from_taylor,
                    taylor_of)
from .diffop import (PolyDiffOp, gerstenhaber, hochschild_d, mu,
                     extend_to_series, filtration_check)
from .grammar import ParseError, parse_element
from .hkr import (FormalityPlugin, TruncationSpec, cohomology_rank,
                  hkr_report, kontsevich_conditions, mc_bivector_workflow,
                  trivial_plugin, u1, u1_chain_check)
from .linf import (LinfAlgebra, LinfMorphism, MCElement, conjugation_twist,
                   extend_multilinear, finiteness_bound, linf_identity_check,
                   mc_push, mc_residue, twist_coder, twist_morphism)
from .poly import INF, Poly
from .polyvec import PolyVec, is_poisson, schouten, wedge
from .scalars import (CoeffDGA, DgaElem, ValidationReport, dga_check,
                      dga_tensor, frac, frac_str, ksign,
                      make_truncated_poly_dga, rational_field)

__all__ = [
    "CoalgElem", "CoalgOperator", "GradedBasisModule", "TaylorSeq",
    "check_coderivation", "check_comorphism", "coder_from_taylor", "exp",
    "is_grouplike", "is_primitive", "ln", "morph_from_taylor", "taylor_of",
    "PolyDiffOp", "gerstenhaber", "hochschild_d", "mu", "extend_to_series",
    "filtration_check", "ParseError", "parse_element", "FormalityPlugin",
    "TruncationSpec", "cohomology_rank", "hkr_report", "kontsevich_conditions",
    "mc_bivector_workflow", "trivial_plugin", "u1", "u1_chain_check",
    "LinfAlgebra", "LinfMorphism", "MCElement", "conjugation_twist",
    "extend_multilinear", "finiteness_bound", "linf_identity_check", "mc_push",
    "mc_residue", "twist_coder", "twist_morphism",
    "INF", "Poly", "PolyVec",
    "is_poisson", "schouten", "wedge", "CoeffDGA", "DgaElem",
    "ValidationReport", "dga_check", "dga_tensor", "frac", "frac_str", "ksign",
    "make_truncated_poly_dga", "rational_field",
]
