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

``import linfty`` loads no submodule: each name in ``__all__`` imports its
module the first time it is read, so a caller loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "coalg": ("CoalgElem", "CoalgOperator", "GradedBasisModule", "TaylorSeq",
              "check_coderivation", "check_comorphism", "coder_from_taylor", "exp",
              "is_grouplike", "is_primitive", "ln", "morph_from_taylor", "taylor_of"),
    "diffop": ("PolyDiffOp", "gerstenhaber", "hochschild_d", "mu", "extend_to_series",
               "filtration_check"),
    "grammar": ("ParseError", "parse_element"),
    "hkr": ("FormalityPlugin", "TruncationSpec", "cohomology_rank", "hkr_report",
            "kontsevich_conditions", "mc_bivector_workflow", "trivial_plugin", "u1",
            "u1_chain_check"),
    "linf": ("LinfAlgebra", "LinfMorphism", "MCElement", "conjugation_twist",
             "extend_multilinear", "finiteness_bound", "linf_identity_check", "mc_push",
             "mc_residue", "twist_coder", "twist_morphism"),
    "poly": ("INF", "Poly"),
    "polyvec": ("PolyVec", "is_poisson", "schouten", "wedge"),
    "scalars": ("CoeffDGA", "DgaElem", "ValidationReport", "dga_check", "dga_tensor", "frac",
                "frac_str", "ksign", "make_truncated_poly_dga", "rational_field"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # nothing is stored in the package: a later read asks the submodule again,
    # so a name patched there (as the perfbench tracer does) is seen here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return [*globals(), *__all__]
