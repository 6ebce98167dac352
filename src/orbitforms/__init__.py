"""Exact engine for trigonometric Calogero-Sutherland models in orbit space.

Algebraic forms, invariant flags, hidden-algebra decompositions, particular
integrals and exact spectra, all over arbitrary-precision rationals, with a
high-precision Cartesian oracle for independent numerical verification.
"""

# before the submodule imports: report reads it when it is imported
__version__ = "0.2.0"

from .poly import (CharVector, FlagSpace, MultiPoly, RationalFn,
                   enumerate_flag_basis, qq)
from .diffop import (DiffOp, ExactMatrix, GaugeFactor, apply, commutator,
                     compose, gauge_conjugate, preserves_flag,
                     restrict_to_flag)
from .models import (ModelBundle, ModelSpec, build_bc1, build_bc1_qes,
                     build_bcn, build_g2, build_mw_family, build_sutherland,
                     char_vector_table, eigenvalue_formula, ttw_models)
from .algebra import (GeneratorSet, GeneratorWord, check_structure,
                      evaluate_word, fit_decomposition, g2_algebra_generators,
                      gl2_generators, gln_generators)
from .integrals import PiIntegral, annihilation_check, build_pi_integral
from .spectral import (SpectrumRecord, jacobi_reference, orthogonality_check,
                       qes_spectrum, spectrum)

__all__ = [
    "CharVector", "FlagSpace", "MultiPoly", "RationalFn",
    "enumerate_flag_basis", "qq",
    "DiffOp", "ExactMatrix", "GaugeFactor", "apply", "commutator", "compose",
    "gauge_conjugate", "preserves_flag", "restrict_to_flag",
    "ModelBundle", "ModelSpec", "build_bc1", "build_bc1_qes", "build_bcn",
    "build_g2", "build_mw_family", "build_sutherland", "char_vector_table",
    "eigenvalue_formula", "ttw_models",
    "GeneratorSet", "GeneratorWord", "check_structure", "evaluate_word",
    "fit_decomposition", "g2_algebra_generators", "gl2_generators",
    "gln_generators",
    "PiIntegral", "annihilation_check", "build_pi_integral",
    "SpectrumRecord", "jacobi_reference", "orthogonality_check",
    "qes_spectrum", "spectrum",
]
