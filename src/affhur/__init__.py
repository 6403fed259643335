"""Exact reflection-factorization computations in finite and affine Weyl groups.

Quasi-Coxeter detection, reduced-factorization enumeration, and
constructive braid-word witnesses for Hurwitz-action transitivity.
"""

__version__ = "0.1.0"

from .rootsys import Root, RootSystem, RootSystemError, build_root_system
from .weyl_fin import FiniteWeylElement, absolute_length, reflection_element
from .weyl_aff import AffineReflection, AffineWeylElement, affine_reflection
from .hurwitz import BraidWord, apply_braid, apply_move
from .quasicox import (absolute_length_affine, connect_reduced,
                       enumerate_factorizations, generates_affine,
                       is_quasi_coxeter_affine)

__all__ = [
    "__version__",
    "Root", "RootSystem", "RootSystemError", "build_root_system",
    "FiniteWeylElement", "absolute_length", "reflection_element",
    "AffineReflection", "AffineWeylElement", "affine_reflection",
    "BraidWord", "apply_braid", "apply_move",
    "absolute_length_affine", "connect_reduced", "enumerate_factorizations",
    "generates_affine", "is_quasi_coxeter_affine",
]
