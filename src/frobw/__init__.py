"""Frobenius-splitting workbench: graded splitting subspaces of hypersurface
section rings over prime fields, and exact alpha-invariants of simplicial
toric Fano varieties."""

__version__ = "0.1.0"

from .ffkernel import PrimeField, PolynomialFp
from .splitting import GradedHypersurface, SplittingProfile, FanoReport
from .toric import FanData, RationalPolytope, ToricAlphaReport

__all__ = [
    "PrimeField",
    "PolynomialFp",
    "GradedHypersurface",
    "SplittingProfile",
    "FanoReport",
    "FanData",
    "RationalPolytope",
    "ToricAlphaReport",
    "__version__",
]
