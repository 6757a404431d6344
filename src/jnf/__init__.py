"""Exact Jordan and rational Jordan normal forms over Q and prime fields,
computed from the comatrix polynomial of lambda*I - A."""

from .charpoly import comatrix_block, hessenberg_charpoly
from .decomposition import JordanDecomposition, verify
from .errors import (InternalConsistencyError, InvalidHintError, JnfError,
                     NeedsFactorizationError, ParseError, UnsupportedFieldError)
from .factor import FactoredCharPoly, factor_charpoly, parse_factor_hints
from .fields import PrimeField, QQ, Rationals
from .jordan_rational import decompose, extract_q_cycles
from .matrix import MatPoly, Matrix
from .poly import Poly

__all__ = [
    "FactoredCharPoly", "InternalConsistencyError", "InvalidHintError",
    "JnfError", "JordanDecomposition", "MatPoly", "Matrix",
    "NeedsFactorizationError", "ParseError", "Poly", "PrimeField", "QQ",
    "Rationals", "UnsupportedFieldError", "comatrix_block", "decompose",
    "extract_q_cycles", "factor_charpoly", "hessenberg_charpoly",
    "parse_factor_hints", "verify",
]
