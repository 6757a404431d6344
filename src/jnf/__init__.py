"""Exact Jordan and rational Jordan normal forms over Q and prime fields,
computed from the comatrix polynomial of lambda*I - A."""

from .charpoly import CharData, char_data, comatrix_block, \
    comatrix_from_charpoly, faddeev, hessenberg_charpoly
from .decomposition import JordanDecomposition, verify
from .errors import (InternalConsistencyError, InvalidHintError, JnfError,
                     NeedsFactorizationError, ParseError, SingularMatrixError,
                     UnsupportedFieldError)
from .factor import FactoredCharPoly, factor_charpoly, parse_factor_hints
from .fields import PrimeField, QQ, Rationals
from .jordan_linear import extract_cycles, split_jordan, taylor_blocks
from .jordan_rational import (assemble_pseudo_rational, extract_q_cycles,
                              q_adic_blocks, rational_jordan)
from .matrix import MatPoly, Matrix
from .poly import Poly

__all__ = [
    "CharData", "FactoredCharPoly", "InternalConsistencyError",
    "InvalidHintError", "JnfError", "JordanDecomposition", "MatPoly", "Matrix",
    "NeedsFactorizationError", "ParseError", "Poly", "PrimeField", "QQ",
    "Rationals", "SingularMatrixError", "UnsupportedFieldError",
    "assemble_pseudo_rational", "char_data", "comatrix_block",
    "comatrix_from_charpoly",
    "extract_cycles", "extract_q_cycles", "faddeev", "factor_charpoly",
    "hessenberg_charpoly", "parse_factor_hints", "q_adic_blocks",
    "rational_jordan", "split_jordan", "taylor_blocks", "verify",
]
