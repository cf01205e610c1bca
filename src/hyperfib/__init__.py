"""Exact hyperfibonacci sequences, their companion matrices, and
brute-force verification of the generalized Cassini determinant identities.

All arithmetic is arbitrary-precision integer; nothing here floats.
"""

from .sequences import Strategy, fibonacci, hyperfib, sequence
from .exact_linalg import IntMatrix, Polynomial, char_poly, det
from .cassini import build_window, cassini_det, predicted_sign
from .qmatrix import QMatrix, build_q, infer_recurrence, reconstruct
from .verify import Failure, VerifyReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "Failure",
    "IntMatrix",
    "Polynomial",
    "QMatrix",
    "Strategy",
    "VerifyReport",
    "build_q",
    "build_window",
    "cassini_det",
    "char_poly",
    "det",
    "fibonacci",
    "hyperfib",
    "infer_recurrence",
    "predicted_sign",
    "reconstruct",
    "sequence",
    "verify_all",
]
