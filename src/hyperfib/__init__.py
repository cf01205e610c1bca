"""Exact hyperfibonacci sequences, their companion matrices, and
brute-force verification of the generalized Cassini determinant identities.

All arithmetic is arbitrary-precision integer; nothing here floats.
"""

from .sequences import (
    HyperfibSequence,
    Strategy,
    binomial_poly,
    fibonacci,
    hyperfib,
    polytopic,
    sequence,
)
from .exact_linalg import (
    IntMatrix,
    Polynomial,
    adjugate_inverse,
    char_poly,
    det,
    mat_mul,
    mat_pow,
)
from .cassini import (
    SecondOrderPair,
    Window,
    build_window,
    cassini_det,
    general_cassini,
    predicted_sign,
    shifted_fib_det,
    zero_det_check,
)
from .qmatrix import (
    QMatrix,
    build_q,
    infer_recurrence,
    q_closed_tail,
    reconstruct,
)
from .verify import DEFAULT_SEED, Failure, VerifyReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Failure",
    "HyperfibSequence",
    "IntMatrix",
    "Polynomial",
    "QMatrix",
    "SecondOrderPair",
    "Strategy",
    "VerifyReport",
    "Window",
    "adjugate_inverse",
    "binomial_poly",
    "build_q",
    "build_window",
    "cassini_det",
    "char_poly",
    "det",
    "fibonacci",
    "general_cassini",
    "hyperfib",
    "infer_recurrence",
    "mat_mul",
    "mat_pow",
    "polytopic",
    "predicted_sign",
    "q_closed_tail",
    "reconstruct",
    "sequence",
    "shifted_fib_det",
    "verify_all",
    "zero_det_check",
]
