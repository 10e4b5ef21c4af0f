"""Exact Kazhdan-Lusztig combinatorics over the symmetric group.

Subpackages cover sparse Laurent arithmetic (poly), Bruhat-order and
parabolic-coset combinatorics (symgroup), ordinary and parabolic
Kazhdan-Lusztig polynomials with a persistent memo table (kl), segment and
bi-sequence machinery (segcomb), the dual-PBW straightening engine (pbw),
the transition matrices between the dual bases (transition), and a
verification harness over all of it (verify).
"""

from .poly import LaurentPoly, NotAQPolynomial
from .symgroup import NotComparable, Perm, bruhat_leq, length
from .kl import KLTable, kl_poly, parabolic_kl_neg1, parabolic_kl_q

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "NotAQPolynomial",
    "NotComparable",
    "Perm",
    "bruhat_leq",
    "length",
    "KLTable",
    "kl_poly",
    "parabolic_kl_q",
    "parabolic_kl_neg1",
    "__version__",
]
