"""Transition coefficients between the two dual bases over a family.

Over a bi-sequence family the two bases indexed by the family's
multisegments are unitriangular with respect to Bruhat order on the
(double-coset) permutation indices, and the two directions of expansion
are mutually inverse matrices.  The supported families are the strongly
regular bi-sequences and their m-fold replications; anything else raises
UnsupportedFamily, because the dimension parameter entering the
coefficients is not available in general.

The indices are the double cosets W_b w W_a in S_k, where W_b and W_a
are the parabolics fixing the runs of equal right and left ends: two words
give the same member of the family exactly when they lie in one such
coset.  Each coset is represented by its minimal element.  For a strongly
regular family both parabolics are trivial and every coset is a
singleton; for an m-replication they are the block parabolic W_m.  One
route serves both: the top index omega~ is the minimal representative of
omega's coset, and the Kazhdan-Lusztig row {x: P_{x,omega~}} of omega~
holds its whole lower Bruhat interval.  Grouping that row by coset yields
every index below omega~ (a coset's minimal element lies below all its
members) together with the polynomials the signed sums need, so S_k is
never enumerated.  The matrix index set is read the same way from the row
of the minimal representative of w0's coset, which lies above every other
minimal representative.

The dimension gap between indices sigma <= omega is taken to be the
length difference of the representatives.  On pairs coming from the
normalizer of W_m (representatives t_m(x)) this equals m**2 (length
difference downstairs), the value the closed-form parabolic coefficients
use; elsewhere it is the natural extension, and the inversion identity is
insensitive to the choice since any per-index normalization conjugates
out of the matrix product.

Expansion coefficients, rendered in v with q = v**-2:

* basis E in terms of basis G, entry (sigma, omega):
      v**c(sigma,omega) * P_{omega~ w0, sigma~ w0}(q)
* basis G in terms of basis E, entry (sigma, omega):
      v**c(sigma,omega) * eps(omega~) * sum over x in the coset sigma of
          eps(x) * P_{x, omega~}(q)

Both closed parabolic forms (the translated ordinary polynomial for E in
G, the alternating-sum polynomial for G in E, each with the monomial
v**(m**2 length gap) and sign eps(sigma omega)**m) must agree entrywise
with these on replicated families; tests/helpers.py assembles them for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .kl import (
    _LEN_MASK,
    KLTable,
    _add_unpacked,
    _decode,
    _encode,
    _row,
    _shift,
    kl_poly,
    parabolic_kl_q,  # noqa: F401  (perfbench/spans.py patches it)
)
from .poly import LaurentPoly
from .segcomb import (
    BelowSigma0,
    BiSequence,
    Multisegment,
    is_regular,  # noqa: F401  (perfbench/spans.py patches it)
    is_strongly_regular,
    multisegment_of,
    p1_shape,
    p2_shape,
    replicate,
    sigma0,
)
from .pbw import PBWElement, product_expansion_guarded
from .symgroup import (
    Perm,
    bruhat_leq,
    compose,
    length,
    longest_element,
    min_double_coset_rep,
    parity,
)


class UnsupportedFamily(ValueError):
    """The bi-sequence is neither strongly regular nor a replication of a
    strongly regular one; its dimension parameters are not available."""


Direction = Literal["e2g", "g2e"]


def _canon_direction(direction: str) -> Direction:
    if direction not in ("e2g", "g2e"):
        raise ValueError(f"unknown direction {direction!r}")
    return direction


def family_replication(A: BiSequence) -> tuple[BiSequence, int]:
    """Split A as the m-fold replication of a strongly regular base.

    Returns (base, m); m = 1 when A itself is strongly regular.  Raises
    UnsupportedFamily otherwise.
    """
    if is_strongly_regular(A):
        return A, 1
    lengths = set(p1_shape(A).block_sizes) | set(p2_shape(A).block_sizes)
    if len(lengths) != 1:
        raise UnsupportedFamily(f"{A} is not a uniform replication")
    m = lengths.pop()
    if m < 2:
        raise UnsupportedFamily(f"{A} is not a replication of a regular family")
    base = BiSequence(A.a[::m], A.b[::m])
    if not is_strongly_regular(base):
        raise UnsupportedFamily(f"the base {base} of {A} is not strongly regular")
    return base, m


def _check_family(A: BiSequence, omega: Perm) -> tuple[Perm, Perm]:
    """Validate the family and the top permutation; returns (sigma0, omega~)."""
    family_replication(A)
    s0 = sigma0(A)
    if len(omega) != A.k:
        raise ValueError("permutation size does not match the family")
    top = min_double_coset_rep(omega, p1_shape(A), p2_shape(A))
    if not bruhat_leq(s0, top):
        raise BelowSigma0(f"{omega} lies below sigma0({A}) = {s0}")
    return s0, top


def _cosets_below(table: KLTable, A: BiSequence, top: Perm) -> dict[Perm, LaurentPoly]:
    """The row {x: P_{x,top}} summed with signs (-1)**length(x) over each
    double coset of the family.

    x pairs a_i with b_{x(i)}, so two words lie in the same double coset
    exactly when each run of equal left ends gets the same number of each
    right end.  That count matrix is read off the row's keys as a sum of
    powers of n + 1, one unit per value.  Keys of the result are the
    shortest members, the minimal representatives: the row holds the whole
    lower interval of top, and a coset's minimal element lies below each of
    its members.
    """
    n = A.k
    ends = {b: r for r, b in enumerate(sorted(set(A.b)))}
    run_of = [j for j, (start, stop) in enumerate(p2_shape(A).blocks())
              for _ in range(start, stop)]
    # per value v: the shift of its position field, and its unit by position
    units = [(_shift(v, n), [(n + 1) ** (j * len(ends) + ends[b]) for j in run_of])
             for v, b in enumerate(A.b, 1)]
    buckets: dict[int, list] = {}  # count matrix -> [shortest key, {packed: sign sum}]
    for y, p in _row(table, _encode(top), n).items():
        coset = 0
        for shift, unit in units:
            coset += unit[y >> shift & 15]
        bucket = buckets.get(coset)
        if bucket is None:
            bucket = buckets[coset] = [y, {}]
        elif y & _LEN_MASK < bucket[0] & _LEN_MASK:
            bucket[0] = y
        signs = bucket[1]
        signs[p] = signs.get(p, 0) + (-1 if y & 1 else 1)  # y & 1: odd length
    out: dict[Perm, LaurentPoly] = {}
    for rep, signs in buckets.values():
        acc: dict[int, int] = {}
        for p, c in signs.items():
            if c:
                _add_unpacked(acc, p, c)
        out[_decode(rep, n)] = LaurentPoly(acc)
    return out


def expand_E_in_G(table: KLTable, A: BiSequence, omega: Perm) -> dict[Perm, LaurentPoly]:
    """Coefficients of the G-basis expansion of E(M_omega(A)).

    Keys are the minimal (double-)coset representatives sigma~ between
    sigma0(A) and omega~.
    """
    s0, top = _check_family(A, omega)
    w0 = longest_element(A.k)
    topw0 = compose(top, w0)
    lt = length(top)
    return {rep: LaurentPoly.v(lt - length(rep))
            * kl_poly(table, topw0, compose(rep, w0))
            for rep in _cosets_below(table, A, top) if bruhat_leq(s0, rep)}


def expand_G_in_E(table: KLTable, A: BiSequence, omega: Perm) -> dict[Perm, LaurentPoly]:
    """Coefficients of the E-basis expansion of G(M_omega(A)).

    Entry at sigma is the signed sum of ordinary polynomials over all
    members of the double coset sigma, with the same monomial prefactor as
    the other direction.
    """
    s0, top = _check_family(A, omega)
    lt = length(top)
    eps_top = parity(top)
    out: dict[Perm, LaurentPoly] = {}
    for rep, acc in _cosets_below(table, A, top).items():
        if bruhat_leq(s0, rep) and not acc.is_zero():
            out[rep] = LaurentPoly.v(lt - length(rep)) * acc * eps_top
    return out


def expansion_as_pbw(A: BiSequence, coeffs: dict[Perm, LaurentPoly]) -> PBWElement:
    """Reindex an expansion from coset representatives to multisegments."""
    return PBWElement({multisegment_of(A, rep): c for rep, c in coeffs.items()})


def g_star_power_with_taint(table: KLTable, A: BiSequence, omega: Perm,
                            m: int) -> tuple[PBWElement, frozenset[Multisegment]]:
    """E-basis expansion of the m-th power of G(M_omega(A)) together with
    the set of multisegments whose coefficients the exchange rules cannot
    determine (dropped from the expansion)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not is_strongly_regular(A):
        raise UnsupportedFamily(f"{A} is not strongly regular")
    one_copy = expansion_as_pbw(A, expand_G_in_E(table, A, omega))
    return product_expansion_guarded([one_copy] * m)


@dataclass
class TransitionMatrix:
    """A dense transition matrix over the Bruhat-upward index set of a family."""

    A: BiSequence
    direction: Direction
    index: list[Perm]
    entries: dict[tuple[Perm, Perm], LaurentPoly]


def transition_index(table: KLTable, A: BiSequence) -> list[Perm]:
    """Every index above sigma0(A), by length and then lexicographically."""
    s0, top = _check_family(A, longest_element(A.k))
    return sorted((rep for rep in _cosets_below(table, A, top) if bruhat_leq(s0, rep)),
                  key=lambda w: (length(w), w))


def transition_matrix(table: KLTable, A: BiSequence, direction: str) -> TransitionMatrix:
    """The full matrix over all indices above sigma0(A)."""
    d = _canon_direction(direction)
    index = transition_index(table, A)
    expander = expand_E_in_G if d == "e2g" else expand_G_in_E
    entries = {(row, col): c for col in index for row, c in expander(table, A, col).items()}
    return TransitionMatrix(A, d, index, entries)
