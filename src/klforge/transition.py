"""Transition coefficients between the two dual bases over a family.

Over a bi-sequence family the two bases indexed by the family's
multisegments are unitriangular with respect to Bruhat order on the
(double-coset) permutation indices, and the two directions of expansion
are mutually inverse matrices.  The supported families are the strongly
regular bi-sequences and their m-fold replications; anything else raises
UnsupportedFamily, because the dimension parameter entering the
coefficients is not available in general.

The indices are the double cosets W_b w W_a in S_n, n = A.k, where W_b and
W_a are the parabolics fixing the runs of equal right and left ends: two
words give the same member of the family exactly when they lie in one such
coset.  Each coset is represented by its minimal element.  For a strongly
regular family both parabolics are trivial and every coset is a singleton;
for an m-replication they are the block parabolic W_m.  The top index
omega~ is the minimal representative of omega's coset.  Every entry comes
from rows of Deodhar's module induced from W_m (kl._row; for m = 1 the
ordinary rows), which hold minimal representatives x of right cosets
x W_m, grouped by double coset and keyed by the minimal element of each
double coset, found from any member: the q row can miss that element.

* the index below omega~: the double cosets met by the -1 row of omega~,
  which holds every minimal x <= omega~, since p^{-1}_{x,omega~} =
  P_{x w_m, omega~ w_m} with w_m the longest element of W_m.  The matrix
  index set is read from the row of the minimal representative of w0's
  coset, which lies above every other.
* basis E in terms of basis G, entry (sigma, omega):
      v**c(sigma,omega) * P_{omega~ w0, sigma~ w0}(q)
  which is p^{-1}_{x,z}, the entry at x of the -1 row of z, for x and z
  the minimal representatives of the right cosets of omega~ w0 and
  sigma~ w0 (y w0 is the longest member of its coset when y is minimal).
* basis G in terms of basis E, entry (sigma, omega):
      v**c(sigma,omega) * eps(omega~) * sum over y in the coset sigma of
          eps(y) * P_{y, omega~}(q)
  where the sum over each right coset x W_m is eps(x) p^q_{x,omega~}, an
  entry of the q row of omega~.

No S_n is enumerated, and a replicated family reads no ordinary row.

The dimension gap between indices sigma <= omega is taken to be the
length difference of the representatives.  On pairs coming from the
normalizer of W_m (representatives t_m(x)) this equals m**2 (length
difference downstairs), the value the closed-form parabolic coefficients
use; elsewhere it is the natural extension, and the inversion identity is
insensitive to the choice since any per-index normalization conjugates
out of the matrix product.

Both closed parabolic forms (the translated ordinary polynomial for E in
G, the alternating-sum polynomial for G in E, each with the monomial
v**(m**2 length gap) and sign eps(sigma omega)**m) must agree entrywise
with these on replicated families; tests/helpers.py assembles them for
comparison.
"""

from __future__ import annotations

from .kl import (
    KLTable,
    _add_unpacked,
    _decode,
    _encode,
    _row,
    _shift,
    _unpack,
    kl_poly,  # noqa: F401  (perfbench/spans.py patches it)
    parabolic_kl_q,  # noqa: F401  (perfbench/spans.py patches it)
)
from .poly import LaurentPoly
from .segcomb import (
    BelowSigma0,
    BiSequence,
    is_regular,  # noqa: F401  (perfbench/spans.py patches it)
    is_strongly_regular,
    multisegment_of,  # noqa: F401  (perfbench/spans.py patches it)
    p1_shape,
    p2_shape,
    replicate,  # noqa: F401  (perfbench/spans.py patches it)
    sigma0,
)
from .pbw import Word, member_word, product_expansion_guarded
from .symgroup import (
    Perm,
    bruhat_leq,
    compose,
    length,
    longest_element,
    min_coset_rep,
    min_double_coset_rep,
    parity,
)


class UnsupportedFamily(ValueError):
    """The bi-sequence is neither strongly regular nor a replication of a
    strongly regular one; its dimension parameters are not available."""


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


def _check_family(A: BiSequence, omega: Perm) -> tuple[Perm, Perm, int]:
    """Validate the family and the top permutation; returns (sigma0, omega~, m)."""
    m = family_replication(A)[1]
    s0 = sigma0(A)
    if len(omega) != A.k:
        raise ValueError("permutation size does not match the family")
    top = min_double_coset_rep(omega, p1_shape(A), p2_shape(A))
    if not bruhat_leq(s0, top):
        raise BelowSigma0(f"{omega} lies below sigma0({A}) = {s0}")
    return s0, top, m


def _cosets_below(table: KLTable, A: BiSequence, s0: Perm, top: Perm, m: int,
                  neg1: bool) -> dict[Perm, LaurentPoly]:
    """The row of top in the module of W_m (the q row, or the -1 row when
    neg1; for m = 1 the ordinary row), summed with signs (-1)**length(x)
    over each double coset of the family whose minimal element lies above
    s0 = sigma0(A).

    x pairs a_i with b_{x(i)}, so two words lie in the same double coset
    exactly when each run of equal left ends gets the same number of each
    right end.  That count matrix is read off the row's keys as a sum of
    powers of n + 1, one unit per value.  Keys of the result are the minimal
    elements of the double cosets, found from any member of each.
    """
    n = A.k
    ends = {b: r for r, b in enumerate(sorted(set(A.b)))}
    run_of = [j for j, (start, stop) in enumerate(p2_shape(A).blocks())
              for _ in range(start, stop)]
    # per value v: the shift of its position field, and its unit by position
    units = [(_shift(v, n), [(n + 1) ** (j * len(ends) + ends[b]) for j in run_of])
             for v, b in enumerate(A.b, 1)]
    buckets: dict[int, tuple] = {}  # count matrix -> (a member's key, {packed: sign sum})
    for y, p in _row(table, _encode(top), n, m, neg1 and m > 1).items():
        coset = 0
        for shift, unit in units:
            coset += unit[y >> shift & 15]
        signs = buckets.setdefault(coset, (y, {}))[1]
        signs[p] = signs.get(p, 0) + (-1 if y & 1 else 1)  # y & 1: odd length
    left, right = p1_shape(A), p2_shape(A)
    out: dict[Perm, LaurentPoly] = {}
    for y, signs in buckets.values():
        rep = min_double_coset_rep(_decode(y, n), left, right)
        if bruhat_leq(s0, rep):
            acc: dict[int, int] = {}
            for p, c in signs.items():
                if c:
                    _add_unpacked(acc, p, c)
            out[rep] = LaurentPoly(acc)
    return out


def expand_E_in_G(table: KLTable, A: BiSequence, omega: Perm) -> dict[Perm, LaurentPoly]:
    """Coefficients of the G-basis expansion of E(M_omega(A)).

    Keys are the minimal (double-)coset representatives sigma~ between
    sigma0(A) and omega~; the entry at sigma~ is read from the -1 row of
    the minimal representative of sigma~ w0.
    """
    s0, top, m = _check_family(A, omega)
    n, lt = A.k, length(top)
    w0, right = longest_element(n), p2_shape(A)
    x = _encode(min_coset_rep(compose(top, w0), right))
    out: dict[Perm, LaurentPoly] = {}
    for rep in _cosets_below(table, A, s0, top, m, True):
        z = _encode(min_coset_rep(compose(rep, w0), right))
        out[rep] = LaurentPoly.v(lt - length(rep)) * _unpack(_row(table, z, n, m, m > 1)[x])
    return out


def expand_G_in_E(table: KLTable, A: BiSequence, omega: Perm) -> dict[Perm, LaurentPoly]:
    """Coefficients of the E-basis expansion of G(M_omega(A)).

    Entry at sigma is the signed sum of ordinary polynomials over all
    members of the double coset sigma, read from the q row of omega~, with
    the same monomial prefactor as the other direction.
    """
    s0, top, m = _check_family(A, omega)
    lt = length(top)
    eps_top = parity(top)
    return {rep: LaurentPoly.v(lt - length(rep)) * acc * eps_top
            for rep, acc in _cosets_below(table, A, s0, top, m, False).items()
            if not acc.is_zero()}


def g_star_power_with_taint(table: KLTable, A: BiSequence, omega: Perm,
                            m: int) -> tuple[dict[Word, LaurentPoly], frozenset]:
    """E-basis expansion of the m-th power of G(M_omega(A)), keyed by sorted
    words, exactly, and an empty set: the pair of product_expansion_guarded,
    which perfbench/spans.py unpacks."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not is_strongly_regular(A):
        raise UnsupportedFamily(f"{A} is not strongly regular")
    one_copy = {member_word(A, rep): c for rep, c in expand_G_in_E(table, A, omega).items()}
    return product_expansion_guarded([one_copy] * m)


def transition_index(table: KLTable, A: BiSequence) -> list[Perm]:
    """Every index above sigma0(A), by length and then lexicographically."""
    s0, top, m = _check_family(A, longest_element(A.k))
    return sorted(_cosets_below(table, A, s0, top, m, True), key=lambda w: (length(w), w))
