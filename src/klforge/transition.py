"""Transition coefficients between the two dual bases over a family.

Over a bi-sequence family the two bases indexed by the family's
multisegments are unitriangular with respect to Bruhat order on the
(double-coset) permutation indices, and the two directions of expansion
are mutually inverse matrices.  A family is given by a strongly regular
base A of k segments and m >= 1, as the m-fold replication of A.  Any
other base, an already replicated one included, raises UnsupportedFamily,
because the dimension parameter entering the coefficients is not
available in general.

The indices are the double cosets W_m w W_m in S_n, n = k*m, of the
block parabolic W_m (singletons for m = 1): the replicated ends come in
runs of m equal values, and two words give the same member of the
family exactly when they lie in one such coset.  A double coset is given
by its k x k count matrix of (position block, value block) pairs, the sum
of one unit per value from the cell table of _cells, and is represented
by its minimal element, which _coset_min builds from the matrix; omega~
is the minimal element of omega's coset.  The table is built on the base
ends: a cell (i, j) with a_i > b_j + 1 gets a sentinel above every count
matrix, so "above sigma0" is one test per cell, on omega and on every key
of a row (_cosets_below).  Every entry comes from rows of Deodhar's
module induced from W_m (kl._row; for m = 1 the ordinary rows), which
hold minimal representatives x of right cosets x W_m, grouped by the
count matrix of their double coset: the q row can miss the minimal
element itself.

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

No S_n is enumerated, and a family with m >= 2 reads no ordinary row.

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
    replicate,  # noqa: F401  (perfbench/spans.py patches it)
    sigma0,  # noqa: F401  (perfbench/spans.py patches it)
)
from .pbw import Word, member_word, product_expansion_guarded
from .symgroup import (
    Perm,
    bruhat_leq,  # noqa: F401  (perfbench/spans.py patches it)
    compose,
    length,
    longest_element,
    min_coset_rep,
    parity,
)


class UnsupportedFamily(ValueError):
    """The base family is not strongly regular."""


def _cells(A: BiSequence, omega: Perm, m: int) -> tuple[list[list[int]], int, Perm]:
    """The cell table of the m-fold replication of the base A, its
    sentinel drop and omega~.  Cell (i, j) holds the unit (n + 1)**(i*k + j),
    or drop where a_i > b_j + 1, so a word lies above sigma0
    (dominates_sigma0 on the replicated ends) exactly when its values' units
    sum below drop.  Raises UnsupportedFamily, ValueError (m < 1, omega not
    a permutation of 1..k*m) or BelowSigma0 (omega's sum reaches drop)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not is_strongly_regular(A):
        raise UnsupportedFamily(f"{A} is not strongly regular")
    k, n = A.k, A.k * m
    if sorted(omega) != [*range(1, n + 1)]:
        raise ValueError(f"{omega} does not permute 1..{n}")
    drop = (n + 1) ** (k * k)
    cells = [[(n + 1) ** (i * k + j) if a <= b + 1 else drop for j, b in enumerate(A.b)]
             for i, a in enumerate(A.a)]
    counts = sum(cells[p // m][(v - 1) // m] for p, v in enumerate(omega))
    if counts >= drop:
        raise BelowSigma0(f"{omega} lies below sigma0 of {A} at m = {m}")
    return cells, drop, _coset_min(counts, n, m)


def _coset_min(counts: int, n: int, m: int) -> Perm:
    """The minimal element of the double coset with the count matrix counts:
    position block by position block, from each value block as many of its
    smallest unused values as the matrix says, in ascending order."""
    k = n // m
    unused = list(range(1, n + 1, m))  # per value block, its smallest unused value
    word: list[int] = []
    for cell in range(k * k):
        counts, c = divmod(counts, n + 1)
        word += range(unused[cell % k], unused[cell % k] + c)
        unused[cell % k] += c
    return tuple(word)


def _cosets_below(table: KLTable, cells: list[list[int]], drop: int, top: Perm,
                  m: int, neg1: bool) -> dict[Perm, LaurentPoly]:
    """The row of top in the module of W_m (the q row, or the -1 row when
    neg1; for m = 1 the ordinary row), summed with signs (-1)**length(x)
    over each double coset above sigma0, keyed by its minimal element.

    Two words lie in the same double coset exactly when, for each block i
    of m positions and each block j of m values, they place the same number
    of values of block j in block i.  That count matrix is read off the
    row's keys as the sum of their values' units from the cell table of
    _cells, and a key whose sum reaches drop lies below sigma0 and is
    dropped.
    """
    n = len(top)
    # per value v: the shift of its position field, and its unit by position
    units = [(_shift(v, n), [cells[p // m][(v - 1) // m] for p in range(n)])
             for v in range(1, n + 1)]
    buckets: dict[int, dict[int, int]] = {}  # count matrix -> {packed: sign sum}
    for y, p in _row(table, _encode(top), n, m, neg1).items():
        coset = 0
        for shift, unit in units:
            coset += unit[y >> shift & 15]
        if coset < drop:
            signs = buckets.setdefault(coset, {})
            signs[p] = signs.get(p, 0) + (-1 if y & 1 else 1)  # y & 1: odd length
    out: dict[Perm, LaurentPoly] = {}
    for coset, signs in buckets.items():
        acc: dict[int, int] = {}
        for p, c in signs.items():
            if c:
                _add_unpacked(acc, p, c)
        out[_coset_min(coset, n, m)] = LaurentPoly(acc)
    return out


def expand_E_in_G(table: KLTable, A: BiSequence, omega: Perm,
                  m: int) -> dict[Perm, LaurentPoly]:
    """Coefficients of the G-basis expansion of E(M_omega) over the m-fold
    replication of the base A.

    Keys are the minimal (double-)coset representatives sigma~ between
    sigma0 and omega~; the entry at sigma~ is read from the -1 row of
    the minimal representative of sigma~ w0.
    """
    cells, drop, top = _cells(A, omega, m)
    n, lt = len(top), length(top)
    w0 = longest_element(n)
    x = _encode(min_coset_rep(compose(top, w0), m))
    out: dict[Perm, LaurentPoly] = {}
    for rep in _cosets_below(table, cells, drop, top, m, True):
        z = _encode(min_coset_rep(compose(rep, w0), m))
        out[rep] = LaurentPoly.v(lt - length(rep)) * _unpack(_row(table, z, n, m, True)[x])
    return out


def expand_G_in_E(table: KLTable, A: BiSequence, omega: Perm,
                  m: int) -> dict[Perm, LaurentPoly]:
    """Coefficients of the E-basis expansion of G(M_omega) over the m-fold
    replication of the base A.

    Entry at sigma is the signed sum of ordinary polynomials over all
    members of the double coset sigma, read from the q row of omega~, with
    the same monomial prefactor as the other direction.
    """
    cells, drop, top = _cells(A, omega, m)
    lt, eps_top = length(top), parity(top)
    return {rep: LaurentPoly.v(lt - length(rep)) * acc * eps_top
            for rep, acc in _cosets_below(table, cells, drop, top, m, False).items()
            if not acc.is_zero()}


def g_star_power_with_taint(table: KLTable, A: BiSequence, omega: Perm,
                            m: int) -> tuple[dict[Word, LaurentPoly], frozenset]:
    """E-basis expansion of the m-th power of G(M_omega(A)), keyed by sorted
    words, exactly, and an empty set: the pair of product_expansion_guarded,
    which perfbench/spans.py unpacks."""
    if m < 1:
        raise ValueError("m must be at least 1")
    one_copy = {member_word(A, rep): c for rep, c in expand_G_in_E(table, A, omega, 1).items()}
    return product_expansion_guarded([one_copy] * m)


def transition_index(table: KLTable, A: BiSequence, m: int) -> list[Perm]:
    """Every index above sigma0 of the m-fold replication of the base A, by
    length and then lexicographically."""
    cells, drop, top = _cells(A, longest_element(A.k * m), m)
    return sorted(_cosets_below(table, cells, drop, top, m, True),
                  key=lambda w: (length(w), w))
