"""Independent oracles used only by the test suite.

These deliberately avoid the code paths they are checking: Bruhat order is
decided by brute-force subword search, and Kazhdan-Lusztig polynomials are
solved from the R-polynomial functional equation instead of the descent
recursion with mu-corrections.  The parabolic polynomials have three
oracles beside the packed module rows of klforge.kl: the alternating sum of
ordinary polynomials over W_m, the ordinary polynomial of the cosets
translated by the longest element of W_m, and Deodhar's recursion on
permutation tuples.  The straightening engine's packed-int kernel is
checked against the Segment-object rewriting it replaced, and
verify_prop1's packed words against the Multisegment route they replaced.
The engine keys an expansion by sorted packed words; words_of packs an
oracle's Multisegment-keyed expansion and decoded spells one out again,
so the two compare on Segment objects.  The oracle rewriting takes a
Segment word and a scalar prefix of its own, rewrites one inversion at a
time, and can pick the leftmost, the rightmost or any inversion where the
kernel insertion-sorts each pending word in one pass: agreement is the
confluence check.  It also
takes the exponents of the shared-end swaps, so a test can show that no
other choice is confluent.  The transition expansions are compared with
the closed parabolic forms of coeff_parab, and E in G also with the
ordinary polynomials it is defined by.  The memo table normalizes
its keys on packed permutation keys; canonical_pair_oracle is the same
normalization on tuples.  Helpers that only tests call live here too.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from klforge.kl import KLTable, kl_poly, parabolic_kl_neg1, parabolic_kl_q
from klforge.pbw import _accumulate, pack_segment, word_coefficient
from klforge.poly import LaurentPoly
from klforge.segcomb import (
    BelowSigma0,
    BiSequence,
    Multisegment,
    Segment,
    general_position,
    is_regular,
    multisegment_of,
    precedes,
    replicate,
    seg_sort_key,
    sigma0,
)
from klforge.symgroup import (
    NotComparable,
    ParabolicShape,
    Perm,
    bruhat_leq,
    compose,
    identity,
    inverse,
    length,
    longest_element,
    parity,
    replicate_perm,
)
from klforge.transition import (
    UnsupportedFamily,
    expand_E_in_G,
    expand_G_in_E,
    g_star_power_with_taint,
    transition_index,
)

QTuple = tuple[int, ...]


# -- symmetric group helpers ---------------------------------------------


class EmptyInterval(ValueError):
    """Requested the Bruhat interval [x, y] with x not below y."""


def apply_s_right(w: Perm, i: int) -> Perm:
    """w * s_i: swap positions i, i+1 (1-based)."""
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def apply_s_left(w: Perm, i: int) -> Perm:
    """s_i * w: swap the values i, i+1 wherever they occur."""
    a = w.index(i)
    b = w.index(i + 1)
    out = list(w)
    out[a] = i + 1
    out[b] = i
    return tuple(out)


def reduced_word(w: Perm) -> list[int]:
    """Indices i_1, ..., i_l with w = s_{i_1} * ... * s_{i_l}, l = length(w)."""
    word: list[int] = []
    cur = w
    n = len(w)
    while True:
        for i in range(1, n):
            if cur[i - 1] > cur[i]:
                cur = apply_s_right(cur, i)
                word.append(i)
                break
        else:
            break
    word.reverse()
    return word


def enumerate_interval(x: Perm, y: Perm) -> set[Perm]:
    """All z with x <= z <= y.

    The lower cone of y is generated as the set of products of subwords of
    one reduced word for y, so the cost is proportional to the answer, not
    to n!.
    """
    if not bruhat_leq(x, y):
        raise EmptyInterval(f"{x} is not below {y}")
    lower: set[Perm] = {identity(len(y))}
    for i in reduced_word(y):
        lower |= {apply_s_right(z, i) for z in lower}
    return {z for z in lower if bruhat_leq(x, z)}


def is_quotient_minimal(w: Perm, shape: ParabolicShape) -> bool:
    """Whether w is the minimal representative of w * W_shape."""
    return all(
        w[i] < w[i + 1] for start, stop in shape.blocks() for i in range(start, stop - 1)
    )


def parabolic_longest(shape: ParabolicShape) -> Perm:
    """The longest element of W_shape: each block reversed in place."""
    word: list[int] = []
    for start, stop in shape.blocks():
        word.extend(range(stop, start, -1))
    return tuple(word)


def parabolic_elements(shape: ParabolicShape):
    """All members of W_shape, as permutations of {1..n}."""
    per_block = [
        list(itertools.permutations(range(start + 1, stop + 1)))
        for start, stop in shape.blocks()
    ]
    for combo in itertools.product(*per_block):
        yield tuple(itertools.chain.from_iterable(combo))


# -- the memo key on tuples ----------------------------------------------


def conjugate_by_w0(w: Perm) -> Perm:
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def _same(w: Perm) -> Perm:
    return w


def _conjugate_inverse_by_w0(w: Perm) -> Perm:
    return conjugate_by_w0(inverse(w))


# The classical symmetries P_{x,w} = P_{f(x),f(w)}: x, x^-1, w0 x w0 and
# w0 x^-1 w0.  Conjugation by w0 alone also keeps the parabolic polynomials.
SYMMETRIES = (_same, inverse, conjugate_by_w0, _conjugate_inverse_by_w0)
COSET_SYMMETRIES = (_same, conjugate_by_w0)


def canonical_pair_oracle(s: Perm, w: Perm, m: int = 1) -> tuple[Perm, Perm]:
    """The pair normalized on tuples, as (bottom, top): the least (top,
    bottom) image under SYMMETRIES for m = 1, under COSET_SYMMETRIES for
    m >= 2.  Two pairs have one memo key exactly when they have one image."""
    images = [(f(w), f(s)) for f in (SYMMETRIES if m == 1 else COSET_SYMMETRIES)]
    top, bottom = min(images)
    return bottom, top


def coeff_parab(table: KLTable, A: BiSequence, sigma: Perm, omega: Perm,
                m: int, direction: str) -> LaurentPoly:
    """Closed form of one transition entry on an m-replicated regular family.

    direction 'e2g': the coefficient of G at the coset of sigma in the
    expansion of E at the coset of omega, namely the monomial
    v**(m**2 gap) times the translated parabolic polynomial of
    (omega w0, sigma w0).  direction 'g2e': the coefficient of E in G,
    the same monomial times the sign eps(sigma omega)**m times the
    alternating-sum parabolic polynomial of (sigma, omega).
    """
    if direction not in ("e2g", "g2e"):
        raise ValueError(f"unknown direction {direction!r}")
    if not is_regular(A):
        raise UnsupportedFamily(f"{A} is not regular")
    s0 = sigma0(A)
    if not bruhat_leq(s0, sigma):
        raise BelowSigma0(f"{sigma} lies below sigma0({A}) = {s0}")
    if not bruhat_leq(sigma, omega):
        raise NotComparable(f"{sigma} is not below {omega}")
    k = A.k
    gap = m * m * (length(omega) - length(sigma))
    mono = LaurentPoly.v(gap)
    if direction == "e2g":
        w0 = longest_element(k)
        p = parabolic_kl_neg1(table, compose(omega, w0), compose(sigma, w0), m)
        return mono * p
    sign = (parity(sigma) * parity(omega)) ** m
    return mono * parabolic_kl_q(table, sigma, omega, m) * sign


def g_star_power_in_E(table: KLTable, A: BiSequence, omega: Perm,
                      m: int) -> dict[Multisegment, LaurentPoly]:
    """E-basis expansion of the m-th power of G(M_omega(A)), decoded."""
    return decoded(g_star_power_with_taint(table, A, omega, m)[0])


def bruhat_leq_subword(x: Perm, y: Perm) -> bool:
    """x <= y iff x is a product of some subword of a reduced word of y."""
    if length(x) > length(y):
        return False
    lower = {identity(len(y))}
    for i in reduced_word(y):
        lower |= {apply_s_right(z, i) for z in lower}
    return x in lower


# R-polynomials as dense q-coefficient tuples, no trailing zeros.


def _radd(p, r):
    out = list(p) + [0] * max(0, len(r) - len(p))
    for i, c in enumerate(r):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _rscale(p, c, shift):
    out = [0] * shift + [c * x for x in p]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def r_polynomial(x: Perm, y: Perm) -> tuple[int, ...]:
    """R_{x,y}(q) by the one-descent recursion."""
    if x == y:
        return (1,)
    if not bruhat_leq_subword(x, y):
        return ()
    n = len(y)
    pos = [0] * (n + 1)
    for idx, val in enumerate(y):
        pos[val] = idx
    s = next(i for i in range(1, n) if pos[i] > pos[i + 1])
    sy = apply_s_left(y, s)
    sx = apply_s_left(x, s)
    if length(sx) < length(x):
        return r_polynomial(sx, sy)
    a = _rscale(r_polynomial(x, sy), 1, 1)          # q R_{x,sy}
    a = _radd(a, _rscale(r_polynomial(x, sy), -1, 0))  # (q-1) R_{x,sy}
    return _radd(a, _rscale(r_polynomial(sx, sy), 1, 1))  # + q R_{sx,sy}


def kl_oracle(x: Perm, w: Perm) -> dict[int, int]:
    """P_{x,w}(q) solved from q**N conj(P) - P = sum R_{x,y} P_{y,w}.

    Works down the interval from w; both halves of the functional equation
    are checked against each other, so an internal inconsistency raises.
    """
    if not bruhat_leq_subword(x, w):
        return {}
    interval = sorted(enumerate_interval(x, w), key=length, reverse=True)
    table: dict[Perm, tuple[int, ...]] = {w: (1,)}
    for z in interval:
        if z == w:
            continue
        acc: tuple[int, ...] = ()
        for y in interval:
            if y == z or not bruhat_leq_subword(z, y):
                continue
            ry = r_polynomial(z, y)
            py = table[y]
            if ry and py:
                prod = [0] * (len(ry) + len(py) - 1)
                for i, c1 in enumerate(ry):
                    for j, c2 in enumerate(py):
                        prod[i + j] += c1 * c2
                acc = _radd(acc, tuple(prod))
        big = length(w) - length(z)
        coeffs = {}
        for j in range((big - 1) // 2 + 1):
            hi = acc[big - j] if big - j < len(acc) else 0
            lo = -(acc[j] if j < len(acc) else 0)
            assert hi == lo, f"oracle inconsistency at ({z}, {w})"
            if hi:
                coeffs[j] = hi
        if big % 2 == 0:
            mid = acc[big // 2] if big // 2 < len(acc) else 0
            assert mid == 0, f"oracle inconsistency at ({z}, {w})"
        dense = [0] * (max(coeffs) + 1 if coeffs else 0)
        for j, c in coeffs.items():
            dense[j] = c
        table[z] = tuple(dense)
    p = table[x]
    return {j: c for j, c in enumerate(p) if c}


def all_perms(n: int):
    return itertools.permutations(range(1, n + 1))


def kl_inversion_check(table: KLTable, sigma: Perm, omega: Perm) -> bool:
    """The alternating-sum inversion identity over the interval [sigma, omega].

    sum over sigma <= x <= omega of
        (-1)**(l(x)-l(sigma)) P_{sigma,x} P_{w0 omega, w0 x}
    equals 1 when sigma == omega and 0 otherwise.
    """
    if not bruhat_leq(sigma, omega):
        raise NotComparable(f"{sigma} is not below {omega}")
    w0 = longest_element(len(sigma))
    base = length(sigma)
    acc = LaurentPoly.zero()
    for x in enumerate_interval(sigma, omega):
        p = kl_poly(table, sigma, x) * kl_poly(table, compose(w0, omega), compose(w0, x))
        acc = acc - p if (length(x) - base) % 2 else acc + p
    return acc == (1 if sigma == omega else 0)


def transition_matrix(table: KLTable, A: BiSequence, direction: str):
    """The matrix of one direction as (index, {(row, col): entry})."""
    index = transition_index(table, A)
    expander = expand_E_in_G if direction == "e2g" else expand_G_in_E
    return index, {(row, col): c for col in index for row, c in expander(table, A, col).items()}


def is_inverse(a, b) -> bool:
    """Whether a * b is the identity matrix on the index of a; each matrix
    is a pair (index, entries) as transition_matrix returns."""
    (index, a_entries), (_, b_entries) = a, b
    for r in index:
        for c in index:
            acc = LaurentPoly.one() if r == c else LaurentPoly.zero()
            for mid in index:
                x, y = a_entries.get((r, mid)), b_entries.get((mid, c))
                if x is not None and y is not None:
                    acc = acc - x * y
            if not acc.is_zero():
                return False
    return True


# -- parabolic oracles ---------------------------------------------------


def _replication(sigma: Perm, omega: Perm, m: int):
    """t_m(sigma), t_m(omega) and the block parabolic W_m of S_{mk}."""
    if len(sigma) != len(omega):
        raise ValueError("permutations must have the same n")
    ts, tw = replicate_perm(sigma, m), replicate_perm(omega, m)
    if not bruhat_leq(ts, tw):
        raise NotComparable(f"t_{m}({sigma}) is not below t_{m}({omega})")
    return ts, tw, ParabolicShape((m,) * len(sigma))


def parabolic_signed_sum(table: KLTable, sigma: Perm, omega: Perm,
                         m: int) -> LaurentPoly:
    """The q-variant: the alternating sum over x in W_m of
    P_{t(sigma) x, t(omega)}."""
    ts, tw, shape = _replication(sigma, omega, m)
    acc = LaurentPoly.zero()
    for x in parabolic_elements(shape):
        p = kl_poly(table, compose(ts, x), tw)
        acc = acc - p if length(x) % 2 else acc + p
    return acc


def parabolic_translated(table: KLTable, sigma: Perm, omega: Perm,
                         m: int) -> LaurentPoly:
    """The -1-variant: P_{t(sigma) w_m, t(omega) w_m} for the longest
    element w_m of W_m."""
    ts, tw, shape = _replication(sigma, omega, m)
    wm = parabolic_longest(shape)
    return kl_poly(table, compose(ts, wm), compose(tw, wm))


def _qshift(p: QTuple, k: int) -> QTuple:
    return ((0,) * k + p) if p else p


# The eigenvalue tag "q" is the sign-character module (matching the
# alternating-sum polynomial) and "neg1" the trivial-character module
# (matching the translated ordinary polynomial).  cache holds the rows of
# one (n, m, variant).
def _deodhar_row(n: int, m: int, variant: str, w: Perm,
                 cache: dict[Perm, dict[Perm, QTuple]]) -> dict[Perm, QTuple]:
    row = cache.get(w)
    if row is not None:
        return row

    shape = ParabolicShape((m,) * (n // m))
    if not is_quotient_minimal(w, shape):
        raise ValueError(f"{w} is not a minimal coset representative")
    lw = length(w)
    if lw == 0:
        row = {w: (1,)}
        cache[w] = row
        return row

    pos = [0] * (n + 1)
    for idx, val in enumerate(w):
        pos[val] = idx
    s = next(i for i in range(1, n) if pos[i] > pos[i + 1])
    prev = _deodhar_row(n, m, variant, apply_s_left(w, s), cache)

    cand: dict[Perm, QTuple] = {}

    def acc(key: Perm, p: QTuple) -> None:
        cand[key] = _radd(cand.get(key, ()), p)

    for z, pz in prev.items():
        t = apply_s_left(z, s)
        if not is_quotient_minimal(t, shape):
            if variant == "neg1":  # eigenvalue q: picks up a factor q + 1
                acc(z, _radd(pz, _qshift(pz, 1)))
            # eigenvalue -1: the two contributions cancel
        elif z.index(s) < z.index(s + 1):
            acc(z, pz)
            acc(t, pz)
        else:
            qpz = _qshift(pz, 1)
            acc(z, qpz)
            acc(t, qpz)

    # strip degree-violating top terms, largest lengths first
    for z in sorted(cand, key=length, reverse=True):
        if z == w:
            continue
        d = lw - length(z)
        if d <= 0 or d & 1:
            continue
        p = cand.get(z)
        if not p or len(p) - 1 < d >> 1:
            continue
        mu = p[d >> 1]
        if not mu:
            continue
        for x, px in _deodhar_row(n, m, variant, z, cache).items():
            upd = _radd(cand.get(x, ()), _rscale(px, -mu, d >> 1))
            if upd:
                cand[x] = upd
            else:
                cand.pop(x, None)

    cache[w] = cand
    return cand


def parabolic_kl_deodhar(sigma: Perm, omega: Perm, m: int, variant: str = "q",
                         cache: dict | None = None) -> LaurentPoly:
    """The parabolic polynomial by the recursion in the induced Hecke
    module, on permutation tuples; cache may carry rows between calls of
    one (m, variant, n)."""
    if variant not in ("q", "neg1"):
        raise ValueError("variant must be 'q' or 'neg1'")
    ts, tw, _ = _replication(sigma, omega, m)
    row = _deodhar_row(len(ts), m, variant, tw, {} if cache is None else cache)
    return LaurentPoly.from_q_coeffs({d: c for d, c in enumerate(row.get(ts, ())) if c})


# -- segment helpers -----------------------------------------------------


class NotLinked(ValueError):
    """union/intersection requested for a pair that is not linked in order."""


def power(p: LaurentPoly, n: int) -> LaurentPoly:
    """p**n for n >= 0, by repeated squaring."""
    result = LaurentPoly.one()
    while n:
        if n & 1:
            result = result * p
        p, n = p * p, n >> 1
    return result


def monomial(p: LaurentPoly) -> tuple[int, int] | None:
    """(exponent, coefficient) if p is a single monomial, else None."""
    terms = list(p.items())
    return terms[0] if len(terms) == 1 else None


def mseg_total(m: Multisegment) -> int:
    """The number of segments of m, counted with multiplicity."""
    return sum(c for _, c in m.items())


def multiplicity(m: Multisegment, s: Segment) -> int:
    return dict(m.items()).get(s, 0)


def segment_less(d1: Segment, d2: Segment) -> bool:
    """The total order: earlier right end first, ties by earlier left end."""
    return seg_sort_key(d1) < seg_sort_key(d2)


def union_intersection(d1: Segment, d2: Segment) -> tuple[Segment, Segment | None]:
    """For d1 preceding d2: the union [a1, b2], and the intersection [a2, b1]
    when the pair is also in general position (else None)."""
    if not precedes(d1, d2):
        raise NotLinked(f"{d1} does not precede {d2}")
    union = Segment(d1.a, d2.b)
    if general_position(d1, d2):
        return union, Segment(d2.a, d1.b)
    return union, None


def bisequences(k: int, lo: int, hi: int):
    """All valid bi-sequences of length k with entries in [lo, hi]; the
    count grows quickly with the range."""
    values = range(lo, hi + 1)
    for a in itertools.combinations_with_replacement(values, k):
        for b_rev in itertools.combinations_with_replacement(values, k):
            b = tuple(reversed(b_rev))
            if all(a[i] <= b[k - 1 - i] + 1 for i in range(k)):
                yield BiSequence(a, b)


def double_multiplication_holds(A: BiSequence, sigma: Perm, m: int) -> bool:
    """m copies of M_sigma(A) equal the replicated-family member at the
    block replication of sigma."""
    left = m * multisegment_of(A, sigma)
    right = multisegment_of(replicate(A, m), replicate_perm(sigma, m))
    return left == right


def c_strongly_regular(sigma: Perm, omega: Perm, m: int) -> int:
    """The orbit-dimension gap m**2 (length(omega) - length(sigma)) between
    members of an m-replicated strongly regular family."""
    if not bruhat_leq(sigma, omega):
        raise NotComparable(f"{sigma} is not below {omega}")
    return m * m * (length(omega) - length(sigma))


# -- expansions keyed by sorted packed words -----------------------------

Expansion = dict[Multisegment, LaurentPoly]


def pack_word(segments) -> tuple[int, ...]:
    """The packed segments, in the given order."""
    return tuple(pack_segment(s.a, s.b) for s in segments)


def unpack_segment(x: int) -> Segment:
    return Segment((x & 0xFFFFFFFF) - 2**31, (x >> 32) - 2**31)


def prefactor_exponent(m: Multisegment) -> int:
    """The exponent sum of C(m_i, 2) of E(m)'s prefactor."""
    return sum(comb(c, 2) for _, c in m.items())


def words_of(x: Expansion) -> dict[tuple[int, ...], LaurentPoly]:
    """The expansion keyed by sorted packed words, as the engine keys it; a
    Multisegment lists its segments in word order."""
    return {pack_word(m.segments()): c for m, c in x.items()}


def decoded(words) -> Expansion:
    """The expansion keyed by the Multisegments the sorted words spell."""
    return {Multisegment(map(unpack_segment, w)): c for w, c in words.items()}


# -- straightening oracle on Segment objects -----------------------------

Word = tuple[Segment, ...]
_V = LaurentPoly.v
_EXCHANGE = _V(-1) - _V(1)


def _inversions(word: Word) -> list[int]:
    return [i for i in range(len(word) - 1)
            if seg_sort_key(word[i]) > seg_sort_key(word[i + 1])]


def has_juxtaposed_ends(segments) -> bool:
    """Whether a left end is a right end plus one, as in [a, b], [b+1, c].
    Straightening keeps the end multisets, so a word without such ends never
    meets the juxtaposed pair the exchange rules leave undecided."""
    segments = list(segments)
    return bool({s.a for s in segments} & {s.b + 1 for s in segments})


def rewrite_oracle(word: Word, prefix: LaurentPoly, pick=min,
                   e_left: int = -1, e_right: int = -1) -> dict[Word, LaurentPoly]:
    """The sorted Segment words the word reaches, with their coefficients,
    rewriting one inversion at a time: pick chooses among the positions of
    the adjacent inversions (min, the leftmost; max, the rightmost).  A pair
    with a common left end transposes with v**e_left, one with a common
    right end with v**e_right; a juxtaposed pair raises ValueError."""
    pending: dict[Word, LaurentPoly] = {word: prefix}
    finished: dict[Word, LaurentPoly] = {}
    while pending:
        w, c = pending.popitem()
        inv = _inversions(w)
        if not inv:
            _accumulate(finished, w, c)
            continue
        i = pick(inv)
        d2, d1 = w[i], w[i + 1]  # d1 < d2 out of order
        moved = w[:i] + (d1, d2) + w[i + 2:]
        if d1.a == d2.a or d1.b == d2.b:
            _accumulate(pending, moved, c * _V(e_left if d1.a == d2.a else e_right))
            continue
        if not general_position(d1, d2):
            raise ValueError(f"juxtaposed segments {d1} and {d2}")
        _accumulate(pending, moved, c)
        if precedes(d1, d2):
            cap = Segment(d2.a, d1.b)
            cup = Segment(d1.a, d2.b)
            _accumulate(pending, w[:i] + (cap, cup) + w[i + 2:], c * _EXCHANGE)
    return finished


def _collect_oracle(finished: dict[Word, LaurentPoly]) -> Expansion:
    out: Expansion = {}
    for w, c in finished.items():
        m = Multisegment(w)
        _accumulate(out, m, c * _V(-prefactor_exponent(m)))
    return out


def straighten_oracle(word: Word, prefix: LaurentPoly, pick=min) -> Expansion:
    """The normal form of prefix * word, the basis prefactors divided out."""
    return _collect_oracle(rewrite_oracle(word, prefix, pick))


def multiply_oracle(x: Expansion, y: Expansion) -> Expansion:
    """x * y with every product word straightened by the oracle."""
    out: Expansion = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            prefactor = _V(prefactor_exponent(m1) + prefactor_exponent(m2))
            word = tuple(m1.segments()) + tuple(m2.segments())
            for m, c in straighten_oracle(word, c1 * c2 * prefactor).items():
                _accumulate(out, m, c)
    return out


def product_expansion_guarded_oracle(factors) -> Expansion:
    """The guarded product's expansion on Segment words."""
    words: list[tuple[LaurentPoly, Word]] = [(LaurentPoly.one(), ())]
    for factor in factors:
        expanded: dict[Word, LaurentPoly] = {}
        for coeff, w in words:
            for m, c in factor.items():
                prefactor = _V(prefactor_exponent(m))
                _accumulate(expanded, w + tuple(m.segments()), coeff * c * prefactor)
        words = [(c, w) for w, c in expanded.items()]
    exact: Expansion = {}
    for coeff, w in words:
        for m, c in _collect_oracle(rewrite_oracle(w, coeff)).items():
            _accumulate(exact, m, c)
    return exact


def pbw_to_json(x: Expansion) -> list[dict]:
    """One record per term of x, in word order."""
    ordered = sorted(x.items(), key=lambda kv: pack_word(kv[0].segments()))
    return [{"mseg": m.to_json(), "coeff": c.to_json("v")} for m, c in ordered]


def pbw_from_json(data) -> Expansion:
    """The expansion of the records pbw_to_json writes; repeated records
    add up."""
    out: Expansion = {}
    for rec in data:
        _accumulate(out, Multisegment.from_json(rec["mseg"]),
                    LaurentPoly.from_json(rec["coeff"]))
    return out


def product_words(factors) -> dict[tuple[int, ...], LaurentPoly]:
    """Every choice of one monomial per factor, concatenated as packed words,
    with the basis prefactors multiplied in and equal words summed."""
    words: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one()}
    for factor in factors:
        pieces = [(pack_word(m.segments()), c * _V(prefactor_exponent(m)))
                  for m, c in factor.items()]
        expanded: dict[tuple[int, ...], LaurentPoly] = {}
        for w, coeff in words.items():
            for piece, c in pieces:
                _accumulate(expanded, w + piece, coeff * c)
        words = expanded
    return words


def product_coefficient_guarded(factors, target: Multisegment) -> LaurentPoly:
    """The exact coefficient of E(target) in the product of the expansions:
    pbw.word_coefficient on the product words."""
    return word_coefficient(product_words(factors), pack_word(target.segments()),
                            prefactor_exponent(target))


def prop1_oracle(A: BiSequence, sigma: Perm, omega: Perm,
                 m: int) -> tuple[str, LaurentPoly]:
    """(status, computed) of verify_prop1 on a case that meets its
    hypotheses, through Multisegments: E((m-1) M_sigma) times E(M_omega),
    read at m M_sigma."""
    m_sigma = multisegment_of(A, sigma)
    left = {(m - 1) * m_sigma: LaurentPoly.one()}
    right = {multisegment_of(A, omega): LaurentPoly.one()}
    computed = product_coefficient_guarded([left, right], m * m_sigma)
    if omega == sigma:
        claimed = LaurentPoly.v(A.k * (comb(m - 1, 2) - comb(m, 2)))
    else:
        claimed = LaurentPoly.zero()
    return ("pass" if computed == claimed else "fail"), computed
