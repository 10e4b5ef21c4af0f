"""The dual PBW basis and its straightening engine.

A basis element E(M) attached to a multisegment M with segments
Delta_1 < ... < Delta_k and multiplicities m_1, ..., m_k is the product

    v**(sum of C(m_i, 2)) * T_{Delta_1}**m_1 * ... * T_{Delta_k}**m_k

of one generator T per segment, taken in increasing segment order.  A word
of generators in arbitrary order is normalized by exchanging out-of-order
adjacent pairs, T_x T_y with x > y:

    T_x T_y = T_y T_x                     (general position, not linked)
    T_x T_y = T_y T_x + (v**-1 - v) T_{x cap y} T_{x cup y}
                                     (general position, y precedes x: linked)
    T_x T_y = v**-1 T_y T_x             (a common left or a common right end)

These are the Levendorskii-Soibelman q-commutations v**-(alpha, beta) of
PBW root vectors, on the dual PBW basis of segments (Leclerc, Nazarov and
Thibon, "Induced representations of affine Hecke algebras and canonical
bases of quantum groups", 2003): the roots of two segments in general
position pair to (alpha, beta) = 0, and those of two segments with a common
end to 1.  Among swaps v**eL (common left end) and v**eR (common right end)
with eL, eR in {-1, 0, 1}, only eL = eR = -1 is confluent; the tests show
each of the other eight pairs failing on some word.  A juxtaposed pair
[a, b], [b+1, c] is not decided by confluence, and the rewriting raises
ValueError on one it meets inverted.  The verifiers never meet one: no step
changes the multisets of left and of right ends (below), and their words
carry the ends of a strongly regular family, where no a_i = b_j + 1.

word_coefficient reads one coefficient from packed product words through
the same rewriting, following only words the rank lemma leaves in play.
Let r_ij = #{[a, b] : a <= i, j <= b}.  No step changes the multisets of
left and of right ends or lowers an r_ij: a transposition keeps the
multiset, and the exchange of a linked pair a_y < a_x <= b_y < b_x gives
[a_x, b_y] and [a_y, b_x]; an interval inside both old segments lies inside
both new ones, and one inside exactly one lies inside [a_y, b_x].  So a
word whose end multisets differ from the target's, or with some r_ij above
the target's (i in L and j in R, the target's distinct left and right
ends), cannot finish at the target.  The test is a packed slack (_Rank,
one table per target, which a caller may keep): a field of
len(target).bit_length() + 1 bits, whose top bit is a guard, per cell
(i, j) of L x R and, above the cells, a count per end in L and in R; G
holds every guard bit.  The vector of [a, b] has a 1 in each cell with
i >= a and j <= b (ROW[a] * COLS[b]) and in the counts of a and of b, and
slack(w) = G + sum(target's) - sum(w's); no field borrows, as no difference
exceeds len(target).  A word is in play when it has the target's length, no
end outside L and R, and slack & G == G, so no count above the target's and
equal end multisets.  Steps keep the counts; the exchange (x, y) ->
(cap, cup) adds rank(x) + rank(y) - rank(cap) - rank(cup) and drops the new
word once a guard bit clears.  Equal words have equal slack, so merging is
unchanged.  No table, no pruning: the product has no target.

Rewriting takes one map of pending words, pops one word at a time and
insertion-sorts it in one pass.  The pass transposes each adjacent
inversion (p, z) it meets, and one that shares an end adds -1 to a running
exponent e.  When p, z are linked in general position and, given a rank
table, their exchange stays in play, the partial word with (cap, cup) in
place of (p, z) is set pending with c * v**e * (v**-1 - v), c the popped
word's coefficient; the sorted word finishes with c * v**e.  Words are
keyed in a map, so duplicates merge eagerly, and a word with no exchange to
meet is popped once and sets none pending.  An exchange either removes an
inversion or splits endpoints into a strictly more nested pair, so the
process terminates.  Confluence is checked by test, not assumed: the
Segment-object oracle, rewriting one inversion at a time and picking the
leftmost, the rightmost or a random one, must reach the same normal form,
so the order in which the pass meets the pairs does not change the result.
It also lets a product straighten factor by factor: product_expansion_guarded
follows each sorted word of the normal form so far by each monomial of the
next factor and rewrites all of these words in one map, so equal partial
products merge.  word_coefficient puts every word in play into one map.

The rewriting runs on packed words.  A segment [a, b] is the int
((b + 2**31) << 32) | (a + 2**31), whose int order is the segment order
(b, a); ends outside [-2**31, 2**31) raise ValueError.  A word is a tuple
of these ints, an inversion is w[i] > w[j] for i < j, and the end, linked
and cap/cup tests read the two 32-bit fields.  A sorted word names its
multisegment, so an expansion in the basis is a map {sorted word:
coefficient of E}, and the prefactor of E is read off the word by run
length; member_word packs a family member straight from the family's ends.
No Segment or Multisegment is built.  The module keeps no pool between
calls.  The Segment-object rewriting it replaced is the test oracle in
tests/helpers.py.
"""

from __future__ import annotations

from itertools import groupby
from math import comb
from typing import Iterable, Mapping

from .poly import LaurentPoly
from .segcomb import BiSequence
from .symgroup import Perm

# Unused here since the kernel reads packed ints; perfbench/spans.py patches
# these names on this module, so they stay importable from it.
from .segcomb import general_position, precedes, seg_sort_key  # noqa: F401
from .symgroup import bruhat_leq  # noqa: F401

_V = LaurentPoly.v
_EXCHANGE = _V(-1) - _V(1)  # v**-1 - v


def _accumulate(target: dict, key, coeff: LaurentPoly) -> None:
    """Add coeff to the entry at key, dropping the key when the sum is zero."""
    cur = target.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        target.pop(key, None)
    else:
        target[key] = cur


_BITS = 32
_LO = (1 << _BITS) - 1  # the left-end field
_HI = ~_LO  # the right-end field
_BIAS = 1 << (_BITS - 1)

Word = tuple[int, ...]  # packed segments


def pack_segment(a: int, b: int) -> int:
    """The packed segment [a, b], a <= b."""
    if a < -_BIAS or b >= _BIAS:
        raise ValueError(f"segment [{a},{b}] has an end outside [-2**31, 2**31)")
    return ((b + _BIAS) << _BITS) | (a + _BIAS)


def member_word(A: BiSequence, p: Perm) -> Word:
    """The sorted word of the family member [a_1, b_p(1)] + ... + [a_k, b_p(k)],
    empty segments [b+1, b] dropped as segcomb.multisegment_of drops them."""
    ends = zip(A.a, (A.b[j - 1] for j in p))
    return tuple(sorted(pack_segment(a, b) for a, b in ends if a <= b))


def e_star_prefactor_exponent(w: Word) -> int:
    """The exponent sum of C(m_i, 2) of E's prefactor, read off the sorted
    word w by run length."""
    return sum(comb(len(list(run)), 2) for _, run in groupby(w))


def word_str(w: Word) -> str:
    """The segments of a word as [a,b]+[c,d]+..."""
    return "+".join(f"[{(x & _LO) - _BIAS},{(x >> _BITS) - _BIAS}]" for x in w)


def _shares_end(x: int, y: int) -> bool:
    """For an inversion x > y: whether the two share an end, so that their
    transposition carries v**-1.  Raises ValueError when they are
    juxtaposed, a_x = b_y + 1, which the rules leave undecided (for x > y,
    a_y = b_x + 1 cannot hold)."""
    ax, ay = x & _LO, y & _LO
    if ax == ay or x >> _BITS == y >> _BITS:
        return True
    if ax == (y >> _BITS) + 1:
        raise ValueError(f"juxtaposed segments {word_str((y,))} and {word_str((x,))}: "
                         "the exchange rules do not decide their order")
    return False


def _cap_cup(x: int, y: int) -> tuple[int, int] | None:
    """For an inversion x > y: the pair (y cap x, y cup x) when y precedes x
    in general position, that is a_y < a_x <= b_y < b_x, else None."""
    ax, ay = x & _LO, y & _LO
    if ay < ax <= (y >> _BITS) < (x >> _BITS):
        return (y & _HI) | ax, (x & _HI) | ay
    return None


class _Rank(dict):
    """Packed segment -> rank vector toward one target; a word's slack is base
    less its vectors' sum (module docstring)."""

    def __init__(self, target: Word):
        width = len(target).bit_length() + 1
        lefts = sorted({x & _LO for x in target}, reverse=True)
        rights = sorted({x >> _BITS for x in target})
        row = 1 << width * len(rights)
        self.rows, self.cols = {}, {}  # ROW and COLS
        rows = cols = 0
        for a in lefts:
            rows = self.rows[a] = rows * row + 1
        for b in rights:
            cols = self.cols[b] = cols << width | 1
        count = row ** len(lefts)  # the count fields sit above the cells
        self.lefts = {a: count << width * n for n, a in enumerate(lefts, len(rights))}
        self.rights = {b: count << width * n for n, b in enumerate(rights)}
        ones = rows * cols + sum(self.lefts.values()) + sum(self.rights.values())
        self.size, self.guard = len(target), ones << width - 1
        self.base = self.guard + sum(map(self.__getitem__, target))

    def __missing__(self, x: int) -> int:
        a, b = x & _LO, x >> _BITS
        r = self[x] = self.rows[a] * self.cols[b] + self.lefts[a] + self.rights[b]
        return r

    def slack(self, w: Word) -> int | None:
        """The word's slack, or None when the rank lemma rules out the target."""
        if len(w) != self.size:
            return None
        try:
            s = self.base - sum(map(self.__getitem__, w))
        except KeyError:  # an end the target lacks
            return None
        return s if s & self.guard == self.guard else None


def _exchanged(x: int, y: int, s: int, rank: _Rank | None):
    """For an inversion x > y of a word with slack s: the pair it exchanges
    to and the slack after, or None when the pair is not linked in general
    position or, given a rank table, its exchange leaves play."""
    pair = _cap_cup(x, y)
    if pair is None:
        return None
    if rank is not None:
        s += rank[x] + rank[y] - rank[pair[0]] - rank[pair[1]]
        if s & rank.guard != rank.guard:
            return None
    return pair, s


def _rewrite(pending: dict[Word, LaurentPoly], rank: _Rank | None = None,
             slack: dict[Word, int] | None = None) -> dict[Word, LaurentPoly]:
    """The straightening loop: the sorted words the pending words reach, with
    their coefficients.  It consumes pending; slack maps each pending word to
    its slack under the rank table (0 without one).  Each pending word is
    sorted in one pass (_insertion_pass)."""
    finished: dict[Word, LaurentPoly] = {}
    if slack is None:
        slack = dict.fromkeys(pending, 0)
    while pending:
        w, c = pending.popitem()
        u, e = _insertion_pass(w, c, slack[w], rank, pending, slack)
        _accumulate(finished, u, c * _V(e) if e else c)
    return finished


def _insertion_pass(w: Word, c: LaurentPoly, s: int, rank: _Rank | None,
                    pending: dict[Word, LaurentPoly], slack: dict[Word, int]):
    """Insertion-sorts a pending word (coefficient c, slack s): its sorted
    word and the v-exponent e of its transpositions.  At each exchange met,
    the partial word with (cap, cup) in place of the pair is set pending
    with c v**e (v**-1 - v), e as it stands then."""
    u, e = list(w), 0
    for j in range(1, len(u)):
        z, i = u[j], j
        while i and u[i - 1] > z:  # z belongs at u[i], u[i + 1:] is shifted
            p = u[i - 1]
            ex = _exchanged(p, z, s, rank)
            if ex:  # else not linked, or out of play: it cannot reach the target
                n = tuple(u[:i - 1]) + ex[0] + tuple(u[i + 1:])
                slack[n] = ex[1]
                _accumulate(pending, n, c * _V(e) * _EXCHANGE if e else c * _EXCHANGE)
            e -= _shares_end(p, z)
            u[i] = p
            i -= 1
        u[i] = z
    return tuple(u), e


def product_expansion_guarded(
    factors: Iterable[Mapping[Word, LaurentPoly]],
) -> tuple[dict[Word, LaurentPoly], frozenset]:
    """Product of basis-element combinations, exactly, and an empty set.

    Each factor and the product map sorted words to coefficients of E.
    Factor by factor, each sorted word of the normal form so far is followed
    by each word of the factor, its basis prefactor multiplied in, and all
    of these words are rewritten together, so equal partial products merge.
    The empty second half keeps the pair that perfbench/spans.py unpacks.
    """
    normal: dict[Word, LaurentPoly] = {(): LaurentPoly.one()}
    for factor in factors:
        pending: dict[Word, LaurentPoly] = {}
        for u, c in factor.items():
            c *= _V(e_star_prefactor_exponent(u))
            for w, coeff in normal.items():
                _accumulate(pending, w + u, coeff * c)
        normal = _rewrite(pending)
    exact = {w: c * _V(-e_star_prefactor_exponent(w)) for w, c in normal.items()}
    return exact, frozenset()


def word_coefficient(words: Mapping[Word, LaurentPoly], target: Word,
                     exponent: int, rank: _Rank | None = None) -> LaurentPoly:
    """The exact coefficient of E(target) in the sum of the product words.
    Each word's coefficient carries its basis prefactors; target is a sorted
    word, exponent the exponent of its own prefactor, and rank its table,
    built here when the caller keeps none.  The words in play are rewritten
    together, pruned by the rank lemma; none in play, none is rewritten."""
    if rank is None:
        rank = _Rank(target)
    pending: dict[Word, LaurentPoly] = {}
    slack: dict[Word, int] = {}
    for w, coeff in words.items():
        s = rank.slack(w)
        if s is not None:
            pending[w], slack[w] = coeff, s
    c = _rewrite(pending, rank, slack).get(target) if pending else None
    return LaurentPoly.zero() if c is None else c * _V(-exponent)
