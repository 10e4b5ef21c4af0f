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

An exchange ahead of a word is an inverted pair, adjacent or not, that is
linked in general position and, given a rank table (below), whose exchange
keeps the word in play.  A transposition removes one inversion and keeps
the multiset and the slack, so it never creates an exchange ahead.  A word
with none therefore only reorders, and on the way to its sorted word each
of its inverted pairs is transposed exactly once, in whatever order: by
confluence it finishes in one step, with v**-(its inverted pairs that share
an end).

word_coefficient reads one coefficient from packed product words through
the same rewriting, following only words the rank lemma leaves in play.
Let r_ij = #{[a, b] : a <= i, j <= b}.  No step changes the multisets of
left and of right ends or lowers an r_ij: a transposition keeps the
multiset, and the exchange of a linked pair a_y < a_x <= b_y < b_x gives
[a_x, b_y] and [a_y, b_x]; an interval inside both old segments lies inside
both new ones, and one inside exactly one lies inside [a_y, b_x].  So a
word whose end multisets differ from the target's, or with some r_ij above
the target's (i in L and j in R, the target's distinct left and right
ends), cannot finish at the target.  _cannot_reach tests each product word
so.  Past it, the test rides along as a packed slack (_Rank, one table per
call): each cell (i, j) of L x R has a field of len(target).bit_length() + 1
bits whose top bit is a guard, and G holds every guard bit.  The rank
vector of [a, b] is ROW[a] * COLS[b], with a 1 in every field of a row
i >= a and of a column j <= b, and slack(w) = G + sum(target's) - sum(w's);
as |r_ij| <= len(target), no field borrows.  A word stays in play while
slack & G == G.  A transposition keeps the slack; the exchange
(x, y) -> (cap, cup) adds rank(x) + rank(y) - rank(cap) - rank(cup) and
drops the new word once a guard bit clears.  Equal words have equal slack,
so merging is unchanged.  No table, no pruning: the product has no target.

Rewriting repeatedly takes a pending word and rewrites its leftmost
inversion, unless the word finishes in one step; words are keyed in a map
so duplicates merge eagerly.  An exchange either removes an inversion or
splits endpoints into a strictly more nested pair, so the process
terminates.  Confluence is checked by test, not assumed: the Segment-object
oracle, rewriting one inversion at a time and picking the leftmost, the
rightmost or a random one, must reach the same normal form.

The rewriting runs on packed words.  A segment [a, b] is the int
((b + 2**31) << 32) | (a + 2**31), whose int order is the segment order
(b, a); ends outside [-2**31, 2**31) raise ValueError.  A word is a tuple
of these ints, an inversion is w[i] > w[j] for i < j, and the end, linked
and cap/cup tests read the two 32-bit fields.  Multisegments are built only
from finished sorted words, by run length.  The module keeps no pool
between calls.  The Segment-object rewriting it replaced is the test oracle
in tests/helpers.py.
"""

from __future__ import annotations

from bisect import insort
from itertools import groupby
from math import comb
from operator import gt
from typing import Iterable, Mapping

from .poly import LaurentPoly
from .segcomb import Multisegment, Segment

# Unused here since the kernel reads packed ints; perfbench/spans.py patches
# these names on this module, so they stay importable from it.
from .segcomb import general_position, precedes, seg_sort_key  # noqa: F401
from .symgroup import bruhat_leq  # noqa: F401

_V = LaurentPoly.v
_EXCHANGE = _V(-1) - _V(1)  # v**-1 - v
_SWAP = _V(-1)  # the transposition of a pair that shares an end


def e_star_prefactor_exponent(m: Multisegment) -> int:
    return sum(comb(c, 2) for _, c in m.items())


def _accumulate(target: dict, key, coeff: LaurentPoly) -> None:
    """Add coeff to the entry at key, dropping the key when the sum is zero."""
    cur = target.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        target.pop(key, None)
    else:
        target[key] = cur


class PBWElement:
    """A finitely supported linear combination of basis elements E(M)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Multisegment, LaurentPoly] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def basis(cls, m: Multisegment) -> "PBWElement":
        return cls({m: LaurentPoly.one()})

    def coefficient(self, m: Multisegment) -> LaurentPoly:
        return self._terms.get(m, LaurentPoly.zero())

    def terms(self) -> dict[Multisegment, LaurentPoly]:
        return dict(self._terms)

    def support(self) -> set[Multisegment]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())
        return " + ".join(f"({c})*E({m})" for m, c in ordered)

    def __repr__(self) -> str:
        return f"PBWElement({self._terms!r})"


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


def _unpack(x: int) -> Segment:
    return Segment((x & _LO) - _BIAS, (x >> _BITS) - _BIAS)


def _pack_word(segments: Iterable[Segment]) -> Word:
    return tuple(pack_segment(s.a, s.b) for s in segments)


class _Decoder(dict):
    """Packed segments back to Segment objects, each decoded once per call."""

    def __missing__(self, x: int) -> Segment:
        s = self[x] = _unpack(x)
        return s

    def multisegment(self, w: Word) -> Multisegment:
        """The multisegment of a sorted word, read off by run length."""
        return Multisegment.from_sorted_items(
            tuple((self[x], len(list(run))) for x, run in groupby(w)))


def _shares_end(x: int, y: int) -> bool:
    """For an inversion x > y: whether the two share an end, so that their
    transposition carries v**-1.  Raises ValueError when they are
    juxtaposed, a_x = b_y + 1, which the rules leave undecided (for x > y,
    a_y = b_x + 1 cannot hold)."""
    ax, ay = x & _LO, y & _LO
    if ax == ay or x >> _BITS == y >> _BITS:
        return True
    if ax == (y >> _BITS) + 1:
        raise ValueError(f"juxtaposed segments {_unpack(y)} and {_unpack(x)}: "
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
    """Packed segment -> rank vector toward one target, for words with its end
    multisets; a word's slack is base less its vectors' sum (module docstring)."""

    def __init__(self, target: Word):
        width = len(target).bit_length() + 1
        row = 1 << width * len({x >> _BITS for x in target})
        self.rows, self.cols = {}, {}  # ROW and COLS
        rows = cols = 0
        for a in sorted({x & _LO for x in target}, reverse=True):
            rows = self.rows[a] = rows * row + 1
        for b in sorted({x >> _BITS for x in target}):
            cols = self.cols[b] = cols << width | 1
        self.guard = rows * cols << width - 1
        self.base = self.guard + sum(map(self.__getitem__, target))

    def __missing__(self, x: int) -> int:
        r = self[x] = self.rows[x & _LO] * self.cols[x >> _BITS]
        return r


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


def _finish_exponent(w: Word, s: int, rank: _Rank | None) -> int | None:
    """None when the word has an exchange ahead, else the v-exponent of its
    one-step finish: minus its count of inverted pairs that share an end.
    Raises ValueError on a juxtaposed inverted pair met before an exchange."""
    e = 0
    for j, y in enumerate(w):
        for x in w[:j]:
            if x > y:
                if _exchanged(x, y, s, rank):
                    return None
                e -= _shares_end(x, y)
    return e


def _rewrite(word: Word, prefix: LaurentPoly,
             rank: _Rank | None = None) -> dict[Word, LaurentPoly]:
    """The straightening loop: the sorted words the word reaches, with their
    coefficients.  A word with no exchange ahead finishes in one step; any
    other has its leftmost inversion rewritten."""
    pending: dict[Word, LaurentPoly] = {word: prefix}
    finished: dict[Word, LaurentPoly] = {}
    slack = {word: 0 if rank is None else rank.base - sum(map(rank.__getitem__, word))}
    while pending:
        w, c = pending.popitem()
        s = slack[w]
        e = _finish_exponent(w, s, rank)
        if e is not None:
            _accumulate(finished, tuple(sorted(w)), c * _V(e) if e else c)
            continue
        i = 0
        while w[i] <= w[i + 1]:
            i += 1
        x, y = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        moved = head + (y, x) + tail
        slack[moved] = s
        _accumulate(pending, moved, c * _SWAP if _shares_end(x, y) else c)
        ex = _exchanged(x, y, s, rank)
        if ex:  # else not linked, or out of play: it cannot reach the target
            u = head + ex[0] + tail
            slack[u] = ex[1]
            _accumulate(pending, u, c * _EXCHANGE)
    return finished


def _collect(finished: dict[Word, LaurentPoly]) -> dict[Multisegment, LaurentPoly]:
    """Sorted words to basis elements, the basis prefactor divided out."""
    out: dict[Multisegment, LaurentPoly] = {}
    decode = _Decoder()
    for w, c in finished.items():
        m = decode.multisegment(w)
        out[m] = c * _V(-e_star_prefactor_exponent(m))
    return out


def _product_words(factors: Iterable[PBWElement]) -> dict[Word, LaurentPoly]:
    """Every choice of one monomial per factor, concatenated, with the basis
    prefactors multiplied in and equal words summed."""
    words: dict[Word, LaurentPoly] = {(): LaurentPoly.one()}
    for factor in factors:
        pieces = [(_pack_word(m.segments()), c * _V(e_star_prefactor_exponent(m)))
                  for m, c in factor.terms().items()]
        expanded: dict[Word, LaurentPoly] = {}
        for w, coeff in words.items():
            for piece, c in pieces:
                _accumulate(expanded, w + piece, coeff * c)
        words = expanded
    return words


def _cannot_reach(w: Word, target: Word) -> bool:
    """Whether the rank lemma rules out reaching the target from w.  Shared
    segments cancel first (one merge pass).  Then at the last segment with left
    end i, bw and bt hold the sorted right ends of the segments with a <= i;
    some r_ij(w) > r_ij(target) exactly when an entry of bw exceeds the one of
    bt in its place (for j <= i, r_ij is fixed by the end multisets)."""
    w, ws, ts = sorted(w), [], []
    i = j = 0
    while i < len(w) and j < len(target):
        x, t = w[i], target[j]
        if x < t:
            ws.append(x)
        elif x > t:
            ts.append(t)
        i += x <= t
        j += x >= t
    ws = sorted((x & _LO, x >> _BITS) for x in ws + w[i:])
    ts = sorted((x & _LO, x >> _BITS) for x in ts + list(target[j:]))
    if [a for a, _ in ws] != [a for a, _ in ts]:
        return True
    bw, bt = [], []
    for k, ((i, p), (_, q)) in enumerate(zip(ws, ts)):
        insort(bw, p)
        insort(bt, q)
        if (k + 1 == len(ws) or ws[k + 1][0] != i) and any(map(gt, bw, bt)):
            return True
    return bw != bt


def product_expansion_guarded(
    factors: Iterable[PBWElement],
) -> tuple[PBWElement, frozenset[Multisegment]]:
    """Product of basis-element combinations, exactly, and an empty set.

    Every choice of one monomial per factor is concatenated, equal words are
    summed, and each is rewritten.  The empty second half keeps the pair that
    perfbench/spans.py unpacks.
    """
    exact: dict[Word, LaurentPoly] = {}
    for w, coeff in _product_words(factors).items():
        for fw, c in _rewrite(w, coeff).items():
            _accumulate(exact, fw, c)
    return PBWElement(_collect(exact)), frozenset()


def word_coefficient(words: Mapping[Word, LaurentPoly], target: Word,
                     exponent: int) -> LaurentPoly:
    """The exact coefficient of E(target) in the sum of the product words.
    Each word's coefficient carries its basis prefactors; target is a sorted
    word, exponent the exponent of its own prefactor.  Rewriting prunes by
    the rank lemma."""
    total, rank = LaurentPoly.zero(), None
    for w, coeff in words.items():
        if _cannot_reach(w, target):
            continue
        if rank is None:  # built once, for the first word in play
            rank = _Rank(target)
        finished = _rewrite(w, coeff, rank)
        if target in finished:
            total = total + finished[target]
    return total if total.is_zero() else total * _V(-exponent)
