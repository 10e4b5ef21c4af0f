"""The dual PBW basis and its straightening engine.

A basis element E(M) attached to a multisegment M with segments
Delta_1 < ... < Delta_k and multiplicities m_1, ..., m_k is the product

    v**(sum of C(m_i, 2)) * T_{Delta_1}**m_1 * ... * T_{Delta_k}**m_k

of one generator T per segment, taken in increasing segment order.  A word
of generators in arbitrary order is normalized by exchanging out-of-order
adjacent pairs:

    T_{D2} T_{D1} = T_{D1} T_{D2}                          (not linked)
    T_{D2} T_{D1} = T_{D1} T_{D2}
                    + (v**-1 - v) T_{D1 cap D2} T_{D1 cup D2}   (linked)

for D1 < D2 in general position.  These are the only exchange rules the
engine knows.  Every product goes through the guarded routes below
(product_expansion_guarded and word_coefficient): a word stuck on
inversions the rules do not cover never yields a guessed coefficient,
only tainted multisegments.

Pairs sharing a left or a right end are out of scope for the rules, and
they do arise in products of distinct members of a strongly regular
family.  Such a pair only reorders: two segments with a common end are
never linked, so their exchange is a transposition times an undetermined
power of v and creates no multisegment.  The guarded product drops a word
whose remaining inversions all share an end and marks tainted every
multisegment any continuation of it could still reach (_reachable, a
depth-first search over reorderings and exchanges).  The search carries
with each word its count of exchanges ahead: the inverted pairs, adjacent
or not, that are linked in general position and, given a rank table
(below), whose exchange keeps the word in play.  A transposition removes
one inversion and keeps the multiset and the slack, so a word with none
ahead only reorders, to its sorted word, and is not expanded.  A
transposed word's count is its parent's, less 1 when the swapped pair was
exchangeable; only an exchanged word is counted again, in O(len**2).  A
search meets at most _REACH_STATE_CAP words with an exchange ahead.
Coefficients at untainted multisegments are exact; tainted ones are
withheld.  Product words and the stuck words of each are summed before
the search, so a word whose coefficient cancels taints nothing.

word_coefficient reads one coefficient from packed product words through
the same rewriting and search, following only words the rank lemma leaves
in play.  Let r_ij = #{[a, b] : a <= i, j <= b}.  No step changes the
multisets of left and of right ends or lowers an r_ij: a transposition
keeps the multiset, and the exchange of a linked pair a_y < a_x <= b_y < b_x
gives [a_x, b_y] and [a_y, b_x]; an interval inside both old segments lies
inside both new ones, and one inside exactly one lies inside [a_y, b_x].
So a word whose end multisets differ from the target's, or with some r_ij
above the target's (i in L and j in R, the target's distinct left and right
ends), can neither finish at the target nor taint it.  _cannot_reach tests
each product word so.  Past it, the test rides along as a packed slack
(_Rank, one table per call): each cell (i, j) of L x R has a field of
len(target).bit_length() + 1 bits whose top bit is a guard, and G holds
every guard bit.  The rank vector of [a, b] is ROW[a] * COLS[b], with a 1
in every field of a row i >= a and of a column j <= b, and slack(w) =
G + sum(target's) - sum(w's); as |r_ij| <= len(target), no field borrows.
A word stays in play while slack & G == G.  A transposition keeps the
slack; the exchange (x, y) -> (cap, cup) adds rank(x) + rank(y) -
rank(cap) - rank(cup) and drops the new word once a guard bit clears.
Equal words have equal slack, so merging is unchanged.  No table, no
pruning: the guarded product has no target.

Rewriting repeatedly picks the leftmost exchangeable pair of some pending
word; words are keyed in a map so duplicates merge eagerly.  An exchange
either removes an inversion or splits endpoints into a strictly more
nested pair, so the process terminates.  Confluence is checked by test,
not assumed: the Segment-object oracle picking the rightmost pair must
reach the same normal form.

The rewriting runs on packed words.  A segment [a, b] is the int
((b + 2**31) << 32) | (a + 2**31), whose int order is the segment order
(b, a); ends outside [-2**31, 2**31) raise ValueError.  A word is a tuple
of these ints, an inversion is w[i] > w[i + 1], and the general-position,
linked and cap/cup tests read the two 32-bit fields.  Multisegments are
built only from finished or reachable sorted words, by run length.  The
module keeps no pool between calls.  The Segment-object rewriting and
search it replaced are the test oracle in tests/helpers.py.
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


class NonGeneralPositionExchange(ValueError):
    """The words a stuck word could still reach, where the exchange rules
    do not cover its inversions, outgrew the search's state cap."""


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


def _general_position(x: int, y: int) -> bool:
    """No common end, and neither segment starts just after the other ends."""
    ax, bx, ay, by = x & _LO, x >> _BITS, y & _LO, y >> _BITS
    return ax != ay and bx != by and ax != by + 1 and ay != bx + 1


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


def _rewrite(word: Word, prefix: LaurentPoly, rank: _Rank | None = None):
    """The straightening loop, exchanging the leftmost admissible pair.

    Returns (finished, stuck): coefficient maps keyed by packed word, where
    stuck words are those whose every inversion is outside general position.
    """
    pending: dict[Word, LaurentPoly] = {word: prefix}
    finished: dict[Word, LaurentPoly] = {}
    stuck: dict[Word, LaurentPoly] = {}
    slack = {word: 0 if rank is None else rank.base - sum(map(rank.__getitem__, word))}
    while pending:
        w, c = pending.popitem()
        inverted = False
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                inverted = True
                if _general_position(x, y):
                    break
        else:
            _accumulate(stuck if inverted else finished, w, c)
            continue
        head, tail = w[:i], w[i + 2:]
        moved = head + (y, x) + tail
        _accumulate(pending, moved, c)
        s = slack[moved] = slack[w]
        ex = _exchanged(x, y, s, rank)
        if ex:  # else not linked, or out of play: it cannot reach the target
            u = head + ex[0] + tail
            slack[u] = ex[1]
            _accumulate(pending, u, c * _EXCHANGE)
    return finished, stuck


def _collect(finished: dict[Word, LaurentPoly],
             decode: _Decoder) -> dict[Multisegment, LaurentPoly]:
    """Sorted words to basis elements, the basis prefactor divided out."""
    out: dict[Multisegment, LaurentPoly] = {}
    for w, c in finished.items():
        m = decode.multisegment(w)
        out[m] = c * _V(-e_star_prefactor_exponent(m))
    return out


_REACH_STATE_CAP = 200_000


def _ahead(w: Word, s: int, rank: _Rank | None) -> int:
    """The word's count of exchanges ahead: its inverted pairs, adjacent or
    not, that _exchanged admits."""
    return sum(1 for j, y in enumerate(w) for x in w[:j]
               if x > y and _exchanged(x, y, s, rank))


def _reachable(word: Word, rank: _Rank | None = None) -> set[Word]:
    """Every sorted word some complete normalization of the word can reach.

    Explores every rewriting order, treating an inversion that shares an
    end as a plain transposition (its true exchange is a transposition up
    to a v-power and creates no multisegment); a rank table prunes as in
    _rewrite.  A word with no exchange ahead is not expanded (module
    docstring).  Raises NonGeneralPositionExchange past _REACH_STATE_CAP
    words with an exchange ahead.
    """
    s = 0 if rank is None else rank.base - sum(map(rank.__getitem__, word))
    n = _ahead(word, s, rank)
    if not n:
        return {tuple(sorted(word))}
    seen: set[Word] = {word}  # the words with an exchange ahead
    frontier = [(word, s, n)]  # each with its slack and that count
    out: set[Word] = set()
    while frontier:
        w, s, n = frontier.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x <= y:
                continue
            head, tail = w[:i], w[i + 2:]
            ex = _exchanged(x, y, s, rank)
            nxt = [(head + (y, x) + tail, s, n - 1 if ex else n)]
            if ex:
                u = head + ex[0] + tail
                if u not in seen:
                    nxt.append((u, ex[1], _ahead(u, ex[1], rank)))
            for child in nxt:
                u = child[0]
                if not child[2]:
                    out.add(tuple(sorted(u)))
                elif u not in seen:
                    if len(seen) >= _REACH_STATE_CAP:
                        raise NonGeneralPositionExchange(
                            "reachability search exceeded the state cap")
                    seen.add(u)
                    frontier.append(child)
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
    """Product of basis-element combinations, with exact untainted part.

    Every choice of one monomial per factor is concatenated and rewritten
    in one pass.  Words stuck on shared-end inversions are dropped and the
    multisegments they could still have reached are reported as tainted;
    coefficients are returned only at untainted multisegments, where they
    are exact.
    """
    exact: dict[Word, LaurentPoly] = {}
    tainted: set[Word] = set()
    for w, coeff in _product_words(factors).items():
        finished, stuck = _rewrite(w, coeff)
        for fw, c in finished.items():
            _accumulate(exact, fw, c)
        for sw in stuck:
            tainted |= _reachable(sw)
    for w in tainted:
        exact.pop(w, None)
    decode = _Decoder()
    return (PBWElement(_collect(exact, decode)),
            frozenset(map(decode.multisegment, tainted)))


def word_coefficient(words: Mapping[Word, LaurentPoly], target: Word,
                     exponent: int) -> LaurentPoly | None:
    """The exact coefficient of E(target) in the sum of the product words,
    or None when the target is tainted.  Each word's coefficient carries
    its basis prefactors; target is a sorted word, exponent the exponent of
    its own prefactor.  Rewriting and search prune by the rank lemma."""
    total, rank = LaurentPoly.zero(), None
    for w, coeff in words.items():
        if _cannot_reach(w, target):
            continue
        if rank is None:  # built once, for the first word in play
            rank = _Rank(target)
        finished, stuck = _rewrite(w, coeff, rank)
        if any(target in _reachable(sw, rank) for sw in stuck):
            return None
        if target in finished:
            total = total + finished[target]
    return total if total.is_zero() else total * _V(-exponent)
