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
never linked, their product is a single basis element, so the exchange is
a plain transposition times an undetermined power of v and cannot create
new multisegments.  The guarded product exploits exactly this: a
word whose remaining inversions all share an end is dropped, and every
multisegment any continuation of it could still reach (explored by a
depth-first search over reorderings and exchanges, at most
_REACH_STATE_CAP words) is marked tainted.  Coefficients at untainted
multisegments are therefore exact; tainted ones are withheld rather than
guessed.  Product words and the stuck words of each are summed before
the search, so a word whose coefficient cancels taints nothing.

word_coefficient reads one coefficient through the same rewriting and
search, from packed product words its caller builds (verify_prop1 packs
family members itself), decodes nothing, and skips unrewritten every word
the rank lemma rules out.  Let r_ij = #{[a, b] : a <= i, j <= b}.  No step
changes the multisets of left and of right ends or lowers an r_ij: a
transposition keeps the multiset, and the exchange of a linked pair
a_y < a_x <= b_y < b_x gives [a_x, b_y] and [a_y, b_x]; an interval inside
both old segments lies inside both new ones, and one inside exactly one
lies inside [a_y, b_x].  So a word whose end multisets differ from the
target's, or with some r_ij above the target's (i a left end and j a right
end of the target, i <= j), can neither finish at the target nor taint it.

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

    def to_json(self) -> list[dict]:
        ordered = sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())
        return [{"mseg": m.to_json(), "coeff": c.to_json("v")} for m, c in ordered]

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


def _rewrite(word: Word, prefix: LaurentPoly):
    """The straightening loop, exchanging the leftmost admissible pair.

    Returns (finished, stuck): coefficient maps keyed by packed word, where
    stuck words are those whose every inversion is outside general position.
    """
    pending: dict[Word, LaurentPoly] = {word: prefix}
    finished: dict[Word, LaurentPoly] = {}
    stuck: dict[Word, LaurentPoly] = {}
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
        _accumulate(pending, head + (y, x) + tail, c)
        pair = _cap_cup(x, y)
        if pair:
            _accumulate(pending, head + pair + tail, c * _EXCHANGE)
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


def _reachable(word: Word) -> set[Word]:
    """Every sorted word some complete normalization of the word can reach.

    Explores every rewriting order, treating an inversion that shares an
    end as a plain transposition (its true exchange is a transposition up
    to a v-power and contributes no new multisegments).  Raises
    NonGeneralPositionExchange past _REACH_STATE_CAP words.
    """
    seen: set[Word] = {word}
    frontier = [word]
    out: set[Word] = set()
    while frontier:
        w = frontier.pop()
        nxt = []
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                head, tail = w[:i], w[i + 2:]
                nxt.append(head + (y, x) + tail)
                pair = _cap_cup(x, y)
                if pair:
                    nxt.append(head + pair + tail)
        if not nxt:
            out.add(w)
            continue
        for t in nxt:
            if t not in seen:
                if len(seen) >= _REACH_STATE_CAP:
                    raise NonGeneralPositionExchange(
                        "reachability search exceeded the state cap")
                seen.add(t)
                frontier.append(t)
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
    """Whether the rank lemma rules out reaching the target from w.  At the
    last segment with left end i, bw and bt hold the sorted right ends of the
    segments with a <= i; some r_ij(w) > r_ij(target) exactly when an entry
    of bw exceeds the entry of bt in its place (for j <= i, r_ij is
    #{a <= i} - #{b < j}, fixed by the end multisets)."""
    ws = sorted((x & _LO, x >> _BITS) for x in w)
    ts = sorted((x & _LO, x >> _BITS) for x in target)
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
    its own prefactor.  Words the rank lemma rules out are not rewritten."""
    total = LaurentPoly.zero()
    for w, coeff in words.items():
        if _cannot_reach(w, target):
            continue
        finished, stuck = _rewrite(w, coeff)
        if any(target in _reachable(sw) for sw in stuck):
            return None
        total = total + finished.get(target, LaurentPoly.zero())
    return total * _V(-exponent)
