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
engine knows.  strict straightening raises NonGeneralPositionExchange as
soon as a word has out-of-order pairs but none of them is exchangeable.
That error is a feature: a strict run that completes certifies it stayed
inside the proven regime.

Pairs sharing a left or a right end are out of scope for the rules, and
they do arise in products of distinct members of a strongly regular
family.  Such a pair only reorders: two segments with a common end are
never linked, their product is a single basis element, so the exchange is
a plain transposition times an undetermined power of v and cannot create
new multisegments.  The guarded product below exploits exactly this: a
word whose remaining inversions all share an end is dropped, and every
multisegment any continuation of it could still reach (explored by a
depth-first search over reorderings and exchanges, at most
_REACH_STATE_CAP words) is marked tainted.  Coefficients at untainted
multisegments are therefore exact; tainted ones are withheld rather than
guessed.  Product words and the stuck words of each are summed before
the search, so a word whose coefficient cancels taints nothing.

Rewriting repeatedly picks the leftmost exchangeable pair of some pending
word; words are keyed in a map so duplicates merge eagerly.  An exchange
either removes an inversion or splits endpoints into a strictly more
nested pair, so the process terminates; confluence is asserted by test
(rightmost picking must give the same normal form), not assumed.

The rewriting runs on packed words.  A segment [a, b] is the int
((b + 2**31) << 32) | (a + 2**31), whose int order is the segment order
(b, a); ends outside [-2**31, 2**31) raise ValueError.  A word is a tuple
of these ints, an inversion is w[i] > w[i + 1], and the general-position,
linked and cap/cup tests read the two 32-bit fields.  Multisegments are
built only from finished or reachable sorted words.  The module keeps no
pool between calls.  The Segment-object rewriting and reachability search
it replaced live on in tests/helpers.py as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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
    """An out-of-order adjacent pair outside general position was reached;
    the known exchange rules do not cover it."""


@dataclass(frozen=True)
class TWord:
    """A product of segment generators, read left to right, with a scalar
    prefix so basis prefactors compose without early normalization."""

    prefix: LaurentPoly
    segments: tuple[Segment, ...]

    def __mul__(self, other: "TWord") -> "TWord":
        if not isinstance(other, TWord):
            return NotImplemented
        return TWord(self.prefix * other.prefix, self.segments + other.segments)


def e_star_prefactor_exponent(m: Multisegment) -> int:
    return sum(comb(c, 2) for _, c in m.items())


def e_star(m: Multisegment) -> TWord:
    """The defining word of the basis element E(M): sorted segments with a
    v-power prefix."""
    return TWord(_V(e_star_prefactor_exponent(m)), tuple(m.segments()))


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
        clean: dict[Multisegment, LaurentPoly] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    clean[m] = c
        self._terms = clean

    @classmethod
    def unit(cls) -> "PBWElement":
        return cls({Multisegment.empty(): LaurentPoly.one()})

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

    def __add__(self, other: "PBWElement") -> "PBWElement":
        if not isinstance(other, PBWElement):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            _accumulate(out, m, c)
        res = PBWElement.__new__(PBWElement)
        res._terms = out
        return res

    def scale(self, c: LaurentPoly | int) -> "PBWElement":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        if c.is_zero():
            return PBWElement()
        res = PBWElement.__new__(PBWElement)
        res._terms = {m: x * c for m, x in self._terms.items()}
        return res

    def __mul__(self, other: "PBWElement") -> "PBWElement":
        if not isinstance(other, PBWElement):
            return NotImplemented
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_json(self) -> list[dict]:
        ordered = sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())
        return [{"mseg": m.to_json(), "coeff": c.to_json("v")} for m, c in ordered]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "PBWElement":
        out: dict[Multisegment, LaurentPoly] = {}
        for rec in data:
            m = Multisegment.from_json(rec["mseg"])
            _accumulate(out, m, LaurentPoly.from_json(rec["coeff"]))
        return cls(out)

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


def _pack(s: Segment) -> int:
    a, b = s.a + _BIAS, s.b + _BIAS
    if a < 0 or b > _LO:  # a <= b for every Segment
        raise ValueError(f"segment {s} has an end outside [-2**31, 2**31)")
    return (b << _BITS) | a


def _unpack(x: int) -> Segment:
    return Segment((x & _LO) - _BIAS, (x >> _BITS) - _BIAS)


def _pack_word(segments: Iterable[Segment]) -> Word:
    return tuple(map(_pack, segments))


class _Decoder(dict):
    """Packed segments back to Segment objects, each decoded once per call."""

    def __missing__(self, x: int) -> Segment:
        s = self[x] = _unpack(x)
        return s

    def multisegment(self, w: Word) -> Multisegment:
        return Multisegment(map(self.__getitem__, w))


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


def _rewrite(word: Word, prefix: LaurentPoly, from_right: bool):
    """Shared straightening loop.

    Returns (finished, stuck): coefficient maps keyed by packed word, where
    stuck words are those whose every inversion is outside general position.
    """
    pending: dict[Word, LaurentPoly] = {word: prefix}
    finished: dict[Word, LaurentPoly] = {}
    stuck: dict[Word, LaurentPoly] = {}
    while pending:
        w, c = pending.popitem()
        pick = -1
        inverted = False
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                inverted = True
                if _general_position(x, y):
                    pick = i
                    if not from_right:
                        break
        if pick < 0:
            _accumulate(stuck if inverted else finished, w, c)
            continue
        x, y = w[pick], w[pick + 1]
        head, tail = w[:pick], w[pick + 2:]
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


def straighten(word: TWord, _pick: str = "leftmost") -> PBWElement:
    """Normal form of a generator word as a combination of basis elements.

    The scalar prefix multiplies every resulting coefficient; the basis
    prefactor of each sorted word is divided back out at the end.  Raises
    NonGeneralPositionExchange when a word gets stuck on inversions the
    rules do not cover.
    """
    finished, stuck = _rewrite(_pack_word(word.segments), word.prefix,
                               _pick == "rightmost")
    if stuck:
        w = next(iter(stuck))
        i = next(i for i in range(len(w) - 1) if w[i] > w[i + 1])
        raise NonGeneralPositionExchange(
            f"cannot exchange T{_unpack(w[i])} T{_unpack(w[i + 1])}: "
            f"pair not in general position")
    return PBWElement(_collect(finished, _Decoder()))


def multiply(x: PBWElement, y: PBWElement, _pick: str = "leftmost") -> PBWElement:
    """Bilinear extension of word concatenation followed by straightening."""
    result = PBWElement()
    for m1, c1 in x.terms().items():
        w1 = e_star(m1)
        for m2, c2 in y.terms().items():
            w2 = e_star(m2)
            piece = straighten(w1 * w2, _pick=_pick).scale(c1 * c2)
            result = result + piece
    return result


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
    words: dict[Word, LaurentPoly] = {(): LaurentPoly.one()}
    for factor in factors:
        pieces = [(_pack_word(m.segments()), c * _V(e_star_prefactor_exponent(m)))
                  for m, c in factor.terms().items()]
        expanded: dict[Word, LaurentPoly] = {}
        for w, coeff in words.items():
            for piece, c in pieces:
                _accumulate(expanded, w + piece, coeff * c)
        words = expanded

    exact: dict[Word, LaurentPoly] = {}
    tainted: set[Word] = set()
    for w, coeff in words.items():
        finished, stuck = _rewrite(w, coeff, from_right=False)
        for fw, c in finished.items():
            _accumulate(exact, fw, c)
        for sw in stuck:
            tainted |= _reachable(sw)
    for w in tainted:
        exact.pop(w, None)
    decode = _Decoder()
    return (PBWElement(_collect(exact, decode)),
            frozenset(map(decode.multisegment, tainted)))
