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
breadth-first search over reorderings and exchanges) is marked tainted.
Coefficients at untainted multisegments are therefore exact; tainted ones
are withheld rather than guessed.

Rewriting repeatedly picks the leftmost exchangeable pair of some pending
word; words are keyed in a map so duplicates merge eagerly.  An exchange
either removes an inversion or splits endpoints into a strictly more
nested pair, so the process terminates; confluence is asserted by test
(rightmost picking must give the same normal form), not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

from .poly import LaurentPoly
from .segcomb import (
    Multisegment,
    Segment,
    general_position,
    precedes,
    seg_sort_key,
)
from .symgroup import NotComparable, Perm, bruhat_leq, length

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


def segment_less(d1: Segment, d2: Segment) -> bool:
    """The total order: earlier right end first, ties by earlier left end."""
    return seg_sort_key(d1) < seg_sort_key(d2)


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


Word = tuple[Segment, ...]


def _inversions(word: Word) -> list[int]:
    return [i for i in range(len(word) - 1)
            if seg_sort_key(word[i]) > seg_sort_key(word[i + 1])]


def _exchangeable(word: Word, i: int) -> bool:
    return general_position(word[i + 1], word[i])


def _rewrite(word: TWord, from_right: bool):
    """Shared straightening loop.

    Returns (finished, stuck): coefficient maps keyed by word, where stuck
    words are those whose every inversion is outside general position.
    """
    pending: dict[Word, LaurentPoly] = {word.segments: word.prefix}
    finished: dict[Word, LaurentPoly] = {}
    stuck: dict[Word, LaurentPoly] = {}
    while pending:
        w, c = pending.popitem()
        inv = _inversions(w)
        admissible = [i for i in inv if _exchangeable(w, i)]
        if not admissible:
            _accumulate(stuck if inv else finished, w, c)
            continue
        i = admissible[-1] if from_right else admissible[0]
        d2, d1 = w[i], w[i + 1]  # d1 < d2 out of order
        _accumulate(pending, w[: i] + (d1, d2) + w[i + 2 :], c)
        if precedes(d1, d2):
            cap = Segment(d2.a, d1.b)
            cup = Segment(d1.a, d2.b)
            _accumulate(pending, w[: i] + (cap, cup) + w[i + 2 :], c * _EXCHANGE)
    return finished, stuck


def _collect(finished: dict[Word, LaurentPoly]) -> dict[Multisegment, LaurentPoly]:
    out: dict[Multisegment, LaurentPoly] = {}
    for w, c in finished.items():
        m = Multisegment(w)
        _accumulate(out, m, c * _V(-e_star_prefactor_exponent(m)))
    return out


def straighten(word: TWord, _pick: str = "leftmost") -> PBWElement:
    """Normal form of a generator word as a combination of basis elements.

    The scalar prefix multiplies every resulting coefficient; the basis
    prefactor of each sorted word is divided back out at the end.  Raises
    NonGeneralPositionExchange when a word gets stuck on inversions the
    rules do not cover.
    """
    finished, stuck = _rewrite(word, _pick == "rightmost")
    if stuck:
        w = next(iter(stuck))
        i = _inversions(w)[0]
        raise NonGeneralPositionExchange(
            f"cannot exchange T{w[i]} T{w[i + 1]}: pair not in general position"
        )
    return PBWElement(_collect(finished))


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


_REACH_CACHE: dict[Word, frozenset[Multisegment]] = {}
_REACH_STATE_CAP = 200_000


def reachable_normal_multisegments(word: Word) -> frozenset[Multisegment]:
    """All multisegments any complete normalization of the word can reach.

    Explores every rewriting order, treating an inversion that shares an
    end as a plain transposition (its true exchange is a transposition up
    to a v-power and contributes no new multisegments).  Used to decide
    which coefficients a dropped stuck word could still have influenced.
    """
    hit = _REACH_CACHE.get(word)
    if hit is not None:
        return hit
    seen: set[Word] = {word}
    frontier = [word]
    out: set[Multisegment] = set()
    while frontier:
        w = frontier.pop()
        inv = _inversions(w)
        if not inv:
            out.add(Multisegment(w))
            continue
        for i in inv:
            d2, d1 = w[i], w[i + 1]
            nxt = [w[: i] + (d1, d2) + w[i + 2 :]]
            if general_position(d1, d2) and precedes(d1, d2):
                nxt.append(w[: i] + (Segment(d2.a, d1.b), Segment(d1.a, d2.b))
                           + w[i + 2 :])
            for t in nxt:
                if t not in seen:
                    if len(seen) >= _REACH_STATE_CAP:
                        raise NonGeneralPositionExchange(
                            "reachability search exceeded the state cap")
                    seen.add(t)
                    frontier.append(t)
    result = frozenset(out)
    _REACH_CACHE[word] = result
    return result


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
    words: list[tuple[LaurentPoly, Word]] = [(LaurentPoly.one(), ())]
    for factor in factors:
        expanded: dict[Word, LaurentPoly] = {}
        for coeff, w in words:
            for m, c in factor.terms().items():
                piece = e_star(m)
                _accumulate(expanded, w + piece.segments, coeff * c * piece.prefix)
        words = [(c, w) for w, c in expanded.items()]

    exact: dict[Multisegment, LaurentPoly] = {}
    tainted: set[Multisegment] = set()
    for coeff, w in words:
        finished, stuck = _rewrite(TWord(coeff, w), from_right=False)
        for m, c in _collect(finished).items():
            _accumulate(exact, m, c)
        for sw in stuck:
            tainted.update(reachable_normal_multisegments(sw))
    for m in tainted:
        exact.pop(m, None)
    return PBWElement(exact), frozenset(tainted)


def c_strongly_regular(sigma: Perm, omega: Perm, m: int) -> int:
    """The orbit-dimension gap m**2 (length(omega) - length(sigma)) between
    members of an m-replicated strongly regular family."""
    if not bruhat_leq(sigma, omega):
        raise NotComparable(f"{sigma} is not below {omega}")
    return m * m * (length(omega) - length(sigma))
